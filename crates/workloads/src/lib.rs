//! # rmon-workloads — evaluation workloads and the fault-injection
//! campaign
//!
//! Workload generators for both substrates of the `rmon` workspace,
//! plus the canonical 21-class fault-injection campaign reproducing the
//! robustness evaluation of the DSN 2001 paper:
//!
//! * [`PcWorkload`] — producer/consumer over a bounded buffer (the
//!   workload of the paper's performance evaluation);
//! * [`Philosophers`] — dining philosophers over single-unit
//!   allocators (ordered = deadlock-free; naive = circular wait, whose
//!   deadlock the detector flags through its timers);
//! * [`ReadersWriters`] — a real-thread Hoare monitor with a declared
//!   path-expression call order;
//! * [`AllocatorMix`] — allocator clients including the three
//!   user-process fault patterns;
//! * [`faultset`] — the coverage campaign: one scenario per taxonomy
//!   class (EXP-COV);
//! * [`sweep`] — synthetic traces and parameter sweeps for the
//!   benchmark harness;
//! * [`soak`] — the soak/chaos driver over the durable oplog: monitor
//!   churn, backpressure storms, crash injection and the closing
//!   differential replay;
//! * [`distributed`] — the multi-process mirror of the fleet sweeps:
//!   N `rmon-net` workers streaming one [`sweep::FleetTrace`] into a
//!   single detection service, optionally through the fault-injecting
//!   harness;
//! * [`saturation`] — many concurrent producer threads against one
//!   backend: a lossless stress of the multi-producer ingestion
//!   front-end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocator_clients;
pub mod distributed;
pub mod faultset;
pub mod philosophers;
pub mod producer_consumer;
pub mod readers_writers;
pub mod saturation;
pub mod soak;
pub mod sweep;

pub use allocator_clients::{AllocatorMix, ClientKind};
pub use distributed::{drive_fleet_distributed, DistributedConfig, DistributedOutcome};
pub use philosophers::Philosophers;
pub use producer_consumer::PcWorkload;
pub use readers_writers::ReadersWriters;
pub use saturation::{run_saturation, SaturationConfig, SaturationReport};
pub use soak::{run_soak, SoakConfig, SoakReport};
