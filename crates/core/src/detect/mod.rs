//! The fault-detection algorithms of §3.3.2 and the incremental
//! detector engine.
//!
//! The paper develops three algorithms over the checking lists:
//!
//! * [`algorithm1`] — *General Concurrency-Control Checking*
//!   (ST-Rules 1–6): mutual exclusion, hand-off consistency, ghost
//!   events, non-termination and starvation timers, snapshot
//!   comparison;
//! * [`algorithm2`] — *Consistency-Of-Resource-States Checking*
//!   (ST-Rule 7) for communication-coordinator monitors;
//! * [`algorithm3`] — *Calling-Orders Checking* (ST-Rule 8) for
//!   resource-access-right-allocator monitors, applied **in real time**.
//!
//! The batch entry points in the `algorithm*` modules mirror the paper's
//! pseudo-code exactly (inputs: state at the last checking time, state
//! at the current checking time, the event sequence in between). The
//! [`Detector`] engine runs the same state machines *incrementally*,
//! carrying lists, counters and timers across checking windows the way
//! the prototype's periodically-invoked checking routine does.

//!
//! For deployments watching many monitors at once, [`shard`] puts a
//! pool of worker threads over the same engine: monitors partition
//! across the workers by [`shard::shard_for`], events arrive in batches
//! over bounded channels, and violations aggregate through a
//! per-shard-counting collector.
//!
//! The [`backend`] module puts a uniform, pluggable API over all of
//! it: [`DetectionBackend`] (where checking runs) × [`ProducerHandle`]
//! (cheap per-thread ingestion handles that own their own batch
//! buffers). It has two implementations: [`InlineBackend`], and the
//! shard core, whose configurations are named [`ShardedBackend`],
//! [`ScheduledBackend`] (the core with a checkpoint ticker) and
//! [`AsyncBackend`] (the core with queued ingest and per-monitor
//! instrumentation [`mode`]s). The checkpoint half of the API is a trait
//! pair of its own: a [`SnapshotProvider`] supplies live monitor-state
//! observations (the paper's `s_t`) and
//! [`DetectionBackend::checkpoint`] runs the full Algorithm-1/2/timer
//! comparison over a [`CheckpointScope`] — the whole backend, one
//! shard, or one monitor — with no caller-drained window required.

pub mod algorithm1;
pub mod algorithm2;
pub mod algorithm3;
pub mod backend;
mod engine;
pub mod mode;
pub mod predict;
pub mod shard;

pub use backend::{
    gather_snapshots, Backpressure, CheckpointScope, DetectionBackend, InlineBackend,
    ProducerHandle, SnapshotProvider, SnapshotTable,
};
pub use engine::{Detector, MonitorChecker};
pub use mode::{ModeController, ModePolicy};
pub use shard::{
    AdaptiveBatch, AsyncBackend, ClockFn, Observe, ScheduledBackend, SchedulerConfig,
    ServiceConfig, ServiceStats, ShardStats, ShardedBackend,
};
