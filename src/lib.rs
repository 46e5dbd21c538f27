//! # rmon — run-time fault detection for monitor-based concurrent
//! programs
//!
//! A comprehensive Rust reproduction of *"Run-time Fault Detection in
//! Monitor Based Concurrent Programming"* (Jiannong Cao, Nick K.C.
//! Cheung, Alvin T.S. Chan — DSN 2001): the augmented monitor
//! construct, the 21-class concurrency-control fault taxonomy, the
//! FD/ST detection rules, the three detection algorithms, and the
//! paper's full evaluation (fault-injection coverage and
//! checking-interval overhead).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`rmon-core`) — the execution-agnostic detector: events,
//!   states, taxonomy, rules, checking lists, algorithms, path
//!   expressions, reference checker;
//! * [`sim`] (`rmon-sim`) — a deterministic monitor-kernel simulator
//!   whose protocol can be fault-injected (all 21 classes);
//! * [`rt`] (`rmon-rt`) — the robust monitor runtime for real threads
//!   (hand-off monitor, recorder, periodic checker, and the
//!   uninstrumented hand-off buffer Table 1's overhead ratio divides
//!   by);
//! * [`storage`] (`rmon-storage`) — the durable operations layer: an
//!   append-only, CRC-framed, segmented oplog for events and verdicts,
//!   crash recovery, and the differential replayer;
//! * [`workloads`] (`rmon-workloads`) — evaluation workloads, the
//!   canonical fault-injection campaign, and the soak/chaos driver;
//! * [`net`] (`rmon-net`) — distributed detection: multi-process
//!   runtimes streaming monitor events over framed transports to one
//!   logical detection service (sessions, HLC merge, checkpoint
//!   fan-out with per-worker quarantine).
//!
//! ## Quickstart
//!
//! ```
//! use rmon::prelude::*;
//! use std::time::Duration;
//!
//! // A robust bounded buffer with a background checker.
//! let rt = Runtime::new(DetectorConfig::default());
//! let buf = BoundedBuffer::new(&rt, "mailbox", 8);
//! let checker = CheckerHandle::spawn(&rt, Duration::from_millis(20));
//!
//! buf.send("hello")?;
//! assert_eq!(buf.receive()?, Some("hello"));
//!
//! checker.stop();
//! assert!(rt.is_clean());
//! # Ok::<(), rmon::rt::MonitorError>(())
//! ```
//!
//! See `examples/` for fault-detection walkthroughs,
//! `docs/ARCHITECTURE.md` for the crate map and data flow, and
//! `docs/PAPER_MAP.md` for where each paper concept lives in the code.

#![warn(missing_docs)]

pub use rmon_core as core;
pub use rmon_net as net;
pub use rmon_rt as rt;
pub use rmon_sim as sim;
pub use rmon_storage as storage;
pub use rmon_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rmon_core::detect::{
        AsyncBackend, Backpressure, CheckpointScope, DetectionBackend, InlineBackend,
        ProducerHandle, ScheduledBackend, SchedulerConfig, ServiceConfig, ServiceStats,
        ShardedBackend, SnapshotProvider, SnapshotTable,
    };
    pub use rmon_core::{
        analyze, analyze_all, analyze_fleet, monitor_spec, taxonomy, DetectorConfig, DiagCode,
        Diagnostic, Event, EventKind, FaultKind, FaultLevel, FaultReport, JournalSink, LintReport,
        MemorySink, Mode, MonitorClass, MonitorId, MonitorSpec, MonitorState, Nanos, PathExpr, Pid,
        PredictMode, PredictedViolation, RuleId, Severity, VClock, Violation,
    };
    pub use rmon_net::{DetectionService, RemoteBackend, RemoteConfig};
    pub use rmon_rt::{
        BoundedBuffer, BufferBug, CheckerHandle, Monitor, MonitorError, OperationCell, OrderPolicy,
        ResourceAllocator, RtFault, Runtime, RuntimeSnapshotProvider,
    };
    pub use rmon_sim::{
        run_plain, run_with_backend, run_with_backend_checkpointed, run_with_detection,
        InjectionPlan, Script, Sim, SimBuilder, SimConfig,
    };
    pub use rmon_storage::{replay_dir, DurableSink, FsyncPolicy, OplogConfig, ReplayOutcome};
    pub use rmon_workloads::{
        run_soak, AllocatorMix, PcWorkload, Philosophers, ReadersWriters, SoakConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_compile() {
        use crate::prelude::*;
        let _ = DetectorConfig::default();
        assert_eq!(taxonomy().len(), 21);
    }
}
