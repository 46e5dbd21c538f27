//! # rmon-core — run-time fault detection for monitor-based concurrency
//!
//! A from-scratch Rust implementation of the detection model of
//! *"Run-time Fault Detection in Monitor Based Concurrent Programming"*
//! (Cao, Cheung & Chan, DSN 2001).
//!
//! The crate is execution-agnostic: it consumes a stream of scheduling
//! [`Event`]s (`Enter` / `Wait` / `Signal-Exit`) plus observed
//! [`MonitorState`] snapshots, and detects violations of the paper's
//! concurrency-control rules. Two sibling crates provide the
//! substrates that *produce* those streams — `rmon-sim` (a
//! deterministic simulator whose monitor kernel can be fault-injected)
//! and `rmon-rt` (a real-thread robust-monitor runtime).
//!
//! ## Model
//!
//! * [`spec::MonitorSpec`] — the augmented monitor declaration: class
//!   (communication coordinator / resource allocator / operation
//!   manager), procedures with semantic roles, condition variables,
//!   capacity `Rmax`, and a declared call order as a [`PathExpr`].
//! * [`Event`] / [`MonitorState`] — the scheduling events and states of
//!   §3.1 that make up the history information.
//! * [`FaultKind`] — the 21-fault taxonomy of §2.2, with its mapping to
//!   detection rules ([`taxonomy`]).
//! * [`detect::Detector`] — the incremental checking routine: real-time
//!   calling-order checks ([`detect::Detector::observe`]) plus periodic
//!   checkpoints ([`detect::Detector::checkpoint`]) running the paper's
//!   Algorithms 1–3 over the checking lists.
//! * [`reference::check_history`] — an independent, declarative
//!   implementation of FD-Rules 1–7 over complete histories, used for
//!   differential testing of the incremental engine.
//!
//! ## Example
//!
//! ```
//! use rmon_core::detect::Detector;
//! use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, MonitorState, Nanos, Pid};
//! use std::collections::HashMap;
//! use std::sync::Arc;
//!
//! // Declare a bounded buffer (communication-coordinator monitor).
//! let bb = MonitorSpec::bounded_buffer("mailbox", 4);
//! let m = MonitorId::new(0);
//!
//! // Register it with the detector.
//! let mut det = Detector::new(DetectorConfig::without_timeouts());
//! det.register_empty(m, Arc::new(bb.spec.clone()), Nanos::ZERO);
//!
//! // A producer deposits one item …
//! let history = vec![
//!     Event::enter(1, Nanos::new(10), m, Pid::new(1), bb.send, true),
//!     Event::signal_exit(2, Nanos::new(20), m, Pid::new(1), bb.send, Some(bb.empty_cond), false),
//! ];
//!
//! // … and the periodic check finds the history consistent with the
//! // observed state (three free slots).
//! let mut snapshots = HashMap::new();
//! snapshots.insert(m, MonitorState::with_resources(2, 3));
//! let report = det.checkpoint(Nanos::new(30), &history, &snapshots);
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assertion;
mod config;
pub mod detect;
mod error;
pub mod event;
mod fault;
pub mod hlc;
mod ids;
mod lists;
pub mod oplog;
pub mod path;
pub mod reference;
mod rule;
pub mod spec;
mod state;
mod time;
pub mod vclock;
mod violation;

pub use assertion::StateAssertion;
pub use config::{DetectorConfig, DetectorConfigBuilder, Mode, PredictMode};
pub use error::CoreError;
pub use event::{Event, EventKind};
pub use fault::{taxonomy, FaultInfo, FaultKind, FaultLevel};
pub use hlc::{Hlc, HlcStamp};
pub use ids::{CondId, MonitorId, Pid, PidProc, ProcName};
pub use lists::{GeneralLists, OrderState, ResourceState};
pub use oplog::{Journal, JournalSink, MemorySink};
pub use path::{CompiledPath, OrderViolation, PathError, PathExpr, PathTracker};
pub use rule::RuleId;
pub use spec::{
    analyze::analyze, analyze_all, analyze_fleet, AllocatorSpec, BoundedBufferSpec, CondRole,
    CondSpec, DiagCode, Diagnostic, LintReport, ManagerSpec, MonitorClass, MonitorSpec,
    MonitorSpecBuilder, ProcRole, ProcedureSpec, Severity,
};
pub use state::MonitorState;
pub use time::Nanos;
pub use vclock::VClock;
pub use violation::{FaultReport, PredictedViolation, Violation};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Event>();
        assert_send_sync::<MonitorState>();
        assert_send_sync::<MonitorSpec>();
        assert_send_sync::<FaultReport>();
        assert_send_sync::<detect::Detector>();
        assert_send_sync::<DetectorConfig>();
    }

    #[test]
    fn taxonomy_rules_are_all_st_rules() {
        for info in taxonomy() {
            for rule in info.detected_by {
                assert!(rule.is_st(), "{} mapped to non-ST rule {rule}", info.code);
            }
        }
    }
}
