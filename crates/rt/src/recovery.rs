//! Error recovery — the paper's §5 future work, implemented:
//! *"A fault tolerant system detects errors created as the effect of a
//! fault and in addition, applies error recovery techniques to restore
//! and continue the normal operations. Therefore, in order to make the
//! monitor construct to be fault-tolerant, error recovery mechanisms
//! should be incorporated into the model to handle the faults detected
//! by recovering the errors."*
//!
//! [`RecoveryChecker`] is the periodic checking routine (the loop behind
//! [`CheckerHandle`](crate::CheckerHandle)) with a recovery stage as its
//! per-report step: after each checkpoint it inspects the report and
//! applies the matching recovery action —
//!
//! * a **stuck monitor** (lock never released: faults W6/X2/T1,
//!   surfacing as entry-queue starvation) is *force-released*: the
//!   stuck flag is cleared, any dead owner entry is evicted, and the
//!   entry-queue head is admitted;
//! * a **leaked access right** (ST-8c hold timeout) is *reclaimed*:
//!   the holder is dropped from the Request-List so the allocator's
//!   order tracking recovers (the unit itself is restored by the
//!   wrapper's recovery callback).
//!
//! Recovery is deliberately conservative: it only acts on violations
//! the detector actually reported, and every action is recorded in the
//! [`RecoveryLog`].

use crate::checker::PeriodicChecker;
use crate::raw::RawCore;
use crate::runtime::Runtime;
use parking_lot::Mutex;
use rmon_core::{FaultReport, MonitorId, Nanos, RuleId};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// One applied recovery action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A stuck monitor lock was force-released.
    ForceReleased {
        /// The recovered monitor.
        monitor: MonitorId,
        /// When the action was applied.
        at: Nanos,
    },
}

/// Record of every recovery action applied so far.
#[derive(Debug, Default)]
pub struct RecoveryLog {
    actions: Mutex<Vec<RecoveryAction>>,
}

impl RecoveryLog {
    /// All actions applied, in order.
    pub fn actions(&self) -> Vec<RecoveryAction> {
        self.actions.lock().clone()
    }

    /// Number of actions applied.
    pub fn len(&self) -> usize {
        self.actions.lock().len()
    }

    /// Whether no recovery was needed yet.
    pub fn is_empty(&self) -> bool {
        self.actions.lock().is_empty()
    }
}

/// A periodic checker that *recovers* from the stuck-lock fault family
/// in addition to reporting it.
#[derive(Debug)]
pub struct RecoveryChecker {
    checker: PeriodicChecker,
    log: Arc<RecoveryLog>,
}

impl RecoveryChecker {
    /// Spawns the checking-plus-recovery routine over `rt`, watching
    /// the given monitors.
    pub fn spawn(rt: &Runtime, monitors: Vec<Weak<RawCore>>, interval: Duration) -> Self {
        let log = Arc::new(RecoveryLog::default());
        let log2 = Arc::clone(&log);
        let checker = PeriodicChecker::spawn(rt, interval, "rmon-recovery", move |rt, report| {
            apply_recovery(rt, &monitors, &report, &log2);
        });
        RecoveryChecker { checker, log }
    }

    /// The recovery log.
    pub fn log(&self) -> &Arc<RecoveryLog> {
        &self.log
    }

    /// Stops the checker; returns how many checks ran.
    pub fn stop(mut self) -> u64 {
        self.checker.stop()
    }
}

/// Applies the recovery stage for one checkpoint report.
fn apply_recovery(
    rt: &Runtime,
    monitors: &[Weak<RawCore>],
    report: &FaultReport,
    log: &RecoveryLog,
) {
    // Entry-queue starvation on a monitor whose lock is stuck is the
    // recoverable signature of W6/X2/T1.
    let starved: Vec<MonitorId> = report
        .violations
        .iter()
        .filter(|v| matches!(v.rule, RuleId::St6EntryTimeout | RuleId::St5InsideTimeout))
        .map(|v| v.monitor)
        .collect();
    if starved.is_empty() {
        return;
    }
    for weak in monitors {
        let Some(core) = weak.upgrade() else { continue };
        if starved.contains(&core.id()) && core.force_release() {
            log.actions
                .lock()
                .push(RecoveryAction::ForceReleased { monitor: core.id(), at: rt.now() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoundedBuffer, MonitorError, OperationCell, RtFault, Runtime};
    use rmon_core::DetectorConfig;

    fn fast_rt() -> Runtime {
        Runtime::builder(
            DetectorConfig::builder()
                .t_max(Nanos::from_millis(30))
                .t_io(Nanos::from_millis(30))
                .t_limit(Nanos::from_millis(60))
                .check_interval(Nanos::from_millis(10))
                .build(),
        )
        .park_timeout(Duration::from_millis(800))
        .build()
    }

    #[test]
    fn stuck_lock_is_detected_and_recovered() {
        let rt = fast_rt();
        let buf = BoundedBuffer::new(&rt, "buf", 2);
        let recovery =
            RecoveryChecker::spawn(&rt, vec![buf.core_weak()], Duration::from_millis(10));
        buf.arm_fault(RtFault::StickLockOnExit);
        // The first send exits with a stuck lock; without recovery the
        // second call would starve to its park timeout.
        buf.send(1).expect("first send completes (lock sticks after it)");
        buf.send(2).expect("recovered: second send must be admitted");
        assert_eq!(buf.receive().expect("recovered receive"), Some(1));
        let actions = recovery.log().actions();
        recovery.stop();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, RecoveryAction::ForceReleased { monitor, .. } if *monitor == buf.id())),
            "{actions:?}"
        );
        // The fault itself was still *reported* (detection first,
        // recovery second).
        assert!(!rt.is_clean());
    }

    #[test]
    fn abandoned_monitor_is_recovered_for_other_threads() {
        let rt = fast_rt();
        let cell = OperationCell::new(&rt, "cell", 0u64);
        let recovery =
            RecoveryChecker::spawn(&rt, vec![cell.core_weak()], Duration::from_millis(10));
        cell.operate_and_die(|n| *n += 1).expect("operation before dying");
        // Without recovery this would time out (see the cell tests);
        // with recovery the monitor becomes usable again.
        let v = cell.operate(|n| *n).expect("recovered operation");
        assert_eq!(v, 1);
        recovery.stop();
        assert!(!rt.is_clean(), "the termination fault must still be reported");
    }

    #[test]
    fn clean_workload_triggers_no_recovery() {
        let rt = fast_rt();
        let buf = BoundedBuffer::new(&rt, "buf", 2);
        let recovery =
            RecoveryChecker::spawn(&rt, vec![buf.core_weak()], Duration::from_millis(10));
        for i in 0..100 {
            buf.send(i).expect("send");
            let _ = buf.receive().expect("receive");
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(recovery.log().is_empty());
        recovery.stop();
        assert!(rt.is_clean());
    }

    #[test]
    fn recovery_is_bounded_by_detection() {
        // A monitor that merely *looks* slow (no violation) is never
        // force-released: park-timeout errors still surface if the
        // detector saw nothing.
        let rt = Runtime::builder(DetectorConfig::without_timeouts())
            .park_timeout(Duration::from_millis(100))
            .build();
        let cell = OperationCell::new(&rt, "cell", ());
        let recovery =
            RecoveryChecker::spawn(&rt, vec![cell.core_weak()], Duration::from_millis(10));
        cell.arm_fault(RtFault::StickLockOnExit);
        cell.operate(|()| ()).expect("first operation");
        // Timers are disabled: the stuck lock produces no violation, so
        // no recovery happens and the next call times out.
        let err = cell.operate(|()| ()).unwrap_err();
        assert_eq!(err, MonitorError::Timeout);
        assert!(recovery.log().is_empty());
        recovery.stop();
    }
}
