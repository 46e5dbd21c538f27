//! Algorithm-3: Calling-Orders Checking (paper §3.3.2).
//!
//! For resource-access-right-allocator monitors: checks the partial
//! ordering of `Request`/`Release` calls (ST-8a/b), the declared
//! path-expression call order (generalized ST-8), and the `Tlimit` hold
//! timer (ST-8c).
//!
//! The paper requires user-process-level faults to be caught **in real
//! time** — the incremental [`crate::detect::Detector`] therefore runs
//! these checks as each event is observed, not only at checkpoints. The
//! batch entry point below mirrors the paper's pseudo-code for tests and
//! benchmarks.

use crate::config::DetectorConfig;
use crate::event::Event;
use crate::ids::MonitorId;
use crate::lists::OrderState;
use crate::spec::MonitorSpec;
use crate::time::Nanos;
use crate::violation::Violation;
use std::sync::Arc;

/// Runs Algorithm-3 as a batch over one checking window.
///
/// # Examples
///
/// ```
/// use rmon_core::detect::algorithm3;
/// use rmon_core::{DetectorConfig, MonitorId, MonitorSpec, Nanos};
///
/// let al = MonitorSpec::allocator("printer", 1);
/// let v = algorithm3::run(
///     MonitorId::new(0),
///     &al.spec,
///     &DetectorConfig::default(),
///     &[],
///     Nanos::ZERO,
/// );
/// assert!(v.is_empty());
/// ```
pub fn run(
    monitor: MonitorId,
    spec: &MonitorSpec,
    cfg: &DetectorConfig,
    events: &[Event],
    now: Nanos,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut os = OrderState::new(monitor, spec);
    let spec = Arc::new(spec.clone());
    for event in events {
        os.apply(&spec, event, &mut out);
    }
    os.check_hold_timeout(cfg, now, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::ids::{CondId, Pid, ProcName};
    use crate::rule::RuleId;

    const M: MonitorId = MonitorId::new(0);
    const REQ: ProcName = ProcName::new(0);
    const REL: ProcName = ProcName::new(1);

    fn spec() -> MonitorSpec {
        MonitorSpec::allocator("res", 1).spec
    }

    fn cycle(seq: &mut u64, t: &mut u64, pid: u32) -> Vec<Event> {
        let mut ev = Vec::new();
        for (proc_name, cond) in [(REQ, None), (REL, Some(CondId::new(0)))] {
            *seq += 1;
            *t += 10;
            ev.push(Event::enter(*seq, Nanos::new(*t), M, Pid::new(pid), proc_name, true));
            *seq += 1;
            *t += 10;
            ev.push(Event::signal_exit(
                *seq,
                Nanos::new(*t),
                M,
                Pid::new(pid),
                proc_name,
                cond,
                false,
            ));
        }
        ev
    }

    #[test]
    fn balanced_cycles_are_clean() {
        let spec = spec();
        let (mut seq, mut t) = (0, 0);
        let mut events = Vec::new();
        events.extend(cycle(&mut seq, &mut t, 1));
        events.extend(cycle(&mut seq, &mut t, 2));
        let v = run(M, &spec, &DetectorConfig::without_timeouts(), &events, Nanos::new(t));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn release_first_is_flagged_in_order() {
        let spec = spec();
        let events = vec![Event::enter(1, Nanos::new(10), M, Pid::new(1), REL, true)];
        let v = run(M, &spec, &DetectorConfig::without_timeouts(), &events, Nanos::new(20));
        assert!(v.iter().any(|v| v.rule == RuleId::St8ReleaseWithoutRequest));
        assert!(v.iter().any(|v| v.fault == Some(FaultKind::ReleaseWithoutAcquire)));
    }

    #[test]
    fn never_released_is_flagged_by_tlimit() {
        let spec = spec();
        let events = vec![Event::enter(1, Nanos::new(10), M, Pid::new(1), REQ, true)];
        let cfg = DetectorConfig::builder().t_limit(Nanos::from_millis(1)).build();
        let v = run(M, &spec, &cfg, &events, Nanos::from_secs(1));
        assert!(v.iter().any(|v| v.rule == RuleId::St8HoldTimeout
            && v.fault == Some(FaultKind::ResourceNeverReleased)));
    }

    #[test]
    fn double_acquire_is_flagged() {
        let spec = spec();
        let events = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), REQ, true),
            Event::signal_exit(2, Nanos::new(20), M, Pid::new(1), REQ, None, false),
            Event::enter(3, Nanos::new(30), M, Pid::new(1), REQ, false),
        ];
        let v = run(M, &spec, &DetectorConfig::without_timeouts(), &events, Nanos::new(40));
        assert!(v
            .iter()
            .any(|v| v.rule == RuleId::St8DuplicateRequest
                && v.fault == Some(FaultKind::DoubleAcquire)));
    }
}
