//! Integration tests for the §5 assertion extension: user-supplied
//! state assertions declared on the monitor are evaluated at every
//! checkpoint.

use rmon_core::detect::Detector;
use rmon_core::{
    CondId, DetectorConfig, MonitorId, MonitorSpec, MonitorState, Nanos, Pid, PidProc, ProcName,
    RuleId, StateAssertion,
};
use std::collections::HashMap;
use std::sync::Arc;

const M: MonitorId = MonitorId::new(0);

fn detector_with(assertions: Vec<StateAssertion>) -> Detector {
    let mut bb = MonitorSpec::bounded_buffer("buf", 4);
    bb.spec.assertions = assertions;
    let mut det = Detector::new(DetectorConfig::without_timeouts());
    det.register_empty(M, Arc::new(bb.spec), Nanos::ZERO);
    det
}

fn snapshot(eq: usize, avail: u64) -> HashMap<MonitorId, MonitorState> {
    let mut s = MonitorState::with_resources(2, avail);
    for i in 0..eq {
        s.entry_queue.push(PidProc::new(Pid::new(i as u32), ProcName::new(0)));
    }
    // Make the snapshot self-consistent for the general lists: the
    // queued processes must have blocked-enter events… instead, start
    // the detector from this state (register handles initialization),
    // so only the assertions fire. Here we rely on resync semantics:
    // the first checkpoint compares against the replayed (empty) state
    // and the assertion independently.
    let mut map = HashMap::new();
    map.insert(M, s);
    map
}

#[test]
fn satisfied_assertions_stay_silent() {
    let mut det = detector_with(vec![
        StateAssertion::EntryQueueAtMost(4),
        StateAssertion::AvailableAtMost(4),
        StateAssertion::PopulationAtMost(10),
    ]);
    let snaps = snapshot(0, 4);
    let report = det.checkpoint(Nanos::new(10), &[], &snaps);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn violated_capacity_assertion_fires() {
    let mut det = detector_with(vec![StateAssertion::AvailableAtMost(4)]);
    // Observed R# exceeds the declared capacity: a corrupted counter.
    let snaps = snapshot(0, 9);
    let report = det.checkpoint(Nanos::new(10), &[], &snaps);
    assert!(report.violates_any(&[RuleId::UserAssertion]), "{report}");
    let v = report.by_rule(RuleId::UserAssertion).next().expect("one assertion violation");
    assert!(v.message.to_string().contains("R#"), "{}", v.message);
}

#[test]
fn assertion_violations_fire_every_checkpoint_while_state_is_bad() {
    let mut det = detector_with(vec![StateAssertion::AvailableAtLeast(1)]);
    let snaps = snapshot(0, 0);
    let r1 = det.checkpoint(Nanos::new(10), &[], &snaps);
    let r2 = det.checkpoint(Nanos::new(20), &[], &snaps);
    assert!(r1.violates_any(&[RuleId::UserAssertion]));
    assert!(r2.violates_any(&[RuleId::UserAssertion]), "assertions are stateless per checkpoint");
}

#[test]
fn cond_queue_assertion_checks_named_queue_only() {
    let mut det =
        detector_with(vec![StateAssertion::CondQueueAtMost { cond: CondId::new(0), at_most: 0 }]);
    let mut s = MonitorState::with_resources(2, 4);
    // Queue 1 backlog is fine; queue 0 backlog violates.
    s.cond_queues[1].push(PidProc::new(Pid::new(7), ProcName::new(1)));
    let mut snaps = HashMap::new();
    snaps.insert(M, s.clone());
    // Note: a waiter in CQ[1] without matching events also trips ST-2
    // on the first checkpoint; the assertion must NOT fire though.
    let report = det.checkpoint(Nanos::new(10), &[], &snaps);
    assert!(!report.violates_any(&[RuleId::UserAssertion]), "{report}");

    s.cond_queues[0].push(PidProc::new(Pid::new(8), ProcName::new(0)));
    snaps.insert(M, s);
    let report = det.checkpoint(Nanos::new(20), &[], &snaps);
    assert!(report.violates_any(&[RuleId::UserAssertion]), "{report}");
}

#[test]
fn assertion_rule_is_classified_as_st() {
    assert!(RuleId::UserAssertion.is_st());
    assert_eq!(RuleId::UserAssertion.algorithm(), Some(1));
    assert_eq!(RuleId::UserAssertion.code(), "ASSERT");
}
