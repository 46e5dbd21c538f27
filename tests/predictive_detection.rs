//! The seeded-schedule prediction campaign: the acceptance proof of
//! predictive detection over the happens-before partial order.
//!
//! Each seeded schedule below executes **clean** — Algorithms 1–3 and
//! every timer stay silent on the schedule as it ran — yet an
//! *equivalent reordering* (another legal linearization of the recorded
//! partial order) violates an ST rule. With
//! [`PredictMode::Checkpoint`] the detector must flag the hidden
//! violation and hand back a **witness** linearization, which the
//! campaign validates against the recorded partial order with
//! [`is_legal_linearization`]. Race-free control schedules (no blocked
//! entry attempt, hence a unique linearization) must predict nothing,
//! and prediction stays strictly opt-in: the default configuration
//! never runs it.
//!
//! The campaign runs at two levels: deterministic seeded windows driven
//! through `DetectionBackend::checkpoint_window` on every backend, and
//! a real-thread run on an rt [`Runtime`] whose recorder attaches the
//! vector clocks at segment publication.

use rmon::core::detect::predict::{is_legal_linearization, Annotation};
use rmon::core::oplog::Record;
use rmon::core::spec::AllocatorSpec;
use rmon::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const M: MonitorId = MonitorId::new(0);

/// Seeded schedule #1 — one unit, two processes, contended: P1
/// requests and releases; P2's entry attempt *blocks* while P1 is in
/// `release` (the window's only concurrency), then P2 acquires and
/// releases. Clean as executed; the blocked attempt commutes.
fn contended_schedule() -> (AllocatorSpec, Vec<Event>) {
    let al = MonitorSpec::allocator("res", 1);
    let p1 = Pid::new(1);
    let p2 = Pid::new(2);
    let t = Nanos::new;
    let w = vec![
        Event::enter(1, t(10), M, p1, al.request, true),
        Event::signal_exit(2, t(20), M, p1, al.request, None, false),
        Event::enter(3, t(30), M, p1, al.release, true),
        Event::enter(4, t(40), M, p2, al.request, false),
        Event::signal_exit(5, t(50), M, p1, al.release, Some(al.avail_cond), false),
        Event::signal_exit(6, t(60), M, p2, al.request, None, false),
        Event::enter(7, t(70), M, p2, al.release, true),
        Event::signal_exit(8, t(80), M, p2, al.release, None, false),
    ];
    (al, w)
}

/// Control schedule — the same calls without contention: P2 starts
/// after P1 fully finished and every entry is granted immediately, so
/// the recorded partial order is total and nothing commutes.
fn sequential_schedule() -> (AllocatorSpec, Vec<Event>) {
    let al = MonitorSpec::allocator("res", 1);
    let p1 = Pid::new(1);
    let p2 = Pid::new(2);
    let t = Nanos::new;
    let w = vec![
        Event::enter(1, t(10), M, p1, al.request, true),
        Event::signal_exit(2, t(20), M, p1, al.request, None, false),
        Event::enter(3, t(30), M, p1, al.release, true),
        Event::signal_exit(4, t(40), M, p1, al.release, None, false),
        Event::enter(5, t(50), M, p2, al.request, true),
        Event::signal_exit(6, t(60), M, p2, al.request, None, false),
        Event::enter(7, t(70), M, p2, al.release, true),
        Event::signal_exit(8, t(80), M, p2, al.release, None, false),
    ];
    (al, w)
}

/// Runs one seeded window through a backend's explicit-window
/// checkpoint, exactly as a synchronous barrier would.
fn run_window(backend: &dyn DetectionBackend, al: &AllocatorSpec, w: &[Event]) -> FaultReport {
    let conds = al.spec.cond_count();
    backend.register(
        M,
        Arc::new(al.spec.clone()),
        &MonitorState::with_resources(conds, 1),
        Nanos::ZERO,
    );
    let snapshots: HashMap<MonitorId, MonitorState> =
        [(M, MonitorState::with_resources(conds, 1))].into();
    backend.checkpoint_window(Nanos::new(90), w, &snapshots)
}

fn predict_cfg(t_limit: Nanos) -> DetectorConfig {
    DetectorConfig::builder()
        .t_max(Nanos::MAX)
        .t_io(Nanos::MAX)
        .t_limit(t_limit)
        .predict(PredictMode::Checkpoint)
        .build()
}

/// The executed contended schedule is clean, but commuting P2's blocked
/// request to the front of the window stretches its hold past `Tlimit`:
/// the checkpoint must predict the ST-8c violation with a legal
/// witness.
#[test]
fn hidden_hold_timeout_is_predicted_with_a_valid_witness() {
    let (al, w) = contended_schedule();
    // Executed holds are 40 ns each, under the 50 ns limit; the
    // feasible reordering holds for 70 ns.
    let backend = InlineBackend::new(predict_cfg(Nanos::new(50)));
    let report = run_window(&backend, &al, &w);
    assert!(report.violations.is_empty(), "executed run must be clean: {report}");
    assert!(report.has_predictions());

    let hold: Vec<&PredictedViolation> = report.predicted_by_rule(RuleId::St8HoldTimeout).collect();
    assert_eq!(hold.len(), 1, "{report}");
    assert_eq!(hold[0].violation.pid, Some(Pid::new(2)));
    assert_eq!(hold[0].violation.event_seq, Some(4), "the blocked request is the hold start");

    let ann = Annotation::over_window(&w);
    assert!(is_legal_linearization(&hold[0].witness, &w, &ann), "{:?}", hold[0].witness);
    assert_eq!(hold[0].witness[0], 4, "the witness schedules the blocked request first");
}

/// The same window under a lax `Tlimit`: the executed global call
/// sequence conforms to `path (request ; release)*`, but the blocked
/// request commutes before P1's release — `request · request` — and
/// the search must surface both feasible offenders, each with a legal
/// witness.
#[test]
fn hidden_call_order_violation_is_predicted_with_a_valid_witness() {
    let (al, w) = contended_schedule();
    let backend = InlineBackend::new(predict_cfg(Nanos::MAX));
    let report = run_window(&backend, &al, &w);
    assert!(report.violations.is_empty(), "executed run must be clean: {report}");

    let order: Vec<&PredictedViolation> = report.predicted_by_rule(RuleId::St8CallOrder).collect();
    let seqs: Vec<_> = order.iter().map(|p| p.violation.event_seq).collect();
    assert_eq!(seqs, vec![Some(1), Some(4)], "{report}");

    let ann = Annotation::over_window(&w);
    for p in &order {
        assert!(is_legal_linearization(&p.witness, &w, &ann), "{:?}", p.witness);
    }
    // The second witness realizes the commutation: the blocked request
    // (l4) overtakes P1's release call (l3).
    let witness = &order[1].witness;
    let pos = |s: u64| witness.iter().position(|&x| x == s).unwrap();
    assert!(pos(4) < pos(3), "{witness:?}");
}

/// Race-free control: the sequential schedule admits exactly one
/// linearization, so prediction must stay silent — both when the run
/// is entirely clean and when the *executed* schedule itself violates
/// (an executed violation is the real-time timer's finding and must
/// not be re-reported as a prediction).
#[test]
fn race_free_control_schedules_predict_nothing() {
    let (al, w) = sequential_schedule();

    // Entirely clean run.
    let backend = InlineBackend::new(predict_cfg(Nanos::new(50)));
    let report = run_window(&backend, &al, &w);
    assert!(report.violations.is_empty(), "{report}");
    assert!(!report.has_predictions(), "{report}");

    // A hold that is still open — and already over Tlimit — at
    // checkpoint time is the *executed* hold timer's finding, and
    // prediction must not re-report it.
    let held = &w[..2]; // P1 requested at t=10 and still holds at t=90.
    let backend = InlineBackend::new(predict_cfg(Nanos::new(15)));
    let conds = al.spec.cond_count();
    backend.register(
        M,
        Arc::new(al.spec.clone()),
        &MonitorState::with_resources(conds, 1),
        Nanos::ZERO,
    );
    let snapshots: HashMap<MonitorId, MonitorState> =
        [(M, MonitorState::with_resources(conds, 0))].into();
    let report = backend.checkpoint_window(Nanos::new(90), held, &snapshots);
    assert!(
        report.violations.iter().any(|v| v.rule == RuleId::St8HoldTimeout),
        "executed hold timer must fire: {report}"
    );
    assert!(!report.has_predictions(), "{report}");
}

/// Prediction is opt-in: the default configuration leaves it off, and
/// the contended schedule — which hides two predictable violations —
/// yields an empty predicted set.
#[test]
fn prediction_is_strictly_opt_in() {
    assert_eq!(DetectorConfig::default().predict, PredictMode::Off);
    let (al, w) = contended_schedule();
    let backend = InlineBackend::new(DetectorConfig::builder().t_limit(Nanos::new(50)).build());
    let report = run_window(&backend, &al, &w);
    assert!(report.violations.is_empty(), "{report}");
    assert!(!report.has_predictions(), "prediction must be off by default: {report}");
}

/// Every backend runs the same predictive pass: sharded and scheduled
/// checkpoints agree with the inline verdict on the seeded schedules.
#[test]
fn all_backends_agree_on_the_predicted_set() {
    type Signature = (RuleId, Option<Pid>, Option<u64>, Vec<u64>);
    fn signature(report: &FaultReport) -> Vec<Signature> {
        report
            .predicted
            .iter()
            .map(|p| (p.violation.rule, p.violation.pid, p.violation.event_seq, p.witness.clone()))
            .collect()
    }
    let (al, w) = contended_schedule();
    let inline = InlineBackend::new(predict_cfg(Nanos::new(50)));
    let want = signature(&run_window(&inline, &al, &w));
    assert!(!want.is_empty());
    inline.shutdown();

    let backends: Vec<(&str, Box<dyn DetectionBackend>)> = vec![
        (
            "sharded",
            Box::new(ShardedBackend::new(predict_cfg(Nanos::new(50)), ServiceConfig::new(2))),
        ),
        (
            "scheduled",
            Box::new(ScheduledBackend::new(
                predict_cfg(Nanos::new(50)),
                ServiceConfig::new(2),
                SchedulerConfig::new(Duration::from_secs(3600)),
            )),
        ),
    ];
    for (name, backend) in backends {
        let report = run_window(backend.as_ref(), &al, &w);
        assert_eq!(signature(&report), want, "{name}");
        backend.shutdown();
    }
}

// ---------------------------------------------------------------------
// Real threads: the recorder's carried clocks drive the same campaign
// ---------------------------------------------------------------------

/// Replays the contended schedule on real threads: thread A requests
/// and releases the single unit, holding the monitor open long enough
/// for thread B's entry attempt to block, and each hold is padded so
/// the *executed* holds stay under `Tlimit` while the feasible
/// reordering (B's blocked request commuted to the window's start)
/// exceeds it. The recorder attaches vector clocks at publication; the
/// checkpoint must predict the hidden ST-8c violation and its witness
/// must be a legal linearization of the durably journaled window.
#[test]
fn rt_campaign_predicts_across_real_threads() {
    const HOLD: Duration = Duration::from_millis(200);
    let t_limit = Nanos::from_millis(330);

    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder(predict_cfg(t_limit))
        .park_timeout(Duration::from_secs(10))
        .journal(Arc::clone(&sink))
        .build();
    let al = MonitorSpec::allocator("res", 1);
    let mon = Arc::new(Monitor::new(&rt, al.spec.clone(), ()));
    let monitor = mon.id();

    // A: acquire the unit, keep it for HOLD without occupying the
    // monitor itself.
    let guard = mon.enter(al.request).expect("A requests");
    guard.signal_exit(None);
    std::thread::sleep(HOLD);

    // A enters `release` and keeps the monitor busy until B's entry
    // attempt has observably blocked.
    let guard = mon.enter(al.release).expect("A releases");
    let (started_tx, started_rx) = mpsc::channel();
    let b = std::thread::spawn({
        let mon = Arc::clone(&mon);
        let al = al.clone();
        move || {
            started_tx.send(()).unwrap();
            // Blocks: A is inside the monitor.
            let g = mon.enter(al.request).expect("B requests");
            g.signal_exit(None);
            std::thread::sleep(HOLD);
            let g = mon.enter(al.release).expect("B releases");
            g.signal_exit(None);
        }
    });
    started_rx.recv().unwrap();
    while mon.snapshot().entry_queue.is_empty() {
        std::thread::yield_now();
    }
    guard.signal_exit(Some(al.avail_cond));
    b.join().unwrap();

    let report = rt.checkpoint_now();

    // Executed holds are ~HOLD each — under Tlimit; the span of the
    // window is ~2·HOLD — over it. The executed run is clean of hold
    // timeouts, the prediction is not.
    assert!(
        report.violations.iter().all(|v| v.rule != RuleId::St8HoldTimeout),
        "executed holds must stay under Tlimit: {report}"
    );
    let hold: Vec<&PredictedViolation> = report.predicted_by_rule(RuleId::St8HoldTimeout).collect();
    assert_eq!(hold.len(), 1, "{report}");

    // Reconstruct the journaled window and validate the witness
    // against the partial order the recorder actually published.
    let window: Vec<Event> = sink
        .records()
        .iter()
        .filter_map(|r| match r {
            Record::Events(events) => Some(events.clone()),
            _ => None,
        })
        .flatten()
        .filter(|e| e.monitor == monitor)
        .collect();
    assert!(
        window.iter().all(|e| e.vc.is_set()),
        "the predict-enabled recorder must stamp every event"
    );
    assert!(
        window.iter().any(|e| matches!(e.kind, EventKind::Enter { granted: false })),
        "B's entry attempt must have blocked: {window:?}"
    );
    let ann = Annotation::over_window(&window);
    assert!(is_legal_linearization(&hold[0].witness, &window, &ann), "{:?}", hold[0].witness);
    // The witness front-runs B's blocked request.
    let blocked =
        window.iter().find(|e| matches!(e.kind, EventKind::Enter { granted: false })).unwrap();
    assert_eq!(hold[0].violation.event_seq, Some(blocked.seq));
    assert_eq!(hold[0].witness[0], blocked.seq);
}

/// Real-thread control: the same calls executed strictly one after the
/// other never block, the recorded order is total, and a
/// predict-enabled runtime reports nothing — executed or predicted.
#[test]
fn rt_race_free_run_predicts_nothing() {
    let rt = Runtime::builder(predict_cfg(Nanos::from_millis(330)))
        .park_timeout(Duration::from_secs(10))
        .build();
    let al = MonitorSpec::allocator("res", 1);
    let mon = Arc::new(Monitor::new(&rt, al.spec.clone(), ()));

    for _ in 0..2 {
        let handle = std::thread::spawn({
            let mon = Arc::clone(&mon);
            let al = al.clone();
            move || {
                let g = mon.enter(al.request).expect("requests");
                g.signal_exit(None);
                let g = mon.enter(al.release).expect("releases");
                g.signal_exit(None);
            }
        });
        handle.join().unwrap();
    }

    let report = rt.checkpoint_now();
    assert!(report.violations.is_empty(), "{report}");
    assert!(!report.has_predictions(), "{report}");
}
