//! Stress and equivalence tests for the sharded recording pipeline:
//! N producer threads × M monitors hammering one [`Recorder`], with a
//! concurrent drainer, checked for (a) per-pid sequence monotonicity
//! across window boundaries, (b) zero lost or duplicated events after
//! the drain merges, and (c) violation sequences identical to a
//! globally-locked reference recorder fed the same logical trace.
//!
//! Every scenario runs twice: windows taken with
//! [`Recorder::drain_window`], and windows taken with
//! [`Recorder::hand_over`] and merged only after every producer has
//! finished — each [`Handover`] read long after its writers pushed on
//! into the chunks it shares with them, which is what a checkpoint
//! that resumes the monitors before it merges does.

use rmon_core::detect::Detector;
use rmon_core::{
    DetectorConfig, Event, EventKind, MonitorId, MonitorSpec, Nanos, Pid, ProcName, RuleId, VClock,
};
use rmon_rt::{Handover, Recorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const THREADS: u32 = 4;
const MONITORS: u32 = 6;
const ROUNDS: u32 = 200;

/// How a scenario takes its windows out of the recorder.
#[derive(Clone, Copy, Debug)]
enum Take {
    /// Hand-over and merge back to back.
    Drained,
    /// Hand-over now, merge when the producers are done.
    HandedOver,
}

/// The windows a scenario took, in order, merged or not yet.
#[derive(Default)]
struct Taken {
    merged: Vec<Vec<Event>>,
    deferred: Vec<Handover>,
}

impl Taken {
    fn take(&mut self, recorder: &Recorder, how: Take) {
        match how {
            Take::Drained => {
                let window = recorder.drain_window();
                if !window.is_empty() {
                    self.merged.push(window);
                }
            }
            Take::HandedOver => {
                let window = recorder.hand_over();
                if !window.is_empty() {
                    self.deferred.push(window);
                }
            }
        }
    }

    /// Every window in the order taken (a scenario uses one mode, so
    /// at most one of the two lists is populated).
    fn into_windows(self) -> Vec<Vec<Event>> {
        let mut windows = self.merged;
        for handover in self.deferred {
            let mut window = Vec::new();
            let len = handover.len();
            handover.merge_into(&mut window);
            assert_eq!(window.len(), len, "a hand-over knows its size");
            windows.push(window);
        }
        windows
    }
}

/// The allocator spec shared by every monitor in the stress fleet.
fn allocator() -> (Arc<MonitorSpec>, ProcName, ProcName) {
    let al = MonitorSpec::allocator("res", 1);
    (Arc::new(al.spec.clone()), al.request, al.release)
}

/// A minimal stand-in for the pre-pipeline recorder: one global mutex
/// around the sequence counter and the window, exactly the structure
/// the sharded pipeline replaced. Used as the behavioural reference.
#[derive(Default)]
struct LockedRecorder {
    inner: Mutex<(u64, Vec<Event>)>,
}

impl LockedRecorder {
    fn record(&self, monitor: MonitorId, pid: Pid, proc_name: ProcName, kind: EventKind) {
        let mut g = self.inner.lock().unwrap();
        g.0 += 1;
        let seq = g.0;
        let event = Event {
            seq,
            time: Nanos::new(seq * 10),
            monitor,
            pid,
            proc_name,
            kind,
            vc: VClock::UNSET,
        };
        g.1.push(event);
    }

    fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.inner.lock().unwrap().1)
    }
}

/// Runs the deterministic faulty allocator script for one thread:
/// every round on every monitor requests, duplicates the request
/// (fault U3), releases, then double-releases (fault U1). The
/// per-(monitor, pid) event sequence — and therefore the per-caller
/// Algorithm-3 verdict sequence — is a pure function of this script,
/// independent of cross-thread interleaving.
fn drive(
    record: &impl Fn(MonitorId, Pid, ProcName, EventKind),
    pid: Pid,
    request: ProcName,
    release: ProcName,
) {
    for round in 0..ROUNDS {
        for m in 0..MONITORS {
            let monitor = MonitorId::new(m);
            record(monitor, pid, request, EventKind::Enter { granted: true });
            if round % 3 == 0 {
                // U3: duplicate request while holding the right.
                record(monitor, pid, request, EventKind::Enter { granted: false });
            }
            record(
                monitor,
                pid,
                request,
                EventKind::SignalExit { cond: None, resumed_waiter: false },
            );
            record(monitor, pid, release, EventKind::Enter { granted: true });
            record(
                monitor,
                pid,
                release,
                EventKind::SignalExit { cond: None, resumed_waiter: false },
            );
            if round % 4 == 0 {
                // U1: release without a preceding request.
                record(monitor, pid, release, EventKind::Enter { granted: false });
            }
        }
    }
}

/// Events each thread produces per run of the script.
fn events_per_thread() -> u64 {
    let mut n = 0u64;
    for round in 0..ROUNDS {
        n += u64::from(MONITORS) * 4;
        if round % 3 == 0 {
            n += u64::from(MONITORS);
        }
        if round % 4 == 0 {
            n += u64::from(MONITORS);
        }
    }
    n
}

/// Groups the violation rule sequences by `(monitor, pid)` in event
/// order — the per-caller verdict streams the detection backends
/// guarantee to be interleaving-independent.
fn verdicts_by_caller(events: &[Event]) -> HashMap<(MonitorId, Pid), Vec<RuleId>> {
    let (spec, _, _) = allocator();
    let mut det = Detector::new(DetectorConfig::without_timeouts());
    for m in 0..MONITORS {
        det.register_empty(MonitorId::new(m), Arc::clone(&spec), Nanos::ZERO);
    }
    let violations = det.observe_batch(events);
    let mut by_caller: HashMap<(MonitorId, Pid), Vec<RuleId>> = HashMap::new();
    for v in violations {
        by_caller
            .entry((v.monitor, v.pid.expect("order violations carry a pid")))
            .or_default()
            .push(v.rule);
    }
    by_caller
}

#[test]
fn stress_no_lost_events_and_per_pid_monotonicity() {
    no_lost_events_and_per_pid_monotonicity(Take::Drained);
}

#[test]
fn stress_no_lost_events_and_per_pid_monotonicity_handed_over() {
    no_lost_events_and_per_pid_monotonicity(Take::HandedOver);
}

fn no_lost_events_and_per_pid_monotonicity(how: Take) {
    let recorder = Arc::new(Recorder::new());
    let (_, request, release) = allocator();
    let stop = Arc::new(AtomicBool::new(false));

    // A concurrent drainer: windows taken mid-stream must each be
    // seq-sorted, and their union must be gapless at the end.
    let drainer = {
        let recorder = Arc::clone(&recorder);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut taken = Taken::default();
            while !stop.load(Ordering::Acquire) {
                taken.take(&recorder, how);
                std::thread::yield_now();
            }
            taken
        })
    };

    let mut producers = Vec::new();
    for t in 0..THREADS {
        let recorder = Arc::clone(&recorder);
        producers.push(std::thread::spawn(move || {
            let pid = Pid::new(t + 1);
            let record = |m: MonitorId, p: Pid, pr: ProcName, k: EventKind| {
                recorder.record(m, p, pr, k);
            };
            drive(&record, pid, request, release);
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let mut taken = drainer.join().unwrap();
    taken.take(&recorder, how);
    let expected = u64::from(THREADS) * events_per_thread();
    assert_eq!(recorder.total(), expected);
    assert_eq!(recorder.pending(), 0, "{how:?}: a window taken is a window gone");

    let mut all: Vec<Event> = Vec::new();
    for w in taken.into_windows() {
        assert!(w.windows(2).all(|p| p[0].seq < p[1].seq), "each window is seq-sorted");
        all.extend_from_slice(&w);
    }

    // No lost and no duplicated events: seqs are exactly 1..=expected.
    assert_eq!(all.len() as u64, expected, "drained union covers every recorded event");
    let mut seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len() as u64, expected, "no duplicate seq");
    assert_eq!(seqs.first().copied(), Some(1));
    assert_eq!(seqs.last().copied(), Some(expected));

    // Per-pid monotonicity in drain order across window boundaries:
    // concatenating the windows, each pid's seqs strictly increase —
    // the FIFO precondition the detection backends rely on.
    let mut last_seq: HashMap<Pid, u64> = HashMap::new();
    for e in &all {
        let last = last_seq.entry(e.pid).or_insert(0);
        assert!(e.seq > *last, "pid {} went backwards: {} after {}", e.pid, e.seq, last);
        *last = e.seq;
    }
}

/// The clock-attaching recorder under the same concurrency pattern:
/// four producer threads with a concurrent drainer. Publication must
/// stay lossless, every published event must carry a stamp, and the
/// stamps must be consistent with the sequence order — within one
/// thread consecutive events are strictly clock-ordered, and across
/// threads every clock-ordered pair agrees with `seq` (the recorder
/// draws `seq` and the clock under the same lock, so the executed
/// total order is a linear extension of happens-before).
#[test]
fn stress_clocked_recorder_stamps_are_consistent_with_seq_order() {
    clocked_recorder_stamps_are_consistent_with_seq_order(Take::Drained);
}

#[test]
fn stress_clocked_recorder_stamps_are_consistent_with_seq_order_handed_over() {
    clocked_recorder_stamps_are_consistent_with_seq_order(Take::HandedOver);
}

fn clocked_recorder_stamps_are_consistent_with_seq_order(how: Take) {
    const CLOCK_ROUNDS: u32 = 50;
    const CLOCK_MONITORS: u32 = 2;
    let recorder = Arc::new(Recorder::with_clocks());
    assert!(recorder.clocks_enabled());
    let (_, request, release) = allocator();
    let stop = Arc::new(AtomicBool::new(false));

    let drainer = {
        let recorder = Arc::clone(&recorder);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut taken = Taken::default();
            while !stop.load(Ordering::Acquire) {
                taken.take(&recorder, how);
                std::thread::yield_now();
            }
            taken
        })
    };

    let mut producers = Vec::new();
    for t in 0..THREADS {
        let recorder = Arc::clone(&recorder);
        producers.push(std::thread::spawn(move || {
            let pid = Pid::new(t + 1);
            for _ in 0..CLOCK_ROUNDS {
                for m in 0..CLOCK_MONITORS {
                    let monitor = MonitorId::new(m);
                    recorder.record(monitor, pid, request, EventKind::Enter { granted: true });
                    recorder.record(
                        monitor,
                        pid,
                        request,
                        EventKind::SignalExit { cond: None, resumed_waiter: false },
                    );
                    recorder.record(monitor, pid, release, EventKind::Enter { granted: true });
                    recorder.record(
                        monitor,
                        pid,
                        release,
                        EventKind::SignalExit { cond: None, resumed_waiter: false },
                    );
                }
            }
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let mut taken = drainer.join().unwrap();
    taken.take(&recorder, how);

    // Lossless under concurrent drains, exactly as the unclocked one.
    let mut all: Vec<Event> = taken.into_windows().into_iter().flatten().collect();
    let expected = u64::from(THREADS) * u64::from(CLOCK_ROUNDS) * u64::from(CLOCK_MONITORS) * 4;
    assert_eq!(all.len() as u64, expected);
    let mut seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len() as u64, expected, "no lost or duplicated events");
    assert_eq!(seqs.last().copied(), Some(expected));

    // Every published event carries a set, unsaturated stamp (four
    // threads fit the clock capacity).
    assert!(all.iter().all(|e| e.vc.is_set() && !e.vc.is_saturated()));

    // Same-thread events are strictly clock-ordered in seq order.
    all.sort_unstable_by_key(|e| e.seq);
    let mut last_of: HashMap<Pid, &Event> = HashMap::new();
    for e in &all {
        if let Some(prev) = last_of.insert(e.pid, e) {
            assert_eq!(
                prev.vc.partial_cmp(&e.vc),
                Some(std::cmp::Ordering::Less),
                "pid {}: stamp of l{} must precede l{}",
                e.pid,
                prev.seq,
                e.seq
            );
        }
    }

    // Across all pairs: clock order never contradicts seq order — the
    // executed schedule is a linear extension of happens-before.
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert_ne!(
                a.vc.partial_cmp(&b.vc),
                Some(std::cmp::Ordering::Greater),
                "l{} is stamped after l{} but sequenced before it",
                a.seq,
                b.seq
            );
        }
    }
}

#[test]
fn stress_violations_match_locked_reference_recorder() {
    violations_match_locked_reference_recorder(Take::Drained);
    violations_match_locked_reference_recorder(Take::HandedOver);
}

fn violations_match_locked_reference_recorder(how: Take) {
    // The same logical trace through the sharded pipeline and through
    // the old global-mutex shape: per-(monitor, pid) verdict sequences
    // must be identical.
    let recorder = Arc::new(Recorder::new());
    let reference = Arc::new(LockedRecorder::default());
    let (_, request, release) = allocator();

    let mut producers = Vec::new();
    for t in 0..THREADS {
        let recorder = Arc::clone(&recorder);
        let reference = Arc::clone(&reference);
        producers.push(std::thread::spawn(move || {
            let pid = Pid::new(100 + t);
            let record = |m: MonitorId, p: Pid, pr: ProcName, k: EventKind| {
                recorder.record(m, p, pr, k);
                reference.record(m, p, pr, k);
            };
            drive(&record, pid, request, release);
        }));
    }
    for p in producers {
        p.join().unwrap();
    }

    let mut taken = Taken::default();
    taken.take(&recorder, how);
    let pipeline_events = taken.into_windows().pop().expect("one window");
    let reference_events = reference.drain();
    assert_eq!(pipeline_events.len(), reference_events.len());

    let got = verdicts_by_caller(&pipeline_events);
    let want = verdicts_by_caller(&reference_events);
    assert!(!want.is_empty(), "the script must provoke violations");
    assert!(
        want.values().flatten().any(|r| *r == RuleId::St8DuplicateRequest),
        "duplicate requests must be flagged"
    );
    assert_eq!(got, want, "per-caller verdict sequences must match the locked recorder");
}
