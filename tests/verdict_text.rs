//! Verdict text, pinned. Two windowed drives through an
//! [`InlineBackend`] — the faulty allocator fleet and a hand-written
//! bounded-buffer trace that reaches every per-event verdict site —
//! must render the `(monitor, pid, event, rule, message)` lines in
//! `tests/golden/`, which hold the text the engine produced when it
//! still formatted every message eagerly, so any drift in a `Detail`'s
//! rendering fails here. Every verdict must come back equal to itself
//! through the journal codec and the wire, and the faulty drive must
//! not allocate per verdict: a verdict carries its detail as data, and
//! only ST-3b copies a list (the Running-List it prints).

use rmon::core::oplog::{decode_record, encode_record, Record};
use rmon::core::{CondId, HlcStamp, ProcName, ProcRole, ProcedureSpec};
use rmon::net::{decode_envelope, encode_envelope, Envelope, Msg};
use rmon::prelude::*;
use rmon::workloads::sweep::allocator_fleet_trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Counts this thread's heap allocations (fresh blocks and reallocs).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations a checkpointing window may make besides ST-3b's list
/// copies: the report's and the drained verdicts' vectors growing, each
/// monitor's pending window regrowing (two doublings for eight events),
/// and in the first window the per-caller maps. The fleet drive makes
/// about 36 a window; one string per verdict would add about 100.
const ALLOCATIONS_PER_WINDOW: u64 = 48;

/// One windowed drive: every verdict in emission order, the windows
/// checkpointed, and the allocations made inside the backend calls.
struct Drive {
    verdicts: Vec<Violation>,
    windows: u64,
    allocations: u64,
}

/// Registers `specs` on a fresh inline backend and drives `events`
/// through one producer handle in `window`-event windows, each closed
/// by `checkpoint_window` and `drain_violations`. Only the last window
/// compares against `snapshots`.
fn drive(
    specs: &HashMap<MonitorId, Arc<MonitorSpec>>,
    events: &[Event],
    window: usize,
    end: Nanos,
    snapshots: &HashMap<MonitorId, MonitorState>,
) -> Drive {
    let backend = InlineBackend::new(DetectorConfig::without_timeouts());
    let mut ids: Vec<_> = specs.keys().copied().collect();
    ids.sort();
    for id in ids {
        backend.register_empty(id, Arc::clone(&specs[&id]), Nanos::ZERO);
    }
    let none = HashMap::new();
    let mut producer = backend.producer();
    let mut out = Drive { verdicts: Vec::new(), windows: 0, allocations: 0 };
    let windows = events.chunks(window).count();
    for (i, chunk) in events.chunks(window).enumerate() {
        let last = i + 1 == windows;
        let (now, snapshots) =
            if last { (end, snapshots) } else { (chunk[chunk.len() - 1].time, &none) };
        let before = allocations();
        for event in chunk {
            producer.observe(*event);
        }
        producer.flush();
        let report = backend.checkpoint_window(now, chunk, snapshots);
        let realtime = backend.drain_violations();
        out.allocations += allocations() - before;
        out.windows += 1;
        out.verdicts.extend(report.violations);
        out.verdicts.extend(realtime);
    }
    out
}

/// `allocator_fleet_trace(8, 8, 1)` in 64-event windows.
fn fleet_drive() -> Drive {
    let fleet = allocator_fleet_trace(8, 8, 1);
    drive(&fleet.specs, &fleet.events, 64, fleet.end_time, &fleet.snapshots)
}

/// A bounded buffer of capacity 2 whose hand-built declaration also
/// names an access-right pair under a call order, so one coordinator
/// reaches all fifteen per-event verdict sites.
fn coordinator_spec() -> Arc<MonitorSpec> {
    let mut spec = MonitorSpec::bounded_buffer("buf", 2).spec;
    for (name, role) in [("acquire", ProcRole::Request), ("release", ProcRole::Release)] {
        spec.procedures.push(ProcedureSpec { name: name.into(), role });
    }
    spec.call_order =
        Some(PathExpr::parse("path (send | receive | acquire ; release)* end").unwrap());
    Arc::new(spec)
}

/// Builds a trace with consecutive sequence numbers, 10 ns apart.
struct Trace {
    monitor: MonitorId,
    events: Vec<Event>,
}

impl Trace {
    fn next(&self) -> (u64, Nanos) {
        let seq = self.events.len() as u64 + 1;
        (seq, Nanos::new(seq * 10))
    }
    fn enter(&mut self, pid: u32, proc_name: u16, granted: bool) -> &mut Self {
        let (seq, t) = self.next();
        let (pid, proc_name) = (Pid::new(pid), ProcName::new(proc_name));
        self.events.push(Event::enter(seq, t, self.monitor, pid, proc_name, granted));
        self
    }
    fn wait(&mut self, pid: u32, proc_name: u16, cond: u16) -> &mut Self {
        let (seq, t) = self.next();
        let (pid, proc_name) = (Pid::new(pid), ProcName::new(proc_name));
        self.events.push(Event::wait(seq, t, self.monitor, pid, proc_name, CondId::new(cond)));
        self
    }
    fn exit(&mut self, pid: u32, proc_name: u16, cond: Option<u16>, resumed: bool) -> &mut Self {
        let (seq, t) = self.next();
        let (pid, proc_name, cond) =
            (Pid::new(pid), ProcName::new(proc_name), cond.map(CondId::new));
        self.events.push(Event::signal_exit(seq, t, self.monitor, pid, proc_name, cond, resumed));
        self
    }
    fn terminate(&mut self, pid: u32, proc_name: u16) -> &mut Self {
        let (seq, t) = self.next();
        let (pid, proc_name) = (Pid::new(pid), ProcName::new(proc_name));
        self.events.push(Event::terminate(seq, t, self.monitor, pid, proc_name));
        self
    }
}

/// The hand-written coordinator trace in one window, against a final
/// snapshot that disagrees with the replay.
fn coordinator_drive() -> Drive {
    const SEND: u16 = 0;
    const RECEIVE: u16 = 1;
    const ACQUIRE: u16 = 2;
    const RELEASE: u16 = 3;
    const FULL: u16 = 0;
    const EMPTY: u16 = 1;
    let monitor = MonitorId::new(0);
    let mut t = Trace { monitor, events: Vec::new() };
    // ST-3d, then ST-4 (entry queue), ST-3b (empty Running-List), ST-7c.
    t.enter(1, SEND, false).wait(1, SEND, FULL).exit(1, SEND, None, false);
    // ST-7d, then ST-4 (condition queue) and ST-3b again.
    t.enter(2, RECEIVE, true).wait(2, RECEIVE, EMPTY).exit(2, RECEIVE, Some(EMPTY), false);
    // ST-2 (phantom waiter) and ST-7a (r > s).
    t.enter(3, RECEIVE, true).exit(3, RECEIVE, Some(FULL), true);
    // ST-7a (s > r + Rmax) on the fourth send.
    for _ in 0..4 {
        t.enter(4, SEND, true).exit(4, SEND, Some(EMPTY), false);
    }
    // ST-3c and ST-3a, ST-3b with two processes running, ST-5.
    t.enter(5, SEND, true).enter(6, RECEIVE, true).wait(6, RECEIVE, EMPTY).terminate(5, SEND);
    // ST-8* with ST-8a, ST-8* with ST-8b, ST-8* on an undeclared procedure.
    t.enter(7, ACQUIRE, true).exit(7, ACQUIRE, None, false).enter(7, ACQUIRE, false);
    t.enter(8, RELEASE, true).enter(9, 7, true);
    let end = t.next().1;
    let specs = HashMap::from([(monitor, coordinator_spec())]);
    let snapshots = HashMap::from([(monitor, MonitorState::with_resources(2, 1))]);
    drive(&specs, &t.events, 64, end, &snapshots)
}

fn line(v: &Violation) -> String {
    let pid = v.pid.map_or_else(|| "-".to_owned(), |p| p.to_string());
    let seq = v.event_seq.map_or_else(|| "-".to_owned(), |s| format!("l{s}"));
    format!("{} {pid} {seq} {} {}", v.monitor, v.rule, v.message)
}

fn assert_golden(drive: &Drive, golden: &str) {
    let got: Vec<String> = drive.verdicts.iter().map(line).collect();
    let want: Vec<&str> = golden.lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "verdict {i}");
    }
    assert_eq!(got.len(), want.len(), "verdict count");
}

#[test]
fn fleet_verdicts_render_the_golden_text() {
    assert_golden(&fleet_drive(), include_str!("golden/verdict_text_fleet.txt"));
}

#[test]
fn coordinator_verdicts_render_the_golden_text() {
    assert_golden(&coordinator_drive(), include_str!("golden/verdict_text_coordinator.txt"));
}

#[test]
fn coordinator_trace_reaches_every_per_event_site() {
    let drive = coordinator_drive();
    let sites: std::collections::HashSet<_> = drive
        .verdicts
        .iter()
        .filter(|v| v.event_seq.is_some())
        .map(|v| std::mem::discriminant(&v.message))
        .collect();
    // Fifteen per-event sites render fifteen kinds of detail.
    assert_eq!(
        sites.len(),
        15,
        "{}",
        drive.verdicts.iter().map(line).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn verdicts_come_back_equal_through_the_journal_and_the_wire() {
    for drive in [fleet_drive(), coordinator_drive()] {
        let verdicts = drive.verdicts;
        let record = Record::Realtime(verdicts.clone());
        match decode_record(&encode_record(&record)).expect("journal decode") {
            Record::Realtime(back) => assert_eq!(back, verdicts),
            other => panic!("decoded {other:?}"),
        }
        let hlc = HlcStamp { physical: Nanos::new(1), logical: 0 };
        let env = Envelope { seq: 0, hlc, msg: Msg::Verdicts(verdicts.clone()) };
        match decode_envelope(&encode_envelope(&env)).expect("wire decode").msg {
            Msg::Verdicts(back) => assert_eq!(back, verdicts),
            other => panic!("decoded {other:?}"),
        }
    }
}

#[test]
fn faulty_drive_does_not_allocate_per_verdict() {
    let drive = fleet_drive();
    let st3b = drive.verdicts.iter().filter(|v| v.rule == RuleId::St3RunningIsCaller).count();
    let bound = st3b as u64 + ALLOCATIONS_PER_WINDOW * drive.windows;
    assert!(
        drive.allocations <= bound,
        "{} allocations for {} verdicts ({st3b} ST-3b) over {} windows; bound {bound}",
        drive.allocations,
        drive.verdicts.len(),
        drive.windows
    );
}
