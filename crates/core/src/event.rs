//! Scheduling events — the paper's `EVENTset` (§3.1, as refined in §3.3.1).
//!
//! The run-time operation of a monitor is modelled as a finite sequence of
//! scheduling events `L = l₁ l₂ … lₙ`, where each event is one of
//!
//! * `Enter(Pid, Pname, flag)` — the process invoked the `Enter`
//!   primitive; `flag = 1` means it was granted the monitor immediately,
//!   `flag = 0` means it was blocked on the entry queue `EQ`,
//! * `Wait(Pid, Pname, Cond)` — the process blocked itself on condition
//!   queue `CQ[Cond]` (releasing the monitor),
//! * `Signal-Exit(Pid, Pname, Cond, flag)` — the process exited the
//!   monitor, signalling `Cond`; `flag = 1` means a process waiting on
//!   `CQ[Cond]` was resumed and handed the monitor, `flag = 0` means the
//!   condition queue was empty (so the head of `EQ`, if any, was resumed),
//! * `Terminate(Pid)` — a marker that the process died while inside the
//!   monitor (the paper's *internal process termination fault* carrier;
//!   emitting it is optional, detection also works through the `Tmax`
//!   timer alone).
//!
//! §3.3.1 of the paper drops per-event wall times from the optimized
//! event set but still maintains `Timer(Pid)`. We keep a logical
//! timestamp on every event — the same information, simpler plumbing —
//! plus a global sequence number that fixes the total order `<L`.

use crate::ids::{CondId, MonitorId, Pid, PidProc, ProcName};
use crate::time::Nanos;
use crate::vclock::VClock;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a scheduling event, with its kind-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// The `Enter` primitive was invoked.
    Enter {
        /// The paper's flag: `true` if the process was granted the
        /// monitor immediately, `false` if it was queued on `EQ`.
        granted: bool,
    },
    /// The `Wait` primitive was invoked: the caller blocks on
    /// `CQ[cond]` and releases the monitor.
    Wait {
        /// The condition queue the caller joined.
        cond: CondId,
    },
    /// The combined `Signal-Exit` primitive was invoked: the caller
    /// leaves the monitor, signalling `cond` (if any).
    SignalExit {
        /// The condition signalled; `None` models a plain exit of a
        /// monitor without (or without naming) condition variables.
        cond: Option<CondId>,
        /// The paper's flag: `true` if a process waiting on the
        /// condition queue was resumed (and handed the monitor).
        resumed_waiter: bool,
    },
    /// The process terminated while inside the monitor.
    Terminate,
}

impl EventKind {
    /// Short machine-readable tag, used in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Enter { .. } => "Enter",
            EventKind::Wait { .. } => "Wait",
            EventKind::SignalExit { .. } => "Signal-Exit",
            EventKind::Terminate => "Terminate",
        }
    }
}

/// A single scheduling event `lᵢ` of the history sequence `L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Global sequence number; fixes the total order `<L` across all
    /// monitors watched by one recorder.
    pub seq: u64,
    /// Logical timestamp (virtual or wall-clock nanoseconds).
    pub time: Nanos,
    /// The monitor in which the event occurred.
    pub monitor: MonitorId,
    /// The invoking process (`Pid`).
    pub pid: Pid,
    /// The monitor procedure being executed (`Pname`).
    pub proc_name: ProcName,
    /// Which primitive was invoked, with its payload.
    pub kind: EventKind,
    /// Happens-before stamp attached at segment publication when the
    /// recorder runs with vector clocks enabled (see
    /// [`crate::vclock`]); [`VClock::UNSET`] otherwise. Unset clocks
    /// are sound everywhere: they order the event by `seq` alone.
    pub vc: VClock,
}

impl Event {
    /// Convenience constructor for an `Enter` event.
    pub fn enter(
        seq: u64,
        time: Nanos,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        granted: bool,
    ) -> Self {
        Event {
            seq,
            time,
            monitor,
            pid,
            proc_name,
            kind: EventKind::Enter { granted },
            vc: VClock::UNSET,
        }
    }

    /// Convenience constructor for a `Wait` event.
    pub fn wait(
        seq: u64,
        time: Nanos,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        cond: CondId,
    ) -> Self {
        Event {
            seq,
            time,
            monitor,
            pid,
            proc_name,
            kind: EventKind::Wait { cond },
            vc: VClock::UNSET,
        }
    }

    /// Convenience constructor for a `Signal-Exit` event.
    pub fn signal_exit(
        seq: u64,
        time: Nanos,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        cond: Option<CondId>,
        resumed_waiter: bool,
    ) -> Self {
        Event {
            seq,
            time,
            monitor,
            pid,
            proc_name,
            kind: EventKind::SignalExit { cond, resumed_waiter },
            vc: VClock::UNSET,
        }
    }

    /// Convenience constructor for a `Terminate` marker event.
    pub fn terminate(
        seq: u64,
        time: Nanos,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Self {
        Event { seq, time, monitor, pid, proc_name, kind: EventKind::Terminate, vc: VClock::UNSET }
    }

    /// The same event carrying a happens-before stamp.
    pub fn with_vc(mut self, vc: VClock) -> Self {
        self.vc = vc;
        self
    }

    /// Whether this event happens-before `other` in the recorded
    /// partial order.
    ///
    /// With real stamps on both sides the answer is the clock test
    /// `other.vc[slot(self)] ≥ self.vc[slot(self)]`; if either stamp is
    /// unset or saturated the events fall back to sequence order (the
    /// executed linearization), which is always a sound
    /// over-approximation of happens-before.
    pub fn happens_before(&self, other: &Event) -> bool {
        if self.seq == other.seq {
            return false;
        }
        match (self.vc.owner(), other.vc.owner()) {
            (Some(slot), Some(_)) => other.vc.get(slot) >= self.vc.get(slot),
            _ => self.seq < other.seq,
        }
    }

    /// The `(pid, proc)` pair of this event — the element the checking
    /// lists store.
    pub fn pid_proc(&self) -> PidProc {
        PidProc::new(self.pid, self.proc_name)
    }

    /// Whether this is an `Enter` event.
    pub fn is_enter(&self) -> bool {
        matches!(self.kind, EventKind::Enter { .. })
    }

    /// Whether this is a `Wait` event.
    pub fn is_wait(&self) -> bool {
        matches!(self.kind, EventKind::Wait { .. })
    }

    /// Whether this is a `Signal-Exit` event.
    pub fn is_signal_exit(&self) -> bool {
        matches!(self.kind, EventKind::SignalExit { .. })
    }
}

/// K-way merges per-source event streams into one sequence ordered by
/// [`Event::seq`] — the drain half of a sharded recording pipeline.
///
/// Each input stream must already be internally sorted by `seq` (true
/// by construction for a per-thread recording segment: every thread
/// pushes its events in the order it drew their sequence numbers from
/// the shared counter). Streams may interleave arbitrarily; the merge
/// restores the single total order `<L` the checking algorithms expect
/// from a globally locked recorder.
///
/// Empty streams are skipped; a single non-empty stream is returned
/// as-is (no copy beyond the move). The merge is a repeated min-head
/// selection — the stream count is the *thread* count, small enough
/// that a heap would cost more than it saves.
///
/// # Examples
///
/// ```
/// use rmon_core::event::merge_by_seq;
/// use rmon_core::{Event, MonitorId, Nanos, Pid, ProcName};
///
/// let e = |seq| Event::enter(seq, Nanos::new(seq), MonitorId::new(0), Pid::new(1), ProcName::new(0), true);
/// let merged = merge_by_seq(vec![vec![e(1), e(4)], vec![e(2), e(3)]]);
/// let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
/// assert_eq!(seqs, [1, 2, 3, 4]);
/// ```
pub fn merge_by_seq(mut streams: Vec<Vec<Event>>) -> Vec<Event> {
    streams.retain(|s| !s.is_empty());
    if streams.len() == 1 {
        return streams.pop().expect("one stream");
    }
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    merge_runs_by_seq(streams.iter().map(|s| [s.as_slice()]), &mut out);
    out
}

/// [`merge_by_seq`] over borrowed streams, appending to a buffer the
/// caller keeps: each stream is a sequence of *runs* (slices) whose
/// concatenation is sorted by `seq` — the shape of a recording segment,
/// a list of fixed-size chunks. Events are copied exactly once, from
/// their run into `out` (a caller that knows the total reserves it
/// first); a single non-empty stream is appended run by run without
/// any per-event comparison.
///
/// # Examples
///
/// ```
/// use rmon_core::event::merge_runs_by_seq;
/// use rmon_core::{Event, MonitorId, Nanos, Pid, ProcName};
///
/// let e = |seq| Event::enter(seq, Nanos::new(seq), MonitorId::new(0), Pid::new(1), ProcName::new(0), true);
/// let (a, b) = ([e(1), e(4)], [e(2), e(3), e(5)]);
/// let mut window = Vec::new();
/// // Two streams; the second arrives as two runs.
/// merge_runs_by_seq([vec![&a[..]], vec![&b[..2], &b[2..]]], &mut window);
/// let seqs: Vec<u64> = window.iter().map(|e| e.seq).collect();
/// assert_eq!(seqs, [1, 2, 3, 4, 5]);
/// ```
pub fn merge_runs_by_seq<'a, S>(streams: impl IntoIterator<Item = S>, out: &mut Vec<Event>)
where
    S: IntoIterator<Item = &'a [Event]>,
{
    // Per-stream cursors: the unread rest of the current run and the
    // runs behind it. Exhausted streams are swap-removed.
    let mut cursors: Vec<(&[Event], S::IntoIter)> = streams
        .into_iter()
        .filter_map(|stream| {
            let mut runs = stream.into_iter();
            let head = runs.find(|run| !run.is_empty())?;
            Some((head, runs))
        })
        .collect();
    if let [(head, runs)] = cursors.as_mut_slice() {
        out.extend_from_slice(head);
        for run in runs {
            out.extend_from_slice(run);
        }
        return;
    }
    while !cursors.is_empty() {
        let mut best = 0;
        let mut best_seq = cursors[0].0[0].seq;
        for (i, (head, _)) in cursors.iter().enumerate().skip(1) {
            if head[0].seq < best_seq {
                best = i;
                best_seq = head[0].seq;
            }
        }
        let (head, runs) = &mut cursors[best];
        out.push(head[0]);
        *head = &head[1..];
        if head.is_empty() {
            match runs.find(|run| !run.is_empty()) {
                Some(next) => *head = next,
                None => drop(cursors.swap_remove(best)),
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Enter { granted } => write!(
                f,
                "l{}@{} {}: Enter({}, {}, {})",
                self.seq, self.time, self.monitor, self.pid, self.proc_name, granted as u8
            ),
            EventKind::Wait { cond } => write!(
                f,
                "l{}@{} {}: Wait({}, {}, {})",
                self.seq, self.time, self.monitor, self.pid, self.proc_name, cond
            ),
            EventKind::SignalExit { cond, resumed_waiter } => {
                let c = match cond {
                    Some(c) => c.to_string(),
                    None => "-".to_string(),
                };
                write!(
                    f,
                    "l{}@{} {}: Signal-Exit({}, {}, {}, {})",
                    self.seq,
                    self.time,
                    self.monitor,
                    self.pid,
                    self.proc_name,
                    c,
                    resumed_waiter as u8
                )
            }
            EventKind::Terminate => write!(
                f,
                "l{}@{} {}: Terminate({}, {})",
                self.seq, self.time, self.monitor, self.pid, self.proc_name
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid() -> MonitorId {
        MonitorId::new(0)
    }

    #[test]
    fn constructors_set_kind() {
        let e = Event::enter(0, Nanos::ZERO, mid(), Pid::new(1), ProcName::new(0), true);
        assert!(e.is_enter());
        assert!(!e.is_wait());
        assert_eq!(e.kind, EventKind::Enter { granted: true });

        let w = Event::wait(1, Nanos::ZERO, mid(), Pid::new(1), ProcName::new(0), CondId::new(2));
        assert!(w.is_wait());
        assert_eq!(w.kind, EventKind::Wait { cond: CondId::new(2) });

        let x = Event::signal_exit(
            2,
            Nanos::ZERO,
            mid(),
            Pid::new(1),
            ProcName::new(0),
            Some(CondId::new(2)),
            true,
        );
        assert!(x.is_signal_exit());

        let t = Event::terminate(3, Nanos::ZERO, mid(), Pid::new(1), ProcName::new(0));
        assert_eq!(t.kind, EventKind::Terminate);
    }

    #[test]
    fn pid_proc_extraction() {
        let e = Event::enter(0, Nanos::ZERO, mid(), Pid::new(9), ProcName::new(3), false);
        assert_eq!(e.pid_proc(), PidProc::new(Pid::new(9), ProcName::new(3)));
    }

    #[test]
    fn display_formats_all_kinds() {
        let e = Event::enter(5, Nanos::new(10), mid(), Pid::new(1), ProcName::new(0), false);
        assert_eq!(e.to_string(), "l5@10ns M0: Enter(P1, proc#0, 0)");
        let w =
            Event::wait(6, Nanos::new(20), mid(), Pid::new(1), ProcName::new(0), CondId::new(1));
        assert!(w.to_string().contains("Wait(P1, proc#0, cond#1)"));
        let x = Event::signal_exit(
            7,
            Nanos::new(30),
            mid(),
            Pid::new(2),
            ProcName::new(1),
            None,
            false,
        );
        assert!(x.to_string().contains("Signal-Exit(P2, proc#1, -, 0)"));
        let t = Event::terminate(8, Nanos::new(40), mid(), Pid::new(2), ProcName::new(1));
        assert!(t.to_string().contains("Terminate(P2, proc#1)"));
    }

    #[test]
    fn tags() {
        assert_eq!(EventKind::Enter { granted: true }.tag(), "Enter");
        assert_eq!(EventKind::Wait { cond: CondId::new(0) }.tag(), "Wait");
        assert_eq!(
            EventKind::SignalExit { cond: None, resumed_waiter: false }.tag(),
            "Signal-Exit"
        );
        assert_eq!(EventKind::Terminate.tag(), "Terminate");
    }

    #[test]
    fn merge_by_seq_restores_total_order() {
        let e = |seq: u64| {
            Event::enter(seq, Nanos::new(seq), mid(), Pid::new(1), ProcName::new(0), true)
        };
        // Three interleaved streams, one empty.
        let merged =
            merge_by_seq(vec![vec![e(2), e(5), e(9)], vec![], vec![e(1), e(3)], vec![e(4), e(7)]]);
        let seqs: Vec<u64> = merged.iter().map(|ev| ev.seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5, 7, 9]);
        // Degenerate shapes.
        assert!(merge_by_seq(Vec::new()).is_empty());
        assert!(merge_by_seq(vec![Vec::new()]).is_empty());
        let single = merge_by_seq(vec![vec![e(8), e(11)]]);
        assert_eq!(single.len(), 2);
    }

    #[test]
    fn merge_runs_by_seq_appends_and_skips_empty_runs() {
        let e = |seq: u64| {
            Event::enter(seq, Nanos::new(seq), mid(), Pid::new(1), ProcName::new(0), true)
        };
        let (a, b, c) = ([e(2), e(5), e(9)], [e(1), e(3)], [e(4), e(7)]);
        let empty: &[Event] = &[];
        let seqs = |w: &[Event]| w.iter().map(|ev| ev.seq).collect::<Vec<u64>>();
        // Runs split anywhere, empty runs first, between and last; an
        // all-empty stream; output appended behind what is there.
        let mut out = vec![e(0)];
        merge_runs_by_seq(
            [
                vec![empty, &a[..1], empty, &a[1..]],
                vec![empty, empty],
                vec![&b[..], empty],
                vec![&c[..1], &c[1..]],
            ],
            &mut out,
        );
        assert_eq!(seqs(&out), [0, 1, 2, 3, 4, 5, 7, 9]);
        // One stream of several runs: appended run by run.
        let mut out = Vec::new();
        merge_runs_by_seq([vec![&a[..2], empty, &a[2..]]], &mut out);
        assert_eq!(seqs(&out), [2, 5, 9]);
        // Nothing at all.
        let mut out = Vec::new();
        merge_runs_by_seq(Vec::<Vec<&[Event]>>::new(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let e =
            Event::wait(6, Nanos::new(20), mid(), Pid::new(1), ProcName::new(0), CondId::new(1));
        let json = serde_json_like(&e);
        assert!(json.contains("Wait"));
    }

    /// Tiny stand-in so we don't need serde_json as a dev-dep: the debug
    /// formatting of the Serialize impl structure is enough to check the
    /// derive exists and compiles.
    fn serde_json_like<T: serde::Serialize + std::fmt::Debug>(t: &T) -> String {
        format!("{t:?}")
    }
}
