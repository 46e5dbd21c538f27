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
use std::fmt;

/// The kind of a scheduling event, with its kind-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
}
