//! The taxonomy of monitor concurrency-control faults (§2.2).
//!
//! The paper identifies **twenty-one** faults on three levels:
//!
//! * **Implementation level** — malfunction of the monitor primitives
//!   themselves: four `Enter` faults, six `Wait` faults, three
//!   `Signal-Exit` faults, and the internal-process-termination fault.
//! * **Monitor procedure level** — procedure operations that leave the
//!   shared resource in an inconsistent state (the four integrity
//!   constraints of the communication-coordinator type).
//! * **User process level** — logic/design errors in *using* the
//!   monitor: violations of the declared partial ordering of procedure
//!   calls (resource-access-right-allocator type).
//!
//! Every fault maps to at least one state-transition rule
//! ([`crate::rule::RuleId`]) whose violation detects it; the registry
//! returned by [`taxonomy`] records that mapping, and the coverage
//! experiment (EXP-COV) validates it empirically.

use crate::rule::RuleId;
use std::fmt;

/// The three levels of the fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultLevel {
    /// Faults in the implementation of the monitor primitives.
    Implementation,
    /// Faults in monitor procedures that corrupt resource state.
    MonitorProcedure,
    /// Faults in user processes' use of the monitor.
    UserProcess,
}

impl fmt::Display for FaultLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultLevel::Implementation => "implementation",
            FaultLevel::MonitorProcedure => "monitor-procedure",
            FaultLevel::UserProcess => "user-process",
        };
        f.write_str(s)
    }
}

/// The 21 concurrency-control fault classes of §2.2.
///
/// Naming: `E*` = Enter procedure faults, `W*` = Wait procedure faults,
/// `X*` = Signal-Exit procedure faults, `T1` = internal termination,
/// `P*` = monitor-procedure-level faults, `U*` = user-process-level
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// I.a.1 — Mutual exclusion is not guaranteed: two or more processes
    /// have entered the monitor at the same time.
    EnterMutualExclusion,
    /// I.a.2 — The requesting process is lost: neither queued on `EQ`
    /// nor admitted.
    EnterProcessLost,
    /// I.a.3 — The requesting process receives no response: queued
    /// indefinitely, or blocked while the monitor is free.
    EnterNoResponse,
    /// I.a.4 — Entry is not observed: a process runs inside the monitor
    /// without having invoked `Enter`.
    EnterNotObserved,
    /// I.b.1 — Synchronization is not guaranteed: the caller of `Wait`
    /// is not blocked and continues to run inside the monitor.
    WaitNotBlocked,
    /// I.b.2 — The calling process is lost: neither queued on the
    /// condition nor running.
    WaitProcessLost,
    /// I.b.3 — Entry waiting processes are not resumed when the caller
    /// of `Wait` blocks.
    WaitEntryNotResumed,
    /// I.b.4 — An entry-waiting process is starved: never resumed,
    /// waits indefinitely.
    WaitEntryStarved,
    /// I.b.5 — Mutual exclusion is not guaranteed: more than one
    /// entry-waiting process resumed when the caller blocks.
    WaitMutualExclusion,
    /// I.b.6 — The monitor is not released although the caller of
    /// `Wait` blocked on the condition queue.
    WaitMonitorNotReleased,
    /// I.c.1 — No waiting process (condition or entry) is resumed when
    /// the caller exits.
    SignalExitNotResumed,
    /// I.c.2 — The caller exits but the monitor is not released.
    SignalExitMonitorNotReleased,
    /// I.c.3 — Mutual exclusion is not guaranteed: more than one
    /// process resumed on exit.
    SignalExitMutualExclusion,
    /// I.d — Internal process termination: the process terminates inside
    /// the monitor and never exits.
    InternalTermination,
    /// II.a — `Send` delayed although the buffer is not full, or not
    /// delayed although it is full.
    SendDelayViolation,
    /// II.b — `Receive` delayed although the buffer is not empty, or
    /// not delayed although it is empty.
    ReceiveDelayViolation,
    /// II.c — Successful `Receive` calls exceed successful `Send`
    /// calls (`r > s`).
    ReceiveExceedsSend,
    /// II.d — Successful `Send` calls exceed buffer capacity plus
    /// successful `Receive` calls (`s > r + Rmax`).
    SendExceedsCapacity,
    /// III.a — Ordering of monitor procedure calls is incorrect: a
    /// process releases a resource it never acquired.
    ReleaseWithoutAcquire,
    /// III.b — Resource is not released: a process never releases a
    /// resource after acquiring it.
    ResourceNeverReleased,
    /// III.c — Process is deadlocked: it re-acquires a resource it
    /// already holds without releasing it first.
    DoubleAcquire,
}

impl FaultKind {
    /// All 21 fault classes, in taxonomy order.
    pub const ALL: [FaultKind; 21] = [
        FaultKind::EnterMutualExclusion,
        FaultKind::EnterProcessLost,
        FaultKind::EnterNoResponse,
        FaultKind::EnterNotObserved,
        FaultKind::WaitNotBlocked,
        FaultKind::WaitProcessLost,
        FaultKind::WaitEntryNotResumed,
        FaultKind::WaitEntryStarved,
        FaultKind::WaitMutualExclusion,
        FaultKind::WaitMonitorNotReleased,
        FaultKind::SignalExitNotResumed,
        FaultKind::SignalExitMonitorNotReleased,
        FaultKind::SignalExitMutualExclusion,
        FaultKind::InternalTermination,
        FaultKind::SendDelayViolation,
        FaultKind::ReceiveDelayViolation,
        FaultKind::ReceiveExceedsSend,
        FaultKind::SendExceedsCapacity,
        FaultKind::ReleaseWithoutAcquire,
        FaultKind::ResourceNeverReleased,
        FaultKind::DoubleAcquire,
    ];

    /// Short identifier used in tables (`E1`…`E4`, `W1`…`W6`,
    /// `X1`…`X3`, `T1`, `P1`…`P4`, `U1`…`U3`).
    pub fn code(self) -> &'static str {
        match self {
            FaultKind::EnterMutualExclusion => "E1",
            FaultKind::EnterProcessLost => "E2",
            FaultKind::EnterNoResponse => "E3",
            FaultKind::EnterNotObserved => "E4",
            FaultKind::WaitNotBlocked => "W1",
            FaultKind::WaitProcessLost => "W2",
            FaultKind::WaitEntryNotResumed => "W3",
            FaultKind::WaitEntryStarved => "W4",
            FaultKind::WaitMutualExclusion => "W5",
            FaultKind::WaitMonitorNotReleased => "W6",
            FaultKind::SignalExitNotResumed => "X1",
            FaultKind::SignalExitMonitorNotReleased => "X2",
            FaultKind::SignalExitMutualExclusion => "X3",
            FaultKind::InternalTermination => "T1",
            FaultKind::SendDelayViolation => "P1",
            FaultKind::ReceiveDelayViolation => "P2",
            FaultKind::ReceiveExceedsSend => "P3",
            FaultKind::SendExceedsCapacity => "P4",
            FaultKind::ReleaseWithoutAcquire => "U1",
            FaultKind::ResourceNeverReleased => "U2",
            FaultKind::DoubleAcquire => "U3",
        }
    }

    /// The taxonomy level of this fault.
    pub fn level(self) -> FaultLevel {
        use FaultKind::*;
        match self {
            EnterMutualExclusion
            | EnterProcessLost
            | EnterNoResponse
            | EnterNotObserved
            | WaitNotBlocked
            | WaitProcessLost
            | WaitEntryNotResumed
            | WaitEntryStarved
            | WaitMutualExclusion
            | WaitMonitorNotReleased
            | SignalExitNotResumed
            | SignalExitMonitorNotReleased
            | SignalExitMutualExclusion
            | InternalTermination => FaultLevel::Implementation,
            SendDelayViolation
            | ReceiveDelayViolation
            | ReceiveExceedsSend
            | SendExceedsCapacity => FaultLevel::MonitorProcedure,
            ReleaseWithoutAcquire | ResourceNeverReleased | DoubleAcquire => {
                FaultLevel::UserProcess
            }
        }
    }

    /// The state-transition rules whose violation detects this fault
    /// (primary rule first).
    pub fn detected_by(self) -> &'static [RuleId] {
        use FaultKind::*;
        use RuleId::*;
        match self {
            EnterMutualExclusion => &[St3RunningUnique, St3RunningAtMostOne],
            EnterProcessLost => &[St1EntrySnapshot, St6EntryTimeout],
            EnterNoResponse => &[St3BlockedWhileFree, St6EntryTimeout],
            EnterNotObserved => &[St3RunningIsCaller],
            WaitNotBlocked => &[St4NoGhostEvents],
            WaitProcessLost => &[St2CondSnapshot, St5InsideTimeout],
            WaitEntryNotResumed => &[St1EntrySnapshot, St6EntryTimeout],
            WaitEntryStarved => &[St3RunningIsCaller, St6EntryTimeout],
            WaitMutualExclusion => &[St3RunningAtMostOne, St3RunningIsCaller],
            WaitMonitorNotReleased => &[St1EntrySnapshot, St6EntryTimeout],
            SignalExitNotResumed => {
                &[St1EntrySnapshot, St2CondSnapshot, St5InsideTimeout, St6EntryTimeout]
            }
            SignalExitMonitorNotReleased => &[St1EntrySnapshot, St6EntryTimeout],
            SignalExitMutualExclusion => &[St3RunningAtMostOne, St3RunningIsCaller],
            InternalTermination => &[St5InsideTimeout],
            SendDelayViolation => &[St7WaitSendBufferFull, St7CountInvariant],
            ReceiveDelayViolation => &[St7WaitReceiveBufferEmpty, St7CountInvariant],
            ReceiveExceedsSend => &[St7CountInvariant],
            SendExceedsCapacity => &[St7CountInvariant],
            ReleaseWithoutAcquire => &[St8ReleaseWithoutRequest, St8CallOrder],
            ResourceNeverReleased => &[St8HoldTimeout],
            DoubleAcquire => &[St8DuplicateRequest, St8CallOrder],
        }
    }

    /// One-line description (paper wording, condensed).
    pub fn description(self) -> &'static str {
        use FaultKind::*;
        match self {
            EnterMutualExclusion => "two or more processes entered the monitor at the same time",
            EnterProcessLost => "requesting process neither queued nor admitted",
            EnterNoResponse => {
                "requesting process queued indefinitely or blocked while monitor is free"
            }
            EnterNotObserved => "process runs inside the monitor without invoking Enter",
            WaitNotBlocked => "caller of Wait not blocked; continues inside the monitor",
            WaitProcessLost => "caller of Wait neither queued on the condition nor running",
            WaitEntryNotResumed => "no entry-queue process resumed when the caller blocked",
            WaitEntryStarved => "an entry-queue process is never resumed",
            WaitMutualExclusion => "more than one entry-queue process resumed on Wait",
            WaitMonitorNotReleased => {
                "caller blocked on the condition but the monitor was not released"
            }
            SignalExitNotResumed => "no waiting process resumed when the caller exited",
            SignalExitMonitorNotReleased => "caller exited but the monitor was not released",
            SignalExitMutualExclusion => "more than one process resumed on exit",
            InternalTermination => "process terminated inside the monitor without exiting",
            SendDelayViolation => "Send delayed iff the buffer is full was violated",
            ReceiveDelayViolation => "Receive delayed iff the buffer is empty was violated",
            ReceiveExceedsSend => "successful Receives exceed successful Sends",
            SendExceedsCapacity => "successful Sends exceed capacity plus successful Receives",
            ReleaseWithoutAcquire => "process releases a resource it never acquired",
            ResourceNeverReleased => "process never releases an acquired resource",
            DoubleAcquire => "process re-acquires a held resource (self-deadlock)",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.description())
    }
}

/// One entry of the taxonomy registry.
#[derive(Debug, Clone)]
pub struct FaultInfo {
    /// The fault class.
    pub kind: FaultKind,
    /// Short code (`E1` …).
    pub code: &'static str,
    /// Taxonomy level.
    pub level: FaultLevel,
    /// Rules whose violation detects the fault.
    pub detected_by: &'static [RuleId],
    /// One-line description.
    pub description: &'static str,
}

/// The complete fault-taxonomy registry, in paper order.
pub fn taxonomy() -> Vec<FaultInfo> {
    FaultKind::ALL
        .iter()
        .map(|&kind| FaultInfo {
            kind,
            code: kind.code(),
            level: kind.level(),
            detected_by: kind.detected_by(),
            description: kind.description(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn taxonomy_has_21_faults() {
        assert_eq!(FaultKind::ALL.len(), 21);
        assert_eq!(taxonomy().len(), 21);
    }

    #[test]
    fn codes_are_unique() {
        let codes: BTreeSet<_> = FaultKind::ALL.iter().map(|f| f.code()).collect();
        assert_eq!(codes.len(), 21);
    }

    #[test]
    fn level_split_matches_paper() {
        let impl_count =
            FaultKind::ALL.iter().filter(|f| f.level() == FaultLevel::Implementation).count();
        let proc_count =
            FaultKind::ALL.iter().filter(|f| f.level() == FaultLevel::MonitorProcedure).count();
        let user_count =
            FaultKind::ALL.iter().filter(|f| f.level() == FaultLevel::UserProcess).count();
        // 4 Enter + 6 Wait + 3 Signal-Exit + 1 termination = 14.
        assert_eq!(impl_count, 14);
        assert_eq!(proc_count, 4);
        assert_eq!(user_count, 3);
    }

    #[test]
    fn every_fault_is_detected_by_some_rule() {
        for f in FaultKind::ALL {
            assert!(!f.detected_by().is_empty(), "{} has no detection rule", f.code());
        }
    }

    #[test]
    fn descriptions_are_nonempty_and_lowercase_style() {
        for f in FaultKind::ALL {
            let d = f.description();
            assert!(!d.is_empty());
            assert!(!d.ends_with('.'), "{d:?} should not end with punctuation");
        }
    }

    #[test]
    fn display_contains_code() {
        let s = FaultKind::DoubleAcquire.to_string();
        assert!(s.starts_with("U3:"), "{s}");
    }

    #[test]
    fn registry_is_consistent_with_methods() {
        for info in taxonomy() {
            assert_eq!(info.code, info.kind.code());
            assert_eq!(info.level, info.kind.level());
            assert_eq!(info.detected_by, info.kind.detected_by());
        }
    }
}
