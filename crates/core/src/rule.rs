//! Rule identifiers: the paper's FD-Rules (§3.2) and ST-Rules (§3.3.2).
//!
//! The **FD-Rules** are declarative properties of a *valid scheduling
//! sequence* `⟨L, S⟩`; they are checked directly by the reference checker
//! ([`crate::reference`]). The **ST-Rules** are the equivalent
//! state-transition formulation over the checking lists; they are checked
//! incrementally by the detection algorithms ([`crate::detect`]). The
//! paper proves any FD violation implies an ST violation; our property
//! tests exercise that equivalence.

use std::fmt;

/// Identifier of a detection rule.
///
/// The `St*` variants are what the three detection algorithms report;
/// the `Fd*` variants are what the full-history reference checker
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    // ----- ST-Rules (incremental engine) -------------------------------
    /// ST-1: at a checkpoint the replayed Enter-Q-List must equal the
    /// observed `EQ`.
    St1EntrySnapshot,
    /// ST-2: at a checkpoint each replayed Wait-Cond-List must equal the
    /// observed `CQ[cond]`.
    St2CondSnapshot,
    /// ST-3a: at any time `|Running-List| ≤ 1`.
    St3RunningAtMostOne,
    /// ST-3b/3c: the process performing `Wait`/`Signal-Exit` — or that
    /// just completed `Enter(1)` — must be exactly the running process.
    St3RunningIsCaller,
    /// ST-3c for granted entry: after `Enter(pid, 1)` the Running-List
    /// must be `{pid}` (catches two-inside states).
    St3RunningUnique,
    /// ST-3d: when `Enter(pid, 0)` blocks a process, some process must
    /// be running inside (`|Running-List| = 1`).
    St3BlockedWhileFree,
    /// ST-4: the process issuing an event must not currently be parked
    /// on the entry queue or any condition queue.
    St4NoGhostEvents,
    /// ST-5: no process stays inside the monitor (running or on a
    /// condition queue) longer than `Tmax`.
    St5InsideTimeout,
    /// ST-6: no process waits on the entry queue longer than `Tio`.
    St6EntryTimeout,
    /// ST-7a/b: `0 ≤ r ≤ s ≤ r + Rmax` and
    /// `R#(t) = R#(p) + r − s`.
    St7CountInvariant,
    /// ST-7c: `Wait` by a Send-role procedure on the buffer-full
    /// condition requires `Resource-No = 0`.
    St7WaitSendBufferFull,
    /// ST-7d: `Wait` by a Receive-role procedure on the buffer-empty
    /// condition requires `Resource-No = Rmax`.
    St7WaitReceiveBufferEmpty,
    /// ST-8a: no process may appear twice in the Request-List.
    St8DuplicateRequest,
    /// ST-8b: a `Release` caller must be in the Request-List.
    St8ReleaseWithoutRequest,
    /// ST-8c: no process stays in the Request-List longer than
    /// `Tlimit`.
    St8HoldTimeout,
    /// ST-8 generalized: a call violates the declared path-expression
    /// call order.
    St8CallOrder,
    /// A user-supplied state assertion declared on the monitor failed
    /// at a checkpoint (the paper's §5 extension).
    UserAssertion,

    // ----- FD-Rules (reference checker) --------------------------------
    /// FD-1a: a process enters only when no process uses the monitor.
    Fd1aMutualExclusion,
    /// FD-1b: a releasing `Wait`/`Signal-Exit` resumes exactly one
    /// entry-queue process when `EQ` is non-empty.
    Fd1bEntryHandoff,
    /// FD-1c: `Signal-Exit(flag=1)` resumes exactly one process from
    /// the signalled condition queue.
    Fd1cCondHandoff,
    /// FD-1d: every process operating inside a monitor has called
    /// `Enter`.
    Fd1dEnterObserved,
    /// FD-2: every entered process exits within `Tmax`.
    Fd2Nontermination,
    /// FD-3: a requesting process is delayed only when the monitor is in
    /// use.
    Fd3FairResponse,
    /// FD-4: no starvation / lost process: every blocked process is
    /// resumed within `Tio` and queue lengths change consistently.
    Fd4NoStarvation,
    /// FD-5a: a condition waiter is resumed only by a matching
    /// `Signal` on that condition.
    Fd5aCondResume,
    /// FD-5b: an entry waiter is resumed only by a `Wait` or a
    /// non-signalling exit.
    Fd5bEntryResume,
    /// FD-6: communication-coordinator resource invariants
    /// (`0 ≤ r ≤ s ≤ r + Rmax`, wait-on-full/empty conditions).
    Fd6ResourceConsistency,
    /// FD-7: correct ordering of Request/Release procedure calls.
    Fd7CallOrdering,
}

impl RuleId {
    /// All ST-rule identifiers.
    pub const ST_RULES: [RuleId; 17] = [
        RuleId::St1EntrySnapshot,
        RuleId::St2CondSnapshot,
        RuleId::St3RunningAtMostOne,
        RuleId::St3RunningIsCaller,
        RuleId::St3RunningUnique,
        RuleId::St3BlockedWhileFree,
        RuleId::St4NoGhostEvents,
        RuleId::St5InsideTimeout,
        RuleId::St6EntryTimeout,
        RuleId::St7CountInvariant,
        RuleId::St7WaitSendBufferFull,
        RuleId::St7WaitReceiveBufferEmpty,
        RuleId::St8DuplicateRequest,
        RuleId::St8ReleaseWithoutRequest,
        RuleId::St8HoldTimeout,
        RuleId::St8CallOrder,
        RuleId::UserAssertion,
    ];

    /// All FD-rule identifiers.
    pub const FD_RULES: [RuleId; 11] = [
        RuleId::Fd1aMutualExclusion,
        RuleId::Fd1bEntryHandoff,
        RuleId::Fd1cCondHandoff,
        RuleId::Fd1dEnterObserved,
        RuleId::Fd2Nontermination,
        RuleId::Fd3FairResponse,
        RuleId::Fd4NoStarvation,
        RuleId::Fd5aCondResume,
        RuleId::Fd5bEntryResume,
        RuleId::Fd6ResourceConsistency,
        RuleId::Fd7CallOrdering,
    ];

    /// Short identifier, e.g. `"ST-3a"` or `"FD-6"`.
    pub fn code(self) -> &'static str {
        use RuleId::*;
        match self {
            St1EntrySnapshot => "ST-1",
            St2CondSnapshot => "ST-2",
            St3RunningAtMostOne => "ST-3a",
            St3RunningIsCaller => "ST-3b",
            St3RunningUnique => "ST-3c",
            St3BlockedWhileFree => "ST-3d",
            St4NoGhostEvents => "ST-4",
            St5InsideTimeout => "ST-5",
            St6EntryTimeout => "ST-6",
            St7CountInvariant => "ST-7ab",
            St7WaitSendBufferFull => "ST-7c",
            St7WaitReceiveBufferEmpty => "ST-7d",
            St8DuplicateRequest => "ST-8a",
            St8ReleaseWithoutRequest => "ST-8b",
            St8HoldTimeout => "ST-8c",
            St8CallOrder => "ST-8*",
            UserAssertion => "ASSERT",
            Fd1aMutualExclusion => "FD-1a",
            Fd1bEntryHandoff => "FD-1b",
            Fd1cCondHandoff => "FD-1c",
            Fd1dEnterObserved => "FD-1d",
            Fd2Nontermination => "FD-2",
            Fd3FairResponse => "FD-3",
            Fd4NoStarvation => "FD-4",
            Fd5aCondResume => "FD-5a",
            Fd5bEntryResume => "FD-5b",
            Fd6ResourceConsistency => "FD-6",
            Fd7CallOrdering => "FD-7",
        }
    }

    /// Whether this is an incremental (ST) rule.
    pub fn is_st(self) -> bool {
        Self::ST_RULES.contains(&self)
    }

    /// Whether this is a reference (FD) rule.
    pub fn is_fd(self) -> bool {
        Self::FD_RULES.contains(&self)
    }

    /// Which detection algorithm reports this ST rule (1, 2 or 3);
    /// `None` for FD rules.
    pub fn algorithm(self) -> Option<u8> {
        use RuleId::*;
        match self {
            St1EntrySnapshot | St2CondSnapshot | St3RunningAtMostOne | St3RunningIsCaller
            | St3RunningUnique | St3BlockedWhileFree | St4NoGhostEvents | St5InsideTimeout
            | St6EntryTimeout => Some(1),
            St7CountInvariant | St7WaitSendBufferFull | St7WaitReceiveBufferEmpty => Some(2),
            St8DuplicateRequest | St8ReleaseWithoutRequest | St8HoldTimeout | St8CallOrder => {
                Some(3)
            }
            // Assertions are checked by the engine alongside
            // Algorithm-1's snapshot comparison.
            UserAssertion => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_are_unique() {
        let mut all: Vec<RuleId> = RuleId::ST_RULES.to_vec();
        all.extend(RuleId::FD_RULES);
        let codes: BTreeSet<_> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn st_fd_partition() {
        for r in RuleId::ST_RULES {
            assert!(r.is_st());
            assert!(!r.is_fd());
            assert!(r.algorithm().is_some(), "{r} must belong to an algorithm");
        }
        for r in RuleId::FD_RULES {
            assert!(r.is_fd());
            assert!(!r.is_st());
            assert_eq!(r.algorithm(), None);
        }
    }

    #[test]
    fn three_algorithms_cover_all_st_rules() {
        let algs: BTreeSet<_> = RuleId::ST_RULES.iter().filter_map(|r| r.algorithm()).collect();
        assert_eq!(algs, BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn display_is_code() {
        assert_eq!(RuleId::St3RunningAtMostOne.to_string(), "ST-3a");
        assert_eq!(RuleId::Fd6ResourceConsistency.to_string(), "FD-6");
    }
}
