//! User-supplied state assertions — the paper's §5 extension:
//! *"Extensions can be made to allow predefined and user-supplied
//! assertions to be specified as part of monitor declarations and used
//! for checking the functional operations and external use of the
//! monitors."*
//!
//! A [`StateAssertion`] is a declarative predicate over the observed
//! scheduling state `⟨EQ, CQ[], Running, R#⟩`, declared alongside the
//! monitor and evaluated by the periodic checking routine at every
//! checkpoint. Violations are reported under
//! [`crate::RuleId::UserAssertion`].

use crate::ids::{CondId, MonitorId, Pid};
use crate::rule::RuleId;
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::violation::Violation;
use std::fmt;

/// A declarative predicate over an observed monitor state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateAssertion {
    /// `|EQ| ≤ n`: bounded entry-queue backlog.
    EntryQueueAtMost(usize),
    /// `|CQ[cond]| ≤ n`: bounded condition-queue backlog.
    CondQueueAtMost {
        /// The condition queue.
        cond: CondId,
        /// The bound.
        at_most: usize,
    },
    /// `R# ≤ n`: the resource counter never exceeds a bound (e.g. the
    /// declared capacity).
    AvailableAtMost(u64),
    /// `R# ≥ n`: a floor on the resource counter (e.g. a reserve that
    /// must never be exhausted).
    AvailableAtLeast(u64),
    /// Total processes captured by the snapshot stays bounded.
    PopulationAtMost(usize),
    /// A specific process must never appear inside this monitor
    /// (confinement).
    ExcludesPid(Pid),
}

impl StateAssertion {
    /// Evaluates the predicate; `None` when it holds, otherwise a
    /// human-readable description of the failure.
    pub fn check(&self, state: &MonitorState) -> Option<String> {
        match *self {
            StateAssertion::EntryQueueAtMost(n) => (state.entry_len() > n).then(|| {
                format!("entry queue holds {} processes (asserted ≤ {n})", state.entry_len())
            }),
            StateAssertion::CondQueueAtMost { cond, at_most } => {
                let len = state.cond_len(cond.as_usize());
                (len > at_most)
                    .then(|| format!("{cond} holds {len} processes (asserted ≤ {at_most})"))
            }
            StateAssertion::AvailableAtMost(n) => state
                .available
                .and_then(|a| (a > n).then(|| format!("R# = {a} exceeds asserted maximum {n}"))),
            StateAssertion::AvailableAtLeast(n) => state
                .available
                .and_then(|a| (a < n).then(|| format!("R# = {a} below asserted minimum {n}"))),
            StateAssertion::PopulationAtMost(n) => (state.population() > n)
                .then(|| format!("{} processes captured (asserted ≤ {n})", state.population())),
            StateAssertion::ExcludesPid(pid) => state
                .contains(pid)
                .then(|| format!("{pid} appears in a monitor it is excluded from")),
        }
    }

    /// Evaluates against a snapshot, producing a violation on failure.
    pub fn check_into(
        &self,
        monitor: MonitorId,
        state: &MonitorState,
        now: Nanos,
        out: &mut Vec<Violation>,
    ) {
        if let Some(message) = self.check(state) {
            out.push(Violation::new(
                monitor,
                RuleId::UserAssertion,
                now,
                format!("assertion {self} failed: {message}"),
            ));
        }
    }
}

impl fmt::Display for StateAssertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StateAssertion::EntryQueueAtMost(n) => write!(f, "|EQ| ≤ {n}"),
            StateAssertion::CondQueueAtMost { cond, at_most } => {
                write!(f, "|CQ[{cond}]| ≤ {at_most}")
            }
            StateAssertion::AvailableAtMost(n) => write!(f, "R# ≤ {n}"),
            StateAssertion::AvailableAtLeast(n) => write!(f, "R# ≥ {n}"),
            StateAssertion::PopulationAtMost(n) => write!(f, "population ≤ {n}"),
            StateAssertion::ExcludesPid(p) => write!(f, "excludes {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PidProc, ProcName};

    fn state_with(eq: usize, avail: Option<u64>) -> MonitorState {
        let mut s = MonitorState::new(2);
        for i in 0..eq {
            s.entry_queue.push(PidProc::new(Pid::new(i as u32), ProcName::new(0)));
        }
        s.available = avail;
        s
    }

    #[test]
    fn entry_queue_bound() {
        let a = StateAssertion::EntryQueueAtMost(2);
        assert!(a.check(&state_with(2, None)).is_none());
        assert!(a.check(&state_with(3, None)).is_some());
    }

    #[test]
    fn cond_queue_bound() {
        let a = StateAssertion::CondQueueAtMost { cond: CondId::new(1), at_most: 0 };
        let mut s = state_with(0, None);
        assert!(a.check(&s).is_none());
        s.cond_queues[1].push(PidProc::new(Pid::new(9), ProcName::new(0)));
        assert!(a.check(&s).is_some());
    }

    #[test]
    fn available_bounds() {
        let hi = StateAssertion::AvailableAtMost(4);
        let lo = StateAssertion::AvailableAtLeast(1);
        assert!(hi.check(&state_with(0, Some(4))).is_none());
        assert!(hi.check(&state_with(0, Some(5))).is_some());
        assert!(lo.check(&state_with(0, Some(1))).is_none());
        assert!(lo.check(&state_with(0, Some(0))).is_some());
        // Monitors without a counter trivially satisfy both.
        assert!(hi.check(&state_with(0, None)).is_none());
        assert!(lo.check(&state_with(0, None)).is_none());
    }

    #[test]
    fn population_and_exclusion() {
        let pop = StateAssertion::PopulationAtMost(1);
        assert!(pop.check(&state_with(1, None)).is_none());
        assert!(pop.check(&state_with(2, None)).is_some());
        let ex = StateAssertion::ExcludesPid(Pid::new(0));
        assert!(ex.check(&state_with(1, None)).is_some());
        assert!(ex.check(&state_with(0, None)).is_none());
    }

    #[test]
    fn check_into_produces_user_assertion_violations() {
        let a = StateAssertion::EntryQueueAtMost(0);
        let mut out = Vec::new();
        a.check_into(MonitorId::new(3), &state_with(1, None), Nanos::new(9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RuleId::UserAssertion);
        assert!(out[0].message.to_string().contains("|EQ| ≤ 0"), "{}", out[0].message);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(StateAssertion::AvailableAtLeast(2).to_string(), "R# ≥ 2");
        assert_eq!(StateAssertion::PopulationAtMost(7).to_string(), "population ≤ 7");
    }
}
