//! Output checks. Every workload counts what it attempted and what
//! failed; the result line's `failed` ÷ `attempted` is the issue's
//! `failed_share`, and `correct` is `failed == 0`. A failing check
//! says which one it was on standard error.

use rmon_core::Violation;
use rmon_storage::replay::VerdictKey;
use rmon_storage::verdict_keys;

/// Running tally of one run's checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations, events and comparisons attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
}

impl Checks {
    /// Counts `n` operations named `what`, of which `failed` returned
    /// an error or a wrong value.
    pub fn operations(&mut self, what: &str, n: u64, failed: u64) {
        if failed > 0 {
            eprintln!("check failed: {what}: {failed} of {n}");
        }
        self.attempted += n;
        self.failed += failed;
    }

    /// The lossless check: of `offered` events, `ingested` must have
    /// reached the checking side — neither fewer nor more.
    pub fn lossless(&mut self, what: &str, offered: u64, ingested: u64) {
        self.operations(what, offered, offered.abs_diff(ingested));
    }

    /// The verdict check: the multiset `(monitor, pid, event_seq,
    /// rule)` of `got` must equal `reference`. Every verdict missing
    /// from or surplus to the reference is one failure.
    pub fn verdicts(&mut self, what: &str, reference: &[VerdictKey], got: &[Violation]) {
        let got = verdict_keys(got);
        let compared = reference.len().max(got.len()) as u64;
        self.operations(what, compared, multiset_distance(reference, &got));
    }

    /// One yes/no condition (a clean report, `replay.matches()`, …).
    pub fn require(&mut self, what: &str, holds: bool) {
        self.operations(what, 1, u64::from(!holds));
    }

    /// Folds another tally, already reported, into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Size of the symmetric difference of two **sorted** multisets.
fn multiset_distance<T: Ord>(a: &[T], b: &[T]) -> u64 {
    let (mut i, mut j, mut distance) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                distance += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                distance += 1;
            }
        }
    }
    distance + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::{MonitorId, Nanos, Pid, RuleId};

    fn verdict(monitor: u32, seq: u64) -> Violation {
        let mut v =
            Violation::new(MonitorId::new(monitor), RuleId::St8HoldTimeout, Nanos::ZERO, "t");
        v.pid = Some(Pid::new(1));
        v.event_seq = Some(seq);
        v
    }

    #[test]
    fn equal_verdict_sets_pass_in_any_order() {
        let got = [verdict(1, 7), verdict(0, 3), verdict(0, 3)];
        let reference = verdict_keys(&[verdict(0, 3), verdict(0, 3), verdict(1, 7)]);
        let mut c = Checks::default();
        c.verdicts("test", &reference, &got);
        assert_eq!(c, Checks { attempted: 3, failed: 0 });
    }

    #[test]
    fn a_verdict_removed_from_the_reference_is_a_failure() {
        let got = [verdict(0, 3), verdict(1, 7), verdict(2, 9)];
        let mut reference = verdict_keys(&got);
        reference.remove(1);
        let mut c = Checks::default();
        c.verdicts("test", &reference, &got);
        assert_eq!(c.failed, 1);
        assert!(c.failed as f64 / c.attempted as f64 > 0.0);
    }

    #[test]
    fn a_lost_duplicate_is_a_failure() {
        // A set comparison would miss this; the multiset does not.
        let reference = verdict_keys(&[verdict(0, 3), verdict(0, 3)]);
        let mut c = Checks::default();
        c.verdicts("test", &reference, &[verdict(0, 3)]);
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn a_short_count_fails_the_lossless_check() {
        let mut c = Checks::default();
        c.lossless("test", 1000, 1000);
        assert_eq!(c.failed, 0);
        c.lossless("test", 1000, 993);
        assert_eq!(c, Checks { attempted: 2000, failed: 7 });
        c.lossless("test", 10, 12);
        assert_eq!(c.failed, 9, "a double-counted event is as wrong as a lost one");
    }

    #[test]
    fn require_and_absorb_add_up() {
        let mut c = Checks::default();
        c.require("test", true);
        c.require("test", false);
        let mut total = Checks::default();
        total.absorb(c);
        total.absorb(c);
        assert_eq!(total, Checks { attempted: 4, failed: 2 });
    }
}
