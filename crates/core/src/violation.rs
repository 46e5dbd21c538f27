//! Violations and fault reports — what the detection routines emit.

use crate::event::EventKind;
use crate::fault::FaultKind;
use crate::ids::{MonitorId, Pid, PidProc, ProcName};
use crate::rule::RuleId;
use crate::spec::MonitorSpec;
use crate::time::Nanos;
use std::fmt;
use std::sync::Arc;

/// A single detected rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The monitor in which the violation was detected.
    pub monitor: MonitorId,
    /// The rule that was violated.
    pub rule: RuleId,
    /// Best-effort mapping back to the fault-taxonomy class (§2.2).
    /// `None` when several classes are indistinguishable from the
    /// history alone.
    pub fault: Option<FaultKind>,
    /// The offending process, when attributable.
    pub pid: Option<Pid>,
    /// Sequence number of the event at which the violation was
    /// detected, when attributable to a single event.
    pub event_seq: Option<u64>,
    /// Logical time of detection.
    pub detected_at: Nanos,
    /// Human-readable detail, held as data and rendered only when the
    /// violation is displayed or written (see [`Detail`]).
    pub message: Detail,
}

impl Violation {
    /// Creates a violation with the required fields; optional fields are
    /// filled through the `with_*` methods.
    pub fn new(
        monitor: MonitorId,
        rule: RuleId,
        detected_at: Nanos,
        message: impl Into<Detail>,
    ) -> Self {
        Violation {
            monitor,
            rule,
            fault: None,
            pid: None,
            event_seq: None,
            detected_at,
            message: message.into(),
        }
    }

    /// Attaches the offending process.
    pub fn with_pid(mut self, pid: Pid) -> Self {
        self.pid = Some(pid);
        self
    }

    /// Attaches the triggering event.
    pub fn with_event(mut self, seq: u64) -> Self {
        self.event_seq = Some(seq);
        self
    }

    /// Attaches the diagnosed fault class.
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// A violation's human-readable detail.
///
/// The rules checked on every replayed or observed event keep the ids,
/// counts and event kind their text names, one variant per site, so a
/// verdict costs no formatting (and, but for ST-3b's copy of the
/// Running-List, no allocation) until it is shown or written.
/// [`fmt::Display`] renders the text; the journal and the wire store
/// that text, so a decoded violation holds it as [`Detail::Text`].
///
/// Two details are equal if and only if they render the same text, so
/// a violation read back from a journal or the wire equals the one
/// written. Serde sees a detail as its text.
#[derive(Clone)]
pub enum Detail {
    /// Free text: decoded violations, timers, snapshot comparisons,
    /// assertions, predictions and other once-per-checkpoint checks.
    Text(String),
    /// ST-4: a process issued an event while parked on the entry queue.
    ParkedOnEntryQueue {
        /// The issuing process.
        pid: Pid,
        /// What it issued.
        kind: EventKind,
    },
    /// ST-4: a process issued an event while parked on a condition
    /// queue.
    ParkedOnCondQueue {
        /// The issuing process.
        pid: Pid,
        /// What it issued.
        kind: EventKind,
    },
    /// ST-3d: a process blocked on entry while the monitor was not held
    /// by exactly one process.
    BlockedWhileFree {
        /// The blocked process.
        pid: Pid,
        /// Processes inside at the time.
        inside: usize,
    },
    /// ST-3c: a granted `Enter` left more than one process inside.
    EnterNotUnique {
        /// The entering process.
        pid: Pid,
        /// Processes inside after the `Enter`.
        inside: usize,
    },
    /// ST-2: a `Signal-Exit` claimed a resumed waiter but the replayed
    /// condition queue was empty.
    PhantomWaiter {
        /// The signalling process.
        pid: Pid,
    },
    /// ST-5: a process terminated inside the monitor.
    TerminatedInside {
        /// The terminated process.
        pid: Pid,
    },
    /// ST-3a: the Running-List holds more than one process.
    RunningCrowded {
        /// Processes on the Running-List.
        inside: usize,
    },
    /// ST-3b: `Wait`/`Signal-Exit` by a process that is not the unique
    /// running one.
    CallerNotRunning {
        /// The calling process.
        pid: Pid,
        /// What it performed.
        kind: EventKind,
        /// The Running-List at the time.
        running: Box<[PidProc]>,
    },
    /// ST-7c: a sender delayed while the buffer was not full.
    SendDelayed {
        /// The delayed sender.
        pid: Pid,
        /// Free capacity at the time.
        resource_no: i64,
    },
    /// ST-7d: a receiver delayed while the buffer was not empty.
    ReceiveDelayed {
        /// The delayed receiver.
        pid: Pid,
        /// Free capacity at the time.
        resource_no: i64,
        /// Capacity `Rmax`.
        rmax: i64,
    },
    /// ST-7a: more successful receives than sends.
    ReceivesExceedSends {
        /// Successful receives.
        r: u64,
        /// Successful sends.
        s: u64,
    },
    /// ST-7a: more successful sends than receives plus capacity.
    SendsExceedCapacity {
        /// Successful sends.
        s: u64,
        /// Successful receives.
        r: u64,
        /// Capacity `Rmax`.
        rmax: i64,
    },
    /// ST-8 (generalized): a call the declared call order does not
    /// allow. The procedure name and the path source are looked up in
    /// `spec` when rendered.
    CallOrder {
        /// The calling process.
        pid: Pid,
        /// The procedure called.
        proc_name: ProcName,
        /// The monitor's declaration.
        spec: Arc<MonitorSpec>,
    },
    /// ST-8a: a request for an access right already held.
    DuplicateRequest {
        /// The requesting process.
        pid: Pid,
    },
    /// ST-8b: a release without a preceding request.
    ReleaseWithoutRequest {
        /// The releasing process.
        pid: Pid,
    },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Text(text) => f.write_str(text),
            Detail::ParkedOnEntryQueue { pid, kind } => {
                write!(f, "{pid} issued {} while parked on the entry queue", kind.tag())
            }
            Detail::ParkedOnCondQueue { pid, kind } => {
                write!(f, "{pid} issued {} while parked on a condition queue", kind.tag())
            }
            Detail::BlockedWhileFree { pid, inside } => {
                write!(f, "{pid} blocked on entry while {inside} process(es) were inside")
            }
            Detail::EnterNotUnique { pid, inside } => {
                write!(f, "after Enter by {pid} the monitor holds {inside} processes")
            }
            Detail::PhantomWaiter { pid } => write!(
                f,
                "Signal-Exit by {pid} claims a resumed waiter but the replayed condition \
                 queue is empty"
            ),
            Detail::TerminatedInside { pid } => {
                write!(f, "{pid} terminated inside the monitor without exiting")
            }
            Detail::RunningCrowded { inside } => write!(f, "Running-List holds {inside} processes"),
            Detail::CallerNotRunning { pid, kind, running } => {
                write!(f, "{pid} performed {} but Running-List was {running:?}", kind.tag())
            }
            Detail::SendDelayed { pid, resource_no } => {
                write!(
                    f,
                    "{pid} delayed on Send while Resource-No = {resource_no} (buffer not full)"
                )
            }
            Detail::ReceiveDelayed { pid, resource_no, rmax } => write!(
                f,
                "{pid} delayed on Receive while Resource-No = {resource_no} of {rmax} \
                 (buffer not empty)"
            ),
            Detail::ReceivesExceedSends { r, s } => {
                write!(f, "successful receives r = {r} exceed successful sends s = {s}")
            }
            Detail::SendsExceedCapacity { s, r, rmax } => {
                write!(f, "successful sends s = {s} exceed r + Rmax = {r} + {rmax}")
            }
            Detail::CallOrder { pid, proc_name, spec } => write!(
                f,
                "call to {} by {pid} violates the declared call order {}",
                spec.proc_display(*proc_name),
                spec.call_order.as_ref().map_or("", |p| p.source())
            ),
            Detail::DuplicateRequest { pid } => {
                write!(f, "{pid} requested an access right it already holds")
            }
            Detail::ReleaseWithoutRequest { pid } => {
                write!(f, "{pid} called Release without a preceding Request")
            }
        }
    }
}

impl fmt::Debug for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq for Detail {
    fn eq(&self, other: &Self) -> bool {
        self.to_string() == other.to_string()
    }
}

impl Eq for Detail {}

impl From<String> for Detail {
    fn from(text: String) -> Self {
        Detail::Text(text)
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Self {
        Detail::Text(text.to_owned())
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {}", self.rule, self.monitor, self.message)?;
        if let Some(pid) = self.pid {
            write!(f, " (pid {pid})")?;
        }
        if let Some(seq) = self.event_seq {
            write!(f, " (event l{seq})")?;
        }
        if let Some(fault) = self.fault {
            write!(f, " [fault {}]", fault.code())?;
        }
        Ok(())
    }
}

/// A violation that did **not** occur in the executed schedule but
/// exists in a feasible reordering of it — the output class of the
/// predictive pass ([`crate::detect::predict`]).
///
/// Predicted verdicts are deliberately kept apart from
/// [`FaultReport::violations`]: they are warnings about an equivalent
/// schedule the program *could* have taken, not faults the monitored
/// run exhibited, so [`FaultReport::is_clean`] ignores them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictedViolation {
    /// The violation as it would be reported in the witness schedule.
    pub violation: Violation,
    /// The witness linearization: the checked window's event sequence
    /// numbers, reordered into a legal linear extension of the recorded
    /// happens-before partial order under which the violation fires.
    pub witness: Vec<u64>,
}

impl fmt::Display for PredictedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "predicted {} (witness ", self.violation)?;
        for (i, seq) in self.witness.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "l{seq}")?;
        }
        f.write_str(")")
    }
}

/// The result of one invocation of the detection routines — a batch of
/// violations plus bookkeeping about the checked window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// All violations found in this checking window.
    pub violations: Vec<Violation>,
    /// Violations found only in feasible reorderings of this window
    /// (empty unless [`crate::PredictMode`] enables the predictive
    /// pass). A distinct verdict class: not counted by
    /// [`Self::is_clean`].
    pub predicted: Vec<PredictedViolation>,
    /// Number of events examined.
    pub events_checked: u64,
    /// Start of the window (last checking time `t_p`).
    pub window_start: Nanos,
    /// End of the window (current checking time `t`).
    pub window_end: Nanos,
}

impl FaultReport {
    /// Whether the window was violation-free.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations attributed to a specific rule.
    pub fn by_rule(&self, rule: RuleId) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.rule == rule)
    }

    /// Whether any violation maps to the given fault class.
    pub fn detects(&self, fault: FaultKind) -> bool {
        self.violations.iter().any(|v| v.fault == Some(fault))
    }

    /// Whether any violation was reported for one of the given rules.
    pub fn violates_any(&self, rules: &[RuleId]) -> bool {
        self.violations.iter().any(|v| rules.contains(&v.rule))
    }

    /// Whether the predictive pass found violations in feasible
    /// reorderings of the window.
    pub fn has_predictions(&self) -> bool {
        !self.predicted.is_empty()
    }

    /// Predicted violations attributed to a specific rule.
    pub fn predicted_by_rule(&self, rule: RuleId) -> impl Iterator<Item = &PredictedViolation> {
        self.predicted.iter().filter(move |p| p.violation.rule == rule)
    }

    /// Merges another report into this one (e.g. per-monitor reports
    /// into a global one).
    pub fn merge(&mut self, other: FaultReport) {
        self.violations.extend(other.violations);
        self.predicted.extend(other.predicted);
        self.events_checked += other.events_checked;
        if other.window_start < self.window_start {
            self.window_start = other.window_start;
        }
        if other.window_end > self.window_end {
            self.window_end = other.window_end;
        }
    }

    /// Restores the canonical violation order every checkpoint entry
    /// point reports in — by offending event, then rule (timer and
    /// snapshot violations, which have no event, sort last). Call after
    /// [`Self::merge`]-assembling a report from parts.
    pub fn sort_canonical(&mut self) {
        self.violations.sort_by_key(|v| (v.event_seq.unwrap_or(u64::MAX), v.rule));
        self.predicted
            .sort_by_key(|p| (p.violation.event_seq.unwrap_or(u64::MAX), p.violation.rule));
    }

    /// Folds per-shard (or per-monitor) reports into one canonical
    /// report: [`Self::merge`] over every part, then
    /// [`Self::sort_canonical`]. The first report seeds the window
    /// bounds, so an empty iterator yields the default report rather
    /// than one with a zeroed window start.
    pub fn merged(reports: impl IntoIterator<Item = FaultReport>) -> FaultReport {
        let mut merged: Option<FaultReport> = None;
        for report in reports {
            match &mut merged {
                Some(m) => m.merge(report),
                None => merged = Some(report),
            }
        }
        let mut report = merged.unwrap_or_default();
        report.sort_canonical();
        report
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault report: {} violation(s) over {} event(s) in [{}, {}]",
            self.violations.len(),
            self.events_checked,
            self.window_start,
            self.window_end
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        for p in &self.predicted {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: RuleId) -> Violation {
        Violation::new(MonitorId::new(0), rule, Nanos::new(5), "boom")
    }

    #[test]
    fn builder_attaches_fields() {
        let v = v(RuleId::St3RunningAtMostOne)
            .with_pid(Pid::new(2))
            .with_event(7)
            .with_fault(FaultKind::EnterMutualExclusion);
        assert_eq!(v.pid, Some(Pid::new(2)));
        assert_eq!(v.event_seq, Some(7));
        assert_eq!(v.fault, Some(FaultKind::EnterMutualExclusion));
        let s = v.to_string();
        assert!(s.contains("ST-3a"), "{s}");
        assert!(s.contains("P2"), "{s}");
        assert!(s.contains("l7"), "{s}");
        assert!(s.contains("E1"), "{s}");
    }

    #[test]
    fn violation_stays_small() {
        // A verdict's detail is data, not a string; it may grow the
        // struct by one word at most.
        assert!(std::mem::size_of::<Violation>() <= 72, "{}", std::mem::size_of::<Violation>());
    }

    #[test]
    fn details_equal_by_rendered_text() {
        let structured = Detail::DuplicateRequest { pid: Pid::new(3) };
        let text = Detail::from("P3 requested an access right it already holds");
        assert_eq!(structured, text);
        assert_eq!(format!("{structured:?}"), format!("{text:?}"));
        assert_ne!(structured, Detail::ReleaseWithoutRequest { pid: Pid::new(3) });
        assert_ne!(text, Detail::from(String::from("P3")));
    }

    #[test]
    fn report_queries() {
        let mut r = FaultReport::default();
        assert!(r.is_clean());
        r.violations.push(v(RuleId::St6EntryTimeout).with_fault(FaultKind::EnterNoResponse));
        assert!(!r.is_clean());
        assert_eq!(r.by_rule(RuleId::St6EntryTimeout).count(), 1);
        assert_eq!(r.by_rule(RuleId::St1EntrySnapshot).count(), 0);
        assert!(r.detects(FaultKind::EnterNoResponse));
        assert!(!r.detects(FaultKind::DoubleAcquire));
        assert!(r.violates_any(&[RuleId::St6EntryTimeout]));
        assert!(!r.violates_any(&[RuleId::St8CallOrder]));
    }

    #[test]
    fn merge_combines_windows() {
        let mut a = FaultReport {
            violations: vec![v(RuleId::St1EntrySnapshot)],
            events_checked: 3,
            window_start: Nanos::new(10),
            window_end: Nanos::new(20),
            ..FaultReport::default()
        };
        let b = FaultReport {
            violations: vec![v(RuleId::St2CondSnapshot)],
            predicted: vec![PredictedViolation {
                violation: v(RuleId::St8HoldTimeout),
                witness: vec![2, 1],
            }],
            events_checked: 4,
            window_start: Nanos::new(5),
            window_end: Nanos::new(30),
        };
        a.merge(b);
        assert_eq!(a.violations.len(), 2);
        assert_eq!(a.predicted.len(), 1);
        assert_eq!(a.events_checked, 7);
        assert_eq!(a.window_start, Nanos::new(5));
        assert_eq!(a.window_end, Nanos::new(30));
    }

    #[test]
    fn display_lists_violations() {
        let r = FaultReport {
            violations: vec![v(RuleId::St1EntrySnapshot)],
            events_checked: 1,
            window_start: Nanos::ZERO,
            window_end: Nanos::new(1),
            ..FaultReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("1 violation(s)"), "{s}");
        assert!(s.contains("ST-1"), "{s}");
    }

    #[test]
    fn predicted_is_a_distinct_class() {
        let mut r = FaultReport::default();
        r.predicted.push(PredictedViolation {
            violation: v(RuleId::St8CallOrder).with_event(4),
            witness: vec![1, 4, 2, 3],
        });
        // A prediction does not dirty the executed run's verdict …
        assert!(r.is_clean());
        assert!(r.has_predictions());
        assert_eq!(r.predicted_by_rule(RuleId::St8CallOrder).count(), 1);
        assert_eq!(r.predicted_by_rule(RuleId::St8HoldTimeout).count(), 0);
        // … and renders with its witness linearization.
        let s = r.to_string();
        assert!(s.contains("predicted"), "{s}");
        assert!(s.contains("witness l1 l4 l2 l3"), "{s}");
    }
}
