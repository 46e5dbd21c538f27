//! Predictive detection over the recorded happens-before partial order.
//!
//! The executed schedule is one linearization of a *partial* order: the
//! recorder's sequence counter serializes events, but only
//! monitor-mediated synchronization actually constrains them. A window
//! that is clean as executed may hide a violation in an *equivalent
//! reordering* — a different legal linearization of the same partial
//! order the program could just as well have taken. This module finds
//! such violations and reports them as
//! [`crate::PredictedViolation`]s, each carrying a **witness**: the
//! reordered schedule under which the violation fires.
//!
//! The approach follows the predictive trace-analysis tradition started
//! by Ang & Mathur-style happens-before race prediction: annotate the
//! trace with vector clocks ([`Annotation`]), then search the space of
//! legal linearizations for rule violations. Two predictors run per
//! checkpoint window:
//!
//! * **ST-8c hold-timer retiming** ([`RuleId::St8HoldTimeout`]) — a
//!   hold that stayed under `Tlimit` as executed may exceed it when its
//!   `Request` commutes earlier and/or its `Release` commutes later.
//!   For a request `r` the earliest feasible position is
//!   `minpos(r)` = the number of happens-before predecessors of `r` in
//!   the window; for a release `l` the latest is `maxpos(l)` =
//!   `n − 1 − #successors`. Re-timing the pair onto the window's sorted
//!   timestamp multiset bounds the feasible hold duration.
//! * **Global call-order search** ([`RuleId::St8CallOrder`]) — when the
//!   executed *global* call sequence conforms to the monitor's declared
//!   path expression, a depth-first search over legal linearizations
//!   (frontier = per-process next-event vector, call-order table state
//!   alongside, memoized and budget-capped) looks for a reordering in
//!   which some call falls outside the declared order.
//!
//! Both predictors are **sound with respect to the annotation**: every
//! witness is a legal linearization of the recorded partial order
//! ([`is_legal_linearization`] — the property suite checks this for
//! every emitted prediction), and windows without concurrency (no
//! blocked entry attempts) admit exactly one linearization, so
//! race-free traces yield zero predictions. The search is deliberately
//! *incomplete*: clock saturation, unset stamps and the DFS budget all
//! degrade toward "fewer predictions", never toward unsound ones.

use crate::config::DetectorConfig;
use crate::event::{Event, EventKind};
use crate::ids::{MonitorId, Pid};
use crate::lists::OrderState;
use crate::path::CompiledPath;
use crate::rule::RuleId;
use crate::spec::{MonitorSpec, ProcRole};
use crate::time::Nanos;
use crate::vclock::VClock;
use crate::violation::{PredictedViolation, Violation};
use std::collections::{HashMap, HashSet};

/// Upper bound on node expansions of the call-order linearization
/// search, per monitor window. Exhausting it truncates the search —
/// soundly: predictions may be missed, never fabricated.
const ORDER_SEARCH_BUDGET: usize = 50_000;

/// Happens-before stamps for one checkpoint's event windows: a map from
/// event sequence number to its [`VClock`].
///
/// When every event already carries a stamp (the recorder attached
/// clocks at segment publication), the carried stamps are adopted
/// verbatim. Otherwise the annotation is recomputed offline from the
/// monitor-mediated synchronization order — slots assigned to threads
/// by first appearance, thread clocks merging the monitor clock on
/// granted entries and resumptions, monitor clocks absorbing thread
/// clocks at every releasing event.
#[derive(Debug, Default)]
pub struct Annotation {
    clocks: HashMap<u64, VClock>,
}

impl Annotation {
    /// Annotates a whole checkpoint's per-monitor windows at once, so
    /// cross-monitor happens-before edges (one thread touching two
    /// monitors) are captured.
    pub fn over(windows: &[(MonitorId, Vec<Event>)]) -> Annotation {
        let mut events: Vec<&Event> = windows.iter().flat_map(|(_, w)| w.iter()).collect();
        events.sort_unstable_by_key(|e| e.seq);
        Self::from_events(&events)
    }

    /// Annotates a single window (testing convenience).
    pub fn over_window(window: &[Event]) -> Annotation {
        let mut events: Vec<&Event> = window.iter().collect();
        events.sort_unstable_by_key(|e| e.seq);
        Self::from_events(&events)
    }

    fn from_events(events: &[&Event]) -> Annotation {
        // Carried stamps win: the live recorder drew `seq` and the
        // clock under the same lock, so they are mutually consistent.
        if !events.is_empty() && events.iter().all(|e| e.vc.is_set()) {
            return Annotation { clocks: events.iter().map(|e| (e.seq, e.vc)).collect() };
        }
        let mut slots: HashMap<Pid, usize> = HashMap::new();
        let mut threads: HashMap<Pid, VClock> = HashMap::new();
        let mut monitors: HashMap<MonitorId, VClock> = HashMap::new();
        let mut clocks = HashMap::with_capacity(events.len());
        for e in events {
            let next = slots.len();
            let slot = *slots.entry(e.pid).or_insert(next);
            let thread = threads.entry(e.pid).or_insert_with(|| VClock::for_slot(slot));
            let monitor = monitors.entry(e.monitor).or_insert(VClock::UNSET);
            // A granted entry (and every resumption-carrying event)
            // synchronizes with everything the monitor has seen; a
            // *blocked* attempt is recorded before acquisition and
            // synchronizes with nothing — the window's only source of
            // intra-monitor concurrency.
            let acquires = !matches!(e.kind, EventKind::Enter { granted: false });
            if acquires {
                thread.merge(monitor);
            }
            thread.tick();
            clocks.insert(e.seq, *thread);
            // Releasing events publish the thread's history to the
            // monitor (Wait releases the lock; Signal-Exit and
            // Terminate leave the monitor).
            let releases = matches!(
                e.kind,
                EventKind::Wait { .. } | EventKind::SignalExit { .. } | EventKind::Terminate
            );
            if releases {
                monitor.merge(thread);
            }
        }
        Annotation { clocks }
    }

    /// The stamp of event `seq` ([`VClock::UNSET`] if unannotated).
    pub fn clock_of(&self, seq: u64) -> VClock {
        self.clocks.get(&seq).copied().unwrap_or(VClock::UNSET)
    }

    /// Whether `a` happens before `b` under this annotation. Degenerate
    /// stamps (unset, saturated) fall back to sequence order — the
    /// sound direction: the executed total order is a linear extension
    /// of happens-before, so the fallback only *removes* commutation
    /// freedom.
    pub fn happens_before(&self, a: &Event, b: &Event) -> bool {
        if a.seq == b.seq {
            return false;
        }
        let ca = self.clock_of(a.seq);
        let cb = self.clock_of(b.seq);
        match (ca.owner(), cb.owner()) {
            (Some(slot), Some(_)) => cb.get(slot) >= ca.get(slot),
            _ => a.seq < b.seq,
        }
    }

    /// Whether two events are concurrent (neither happens before the
    /// other) under this annotation.
    pub fn concurrent(&self, a: &Event, b: &Event) -> bool {
        a.seq != b.seq && !self.happens_before(a, b) && !self.happens_before(b, a)
    }
}

/// Whether `witness` is a legal linearization of `window`'s recorded
/// partial order: a permutation of the window's sequence numbers in
/// which no event is placed before one of its happens-before
/// predecessors.
pub fn is_legal_linearization(witness: &[u64], window: &[Event], ann: &Annotation) -> bool {
    if witness.len() != window.len() {
        return false;
    }
    let by_seq: HashMap<u64, &Event> = window.iter().map(|e| (e.seq, e)).collect();
    if by_seq.len() != window.len() {
        return false;
    }
    let mut seen: HashSet<u64> = HashSet::with_capacity(witness.len());
    for seq in witness {
        if !by_seq.contains_key(seq) || !seen.insert(*seq) {
            return false;
        }
    }
    for (i, earlier) in witness.iter().enumerate() {
        for later in &witness[i + 1..] {
            if ann.happens_before(by_seq[later], by_seq[earlier]) {
                return false;
            }
        }
    }
    true
}

/// Runs every predictor over one monitor's checkpoint window (assumed
/// `seq`-sorted, as the engine's replay produces it), appending
/// findings to `out`. `order` is the monitor's Algorithm-3 state: the
/// call-order search walks the compiled table it already holds. The
/// entry point behind [`crate::PredictMode::Checkpoint`].
pub fn predict_window(
    order: &OrderState,
    spec: &MonitorSpec,
    cfg: &DetectorConfig,
    window: &[Event],
    ann: &Annotation,
    now: Nanos,
    out: &mut Vec<PredictedViolation>,
) {
    if window.len() < 2 {
        return;
    }
    predict_hold_timeouts(order.monitor(), spec, cfg, window, ann, now, out);
    if let Some(compiled) = order.call_order() {
        predict_call_order(order.monitor(), spec, compiled, window, ann, now, out);
    }
}

/// ST-8c retiming: finds Request/Release pairs (and still-open
/// requests) whose executed hold respected `Tlimit` but whose feasible
/// commutation range does not.
fn predict_hold_timeouts(
    monitor: MonitorId,
    spec: &MonitorSpec,
    cfg: &DetectorConfig,
    window: &[Event],
    ann: &Annotation,
    now: Nanos,
    out: &mut Vec<PredictedViolation>,
) {
    let n = window.len();
    // The window's timestamp multiset in nondecreasing order: slot `k`
    // of any linearization happens no earlier than `times[k]`.
    let mut times: Vec<Nanos> = window.iter().map(|e| e.time).collect();
    times.sort_unstable();
    // Pair requests with their releases the way the Request-List does:
    // acquisition at `Enter` of a Request-role procedure, removal at
    // the successful completion (`SignalExit`) of a Release-role one.
    let mut open: Vec<(Pid, usize)> = Vec::new();
    let mut holds: Vec<(usize, Option<usize>)> = Vec::new();
    for (i, e) in window.iter().enumerate() {
        match e.kind {
            // Duplicate requests are ST-8a's business, not ours.
            EventKind::Enter { .. }
                if spec.proc_role(e.proc_name) == ProcRole::Request
                    && !open.iter().any(|(p, _)| *p == e.pid) =>
            {
                open.push((e.pid, i));
            }
            EventKind::SignalExit { .. } if spec.proc_role(e.proc_name) == ProcRole::Release => {
                if let Some(pos) = open.iter().position(|(p, _)| *p == e.pid) {
                    let (_, ri) = open.remove(pos);
                    holds.push((ri, Some(i)));
                }
            }
            _ => {}
        }
    }
    holds.extend(open.into_iter().map(|(_, ri)| (ri, None)));
    for (ri, li) in holds {
        let r = &window[ri];
        let executed = match li {
            Some(li) => window[li].time.saturating_since(r.time),
            None => now.saturating_since(r.time),
        };
        if executed > cfg.t_limit {
            // The executed schedule itself violates ST-8c: that is (or
            // was) the real-time hold timer's finding, not a prediction.
            continue;
        }
        let minpos = window.iter().filter(|e| ann.happens_before(e, r)).count();
        let (end, maxpos) = match li {
            Some(li) => {
                let l = &window[li];
                let succs = window.iter().filter(|e| ann.happens_before(l, e)).count();
                let maxpos = n - 1 - succs;
                (times[maxpos], Some(maxpos))
            }
            None => (now, None),
        };
        let predicted = end.saturating_since(times[minpos]);
        if predicted <= cfg.t_limit {
            continue;
        }
        let witness = retimed_witness(window, ann, ri, li);
        let detail = match maxpos {
            Some(_) => format!(
                "a feasible reordering lets {} hold an access right for {} \
                 (executed hold {}, Tlimit = {})",
                r.pid, predicted, executed, cfg.t_limit
            ),
            None => format!(
                "a feasible reordering lets {} hold an access right for {} and counting \
                 (executed hold {}, Tlimit = {})",
                r.pid, predicted, executed, cfg.t_limit
            ),
        };
        out.push(PredictedViolation {
            violation: Violation::new(monitor, RuleId::St8HoldTimeout, now, detail)
                .with_pid(r.pid)
                .with_event(r.seq),
            witness,
        });
    }
}

/// Builds the witness linearization realizing a retimed hold: the
/// request's happens-before down-set first, then the request, then the
/// unconstrained middle, then the release and its up-set — each block
/// in sequence order. Down-sets are downward closed and up-sets upward
/// closed (happens-before is transitive), so the result is always a
/// legal linearization.
fn retimed_witness(window: &[Event], ann: &Annotation, ri: usize, li: Option<usize>) -> Vec<u64> {
    let r = &window[ri];
    let down: Vec<bool> = window.iter().map(|e| ann.happens_before(e, r)).collect();
    let up: Vec<bool> = match li {
        Some(li) => {
            let l = &window[li];
            window.iter().map(|e| ann.happens_before(l, e)).collect()
        }
        None => vec![false; window.len()],
    };
    let mut witness = Vec::with_capacity(window.len());
    for (i, e) in window.iter().enumerate() {
        if down[i] {
            witness.push(e.seq);
        }
    }
    witness.push(r.seq);
    for (i, e) in window.iter().enumerate() {
        if !down[i] && !up[i] && i != ri && Some(i) != li {
            witness.push(e.seq);
        }
    }
    if let Some(li) = li {
        witness.push(window[li].seq);
        for (i, e) in window.iter().enumerate() {
            if up[i] {
                witness.push(e.seq);
            }
        }
    }
    witness
}

/// Global call-order prediction: a depth-first search over the legal
/// linearizations of the window, stepping the declared call order's
/// table on every `Enter`, reporting linearizations in
/// which a call has no legal continuation.
///
/// The search only runs when the *executed* global call sequence is
/// itself accepted as a prefix of the declared order — the global
/// reading of the path expression is meaningful for this monitor (a
/// multi-unit allocator legally interleaves `request request release`,
/// which already fails the global reading as executed, so prediction
/// stays silent there).
fn predict_call_order(
    monitor: MonitorId,
    spec: &MonitorSpec,
    compiled: &CompiledPath,
    window: &[Event],
    ann: &Annotation,
    now: Nanos,
    out: &mut Vec<PredictedViolation>,
) {
    // Guard: executed global conformance.
    let mut state = compiled.start();
    for e in window.iter().filter(|e| matches!(e.kind, EventKind::Enter { .. })) {
        match compiled.step(state, e.proc_name) {
            Some(next) => state = next,
            None => return,
        }
    }
    // Per-process event lists (program order) and, for every event, how
    // many of each process's events are its happens-before
    // predecessors. Within one process those predecessors form a prefix
    // (transitivity + program order), so a frontier position vector
    // fully determines eligibility.
    let mut pids: Vec<Pid> = Vec::new();
    let mut per_pid: Vec<Vec<usize>> = Vec::new();
    for (i, e) in window.iter().enumerate() {
        let p = match pids.iter().position(|&p| p == e.pid) {
            Some(p) => p,
            None => {
                pids.push(e.pid);
                per_pid.push(Vec::new());
                pids.len() - 1
            }
        };
        per_pid[p].push(i);
    }
    let need: Vec<Vec<usize>> = window
        .iter()
        .map(|e| {
            per_pid
                .iter()
                .map(|evs| evs.iter().filter(|&&j| ann.happens_before(&window[j], e)).count())
                .collect()
        })
        .collect();
    let mut search = OrderSearch {
        window,
        per_pid: &per_pid,
        need: &need,
        compiled,
        budget: ORDER_SEARCH_BUDGET,
        memo: HashSet::new(),
        offenders: HashMap::new(),
    };
    let mut positions = vec![0usize; per_pid.len()];
    let mut prefix: Vec<u64> = Vec::with_capacity(window.len());
    search.dfs(&mut positions, compiled.start(), &mut prefix);
    let mut found: Vec<(usize, Vec<u64>)> = search.offenders.into_iter().collect();
    found.sort_unstable_by_key(|(i, _)| *i);
    for (i, witness) in found {
        let e = &window[i];
        let fault = match spec.proc_role(e.proc_name) {
            ProcRole::Request => Some(crate::fault::FaultKind::DoubleAcquire),
            ProcRole::Release => Some(crate::fault::FaultKind::ReleaseWithoutAcquire),
            _ => None,
        };
        let mut v = Violation::new(
            monitor,
            RuleId::St8CallOrder,
            now,
            format!(
                "a feasible reordering reaches the call to {} by {} outside \
                 the declared call order {}",
                spec.proc_display(e.proc_name),
                e.pid,
                spec.call_order.as_ref().map(|p| p.source()).unwrap_or_default()
            ),
        )
        .with_pid(e.pid)
        .with_event(e.seq);
        if let Some(f) = fault {
            v = v.with_fault(f);
        }
        out.push(PredictedViolation { violation: v, witness });
    }
}

/// State of the call-order linearization search.
struct OrderSearch<'a> {
    window: &'a [Event],
    per_pid: &'a [Vec<usize>],
    need: &'a [Vec<usize>],
    compiled: &'a CompiledPath,
    budget: usize,
    memo: HashSet<(Vec<usize>, u32)>,
    /// Offending window index → witness linearization (first found).
    offenders: HashMap<usize, Vec<u64>>,
}

impl OrderSearch<'_> {
    /// Explores every legal linearization reachable from the current
    /// frontier. On a call without a transition the offending event
    /// and its witness are recorded and that branch is cut (the order
    /// has no continuation); the search keeps going for other
    /// offenders.
    fn dfs(&mut self, positions: &mut Vec<usize>, state: u32, prefix: &mut Vec<u64>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if !self.memo.insert((positions.clone(), state)) {
            return;
        }
        for p in 0..self.per_pid.len() {
            let Some(&i) = self.per_pid[p].get(positions[p]) else { continue };
            let eligible = (0..self.per_pid.len()).all(|q| positions[q] >= self.need[i][q]);
            if !eligible {
                continue;
            }
            let e = &self.window[i];
            let next = match e.kind {
                EventKind::Enter { .. } => self.compiled.step(state, e.proc_name),
                _ => Some(state),
            };
            let Some(next) = next else {
                // Violation in this linearization: witness = what was
                // scheduled so far, the offending call, and a legal
                // completion (sequence order of the rest — always legal
                // on the remaining upward-closed set).
                if !self.offenders.contains_key(&i) {
                    let mut witness = prefix.clone();
                    witness.push(e.seq);
                    let placed: HashSet<u64> = witness.iter().copied().collect();
                    for rest in self.window {
                        if !placed.contains(&rest.seq) {
                            witness.push(rest.seq);
                        }
                    }
                    self.offenders.insert(i, witness);
                }
                continue;
            };
            positions[p] += 1;
            prefix.push(e.seq);
            self.dfs(positions, next, prefix);
            prefix.pop();
            positions[p] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::spec::MonitorSpec;

    const M: MonitorId = MonitorId::new(0);

    /// One unit, two processes: P1 requests, releases; P2's request
    /// attempt *blocks* while P1 still holds (the only concurrency in
    /// the window), then P2 acquires and releases. Clean as executed.
    fn contended_allocator_window() -> (MonitorSpec, Vec<Event>) {
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
        (al.spec, w)
    }

    /// The same shape without contention: P2 only starts after P1 is
    /// completely done, and its entry is granted immediately.
    fn sequential_allocator_window() -> (MonitorSpec, Vec<Event>) {
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
        (al.spec, w)
    }

    #[test]
    fn annotation_orders_program_and_monitor_edges() {
        let (_, w) = contended_allocator_window();
        let ann = Annotation::over_window(&w);
        // Program order.
        assert!(ann.happens_before(&w[0], &w[1]));
        assert!(ann.happens_before(&w[3], &w[5]));
        // Monitor-mediated cross-thread edge: P1's release publishes to
        // the monitor, P2's resumption (its request's Signal-Exit)
        // merges it.
        assert!(ann.happens_before(&w[4], &w[5]));
        // The blocked attempt is the window's concurrency.
        assert!(ann.concurrent(&w[2], &w[3]));
        assert!(ann.concurrent(&w[3], &w[4]));
        assert!(!ann.concurrent(&w[0], &w[3]) || !ann.happens_before(&w[0], &w[3]));
    }

    #[test]
    fn sequential_window_has_unique_linearization() {
        let (_, w) = sequential_allocator_window();
        let ann = Annotation::over_window(&w);
        for a in &w {
            for b in &w {
                if a.seq < b.seq {
                    assert!(
                        ann.happens_before(a, b),
                        "uncontended window must be totally ordered: l{} vs l{}",
                        a.seq,
                        b.seq
                    );
                }
            }
        }
    }

    #[test]
    fn legality_checker_accepts_executed_and_rejects_swaps() {
        let (_, w) = contended_allocator_window();
        let ann = Annotation::over_window(&w);
        let executed: Vec<u64> = w.iter().map(|e| e.seq).collect();
        assert!(is_legal_linearization(&executed, &w, &ann));
        // The blocked attempt commutes before P1's release call …
        assert!(is_legal_linearization(&[1, 2, 4, 3, 5, 6, 7, 8], &w, &ann));
        // … but P2's resumption cannot precede P1's release.
        assert!(!is_legal_linearization(&[1, 2, 3, 4, 6, 5, 7, 8], &w, &ann));
        // Not a permutation.
        assert!(!is_legal_linearization(&[1, 2, 3, 4, 5, 6, 7], &w, &ann));
        assert!(!is_legal_linearization(&[1, 1, 3, 4, 5, 6, 7, 8], &w, &ann));
    }

    #[test]
    fn predicts_hold_timeout_hidden_by_the_executed_schedule() {
        let (spec, w) = contended_allocator_window();
        let ann = Annotation::over_window(&w);
        // P2 held for 40ns as executed (l4@40 .. l8@80) — under a
        // 50ns limit. But l4 has no happens-before predecessor, so the
        // hold could have started in the earliest slot (t=10): 70ns.
        let cfg = DetectorConfig::builder().t_limit(Nanos::new(50)).build();
        let mut out = Vec::new();
        predict_window(&OrderState::new(M, &spec), &spec, &cfg, &w, &ann, Nanos::new(90), &mut out);
        let hold: Vec<_> =
            out.iter().filter(|p| p.violation.rule == RuleId::St8HoldTimeout).collect();
        assert_eq!(hold.len(), 1, "{out:?}");
        assert_eq!(hold[0].violation.pid, Some(Pid::new(2)));
        assert_eq!(hold[0].violation.event_seq, Some(4));
        assert!(is_legal_linearization(&hold[0].witness, &w, &ann), "{:?}", hold[0].witness);
        // The witness puts the request in front.
        assert_eq!(hold[0].witness[0], 4);
    }

    #[test]
    fn predicts_call_order_violation_in_a_commutation() {
        let (spec, w) = contended_allocator_window();
        let ann = Annotation::over_window(&w);
        // Executed global order: request(l1) release(l3) request(l4)
        // release(l7) — conforms. Commuting the blocked l4 before l3
        // reaches request·request, outside `path (request ; release)*`.
        let cfg = DetectorConfig::without_timeouts();
        let mut out = Vec::new();
        predict_window(&OrderState::new(M, &spec), &spec, &cfg, &w, &ann, Nanos::new(90), &mut out);
        let order: Vec<_> =
            out.iter().filter(|p| p.violation.rule == RuleId::St8CallOrder).collect();
        // The illegal reordering request·request is reachable two ways
        // (the blocked l4 commutes before l3, or all the way before
        // l1), so both requests are reported as feasible offenders.
        let seqs: Vec<_> = order.iter().map(|p| p.violation.event_seq).collect();
        assert_eq!(seqs, vec![Some(1), Some(4)], "{out:?}");
        for p in &order {
            assert!(is_legal_linearization(&p.witness, &w, &ann), "{:?}", p.witness);
        }
        // In the l4 witness, l4 precedes P1's release call l3.
        let witness = &order[1].witness;
        let pos = |s: u64| witness.iter().position(|&x| x == s).unwrap();
        assert!(pos(4) < pos(3));
    }

    #[test]
    fn race_free_window_yields_no_predictions() {
        let (spec, w) = sequential_allocator_window();
        let ann = Annotation::over_window(&w);
        let cfg = DetectorConfig::builder().t_limit(Nanos::new(15)).build();
        let mut out = Vec::new();
        predict_window(&OrderState::new(M, &spec), &spec, &cfg, &w, &ann, Nanos::new(90), &mut out);
        // Each executed hold is 30ns > Tlimit=15 — the *real* timer's
        // finding; prediction must not re-report executed violations,
        // and with a unique linearization nothing else is feasible.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn executed_nonconforming_global_order_disables_order_prediction() {
        // Two units: request request release release is legal for the
        // allocator but fails the *global* reading of the declared
        // path, so the order predictor must stay silent.
        let al = MonitorSpec::allocator("res", 2);
        let p1 = Pid::new(1);
        let p2 = Pid::new(2);
        let t = Nanos::new;
        let w = vec![
            Event::enter(1, t(10), M, p1, al.request, true),
            Event::signal_exit(2, t(20), M, p1, al.request, None, false),
            Event::enter(3, t(30), M, p2, al.request, true),
            Event::signal_exit(4, t(40), M, p2, al.request, None, false),
            Event::enter(5, t(50), M, p1, al.release, true),
            Event::signal_exit(6, t(60), M, p1, al.release, None, false),
            Event::enter(7, t(70), M, p2, al.release, true),
            Event::signal_exit(8, t(80), M, p2, al.release, None, false),
        ];
        let ann = Annotation::over_window(&w);
        let cfg = DetectorConfig::without_timeouts();
        let mut out = Vec::new();
        let order = OrderState::new(M, &al.spec);
        predict_window(&order, &al.spec, &cfg, &w, &ann, Nanos::new(90), &mut out);
        assert!(out.iter().all(|p| p.violation.rule != RuleId::St8CallOrder), "{out:?}");
    }
}
