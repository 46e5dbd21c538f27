//! The incremental detector engine.
//!
//! The paper's prototype (§4) couples a *data-gathering routine* (runs
//! in real time, invoked by the three monitor primitives) with a
//! *checking routine* (invoked periodically every `T`). [`Detector`]
//! is the checking routine: it owns per-monitor checking lists that are
//! carried from one checking window to the next, exactly as §3.3
//! prescribes — *"only the states at the last checking time and the
//! current checking time are recorded; the state sequence in between is
//! not needed"*.
//!
//! Real-time user-process-level checks (Algorithm-3) run in
//! [`Detector::observe`], which the recording layer calls as each event
//! is gathered; periodic checks (Algorithms 1 and 2 plus the timers)
//! run in [`Detector::checkpoint`].

use crate::config::DetectorConfig;
use crate::detect::predict;
use crate::event::Event;
use crate::ids::{MonitorId, Pid};
use crate::lists::{GeneralLists, OrderState, ResourceState};
use crate::spec::MonitorSpec;
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::violation::{FaultReport, Violation};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-monitor incremental checking state.
#[derive(Debug, Clone)]
pub struct MonitorChecker {
    spec: Arc<MonitorSpec>,
    general: GeneralLists,
    resource: ResourceState,
    order: OrderState,
    /// Per-caller high-water marks of event sequence numbers already
    /// ingested (order-checked in real time, and queued in [`pending`]
    /// or replayed through Algorithms 1–2), so neither the real-time
    /// path nor checkpoint catch-up ever double-processes an event.
    ///
    /// The marks are per-[`Pid`] rather than per-monitor because the
    /// Algorithm-3 state ([`OrderState`]) is itself keyed by caller:
    /// events of *different* pids commute, so ingestion only has to
    /// keep each pid's events in order — which is exactly what a
    /// per-thread [`crate::detect::ProducerHandle`] guarantees — while
    /// batches from different producers may interleave freely.
    ///
    /// [`pending`]: MonitorChecker::pending_events
    order_marks: HashMap<Pid, u64>,
    /// Events ingested in real time but not yet replayed through the
    /// periodic Algorithms 1–2: the window a *scoped* checkpoint
    /// ([`Detector::checkpoint_scoped`]) replays when no explicit event
    /// window is supplied. Consumed (and deduplicated against any
    /// explicit window by `seq`) at every checkpoint — like the
    /// recorded window itself, it grows with the stream until a
    /// checkpoint drains it, so run one periodically
    /// ([`Detector::checkpoint_timers`] deliberately leaves it alone).
    pending: Vec<Event>,
    /// Distinct events replayed through Algorithms 1–2 so far — the
    /// engine side of the snapshot consistency gate (see
    /// [`Detector::checkpoint_scoped`]).
    replayed: u64,
    last_check: Nanos,
}

impl MonitorChecker {
    fn new(monitor: MonitorId, spec: Arc<MonitorSpec>, initial: &MonitorState, now: Nanos) -> Self {
        let rmax = spec.capacity.unwrap_or(0);
        let available = initial.available.unwrap_or(rmax);
        MonitorChecker {
            general: GeneralLists::from_state(monitor, spec.cond_count(), initial, now),
            resource: ResourceState::new(monitor, rmax, available),
            order: OrderState::new(monitor, &spec),
            spec,
            order_marks: HashMap::new(),
            pending: Vec::new(),
            replayed: 0,
            last_check: now,
        }
    }

    /// Replays one event through Algorithm 1 and, for a communication
    /// coordinator, Algorithm 2.
    #[inline]
    fn replay(&mut self, event: &Event, coordinator: bool, out: &mut Vec<Violation>) {
        self.general.apply(&self.spec, event, out);
        if coordinator {
            self.resource.apply(&self.spec, event, out);
        }
    }

    /// The monitor's declaration.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// The replayed general checking lists (Algorithm-1 state).
    pub fn general(&self) -> &GeneralLists {
        &self.general
    }

    /// The replayed resource state (Algorithm-2 state).
    pub fn resource(&self) -> &ResourceState {
        &self.resource
    }

    /// The real-time order state (Algorithm-3 state).
    pub fn order(&self) -> &OrderState {
        &self.order
    }

    /// Time of the last completed checkpoint.
    pub fn last_check(&self) -> Nanos {
        self.last_check
    }

    /// Events ingested but not yet replayed through Algorithms 1–2
    /// (the window the next scoped checkpoint will consume).
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Distinct events replayed through Algorithms 1–2 so far.
    pub fn replayed_events(&self) -> u64 {
        self.replayed
    }
}

/// The run-time fault detector: the paper's periodically-invoked
/// checking routine plus the real-time calling-order checks.
///
/// # Examples
///
/// ```
/// use rmon_core::detect::Detector;
/// use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, MonitorState, Nanos};
/// use rmon_core::{CondId, Pid};
/// use std::collections::HashMap;
/// use std::sync::Arc;
///
/// let bb = MonitorSpec::bounded_buffer("buf", 2);
/// let m = MonitorId::new(0);
/// let mut det = Detector::new(DetectorConfig::without_timeouts());
/// det.register(m, Arc::new(bb.spec.clone()), &MonitorState::with_resources(2, 2), Nanos::ZERO);
///
/// let events = vec![
///     Event::enter(1, Nanos::new(10), m, Pid::new(1), bb.send, true),
///     Event::signal_exit(2, Nanos::new(20), m, Pid::new(1), bb.send, Some(bb.empty_cond), false),
/// ];
/// let mut snaps = HashMap::new();
/// snaps.insert(m, MonitorState::with_resources(2, 1));
/// let report = det.checkpoint(Nanos::new(30), &events, &snaps);
/// assert!(report.is_clean(), "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
    monitors: HashMap<MonitorId, MonitorChecker>,
}

impl Detector {
    /// Creates a detector with the given timing configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
        Detector { cfg, monitors: HashMap::new() }
    }

    /// The timing configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Registers a monitor with its declaration and initial observed
    /// state. Events for unregistered monitors are ignored.
    ///
    /// Every backend (inline, sharded, scheduled, async, remote) routes
    /// registration through here, so this is also where the
    /// [`DetectorConfig::strict_specs`] gate lives.
    ///
    /// # Panics
    ///
    /// With `strict_specs` on, panics if the spec has Error-level
    /// static diagnostics ([`crate::spec::analyze`]); use
    /// [`Detector::try_register`] to handle the report instead.
    pub fn register(
        &mut self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) {
        if self.cfg.strict_specs {
            let report = crate::spec::analyze::analyze(&spec);
            assert!(
                !report.has_errors(),
                "strict_specs: registration of {:?} rejected:\n{report}",
                spec.name
            );
        }
        self.monitors.insert(monitor, MonitorChecker::new(monitor, spec, initial, now));
    }

    /// Like [`Detector::register`], but always vets the spec through
    /// the static analyzer first — regardless of
    /// [`DetectorConfig::strict_specs`] — and refuses Error-level
    /// declarations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the full [`LintReport`](crate::spec::LintReport)
    /// (which may additionally carry Warn/Lint findings) when the spec
    /// has Error-level diagnostics; the monitor is not registered.
    pub fn try_register(
        &mut self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) -> Result<(), crate::spec::LintReport> {
        let report = crate::spec::analyze::analyze(&spec);
        if report.has_errors() {
            return Err(report);
        }
        self.monitors.insert(monitor, MonitorChecker::new(monitor, spec, initial, now));
        Ok(())
    }

    /// Registers a monitor starting from the canonical empty state
    /// ([`MonitorSpec::empty_state`]).
    pub fn register_empty(&mut self, monitor: MonitorId, spec: Arc<MonitorSpec>, now: Nanos) {
        let initial = spec.empty_state();
        self.register(monitor, spec, &initial, now);
    }

    /// Whether a monitor is registered.
    pub fn is_registered(&self, monitor: MonitorId) -> bool {
        self.monitors.contains_key(&monitor)
    }

    /// Access to a monitor's incremental checking state.
    pub fn checker(&self, monitor: MonitorId) -> Option<&MonitorChecker> {
        self.monitors.get(&monitor)
    }

    /// The registered monitors, in no particular order.
    pub fn monitor_ids(&self) -> Vec<MonitorId> {
        self.monitors.keys().copied().collect()
    }

    /// Total events queued in the pending replay windows across all
    /// monitors — the quantity a periodic checkpoint drains (timer-only
    /// sweeps use it as their memory-backstop trigger).
    pub fn pending_total(&self) -> usize {
        self.monitors.values().map(|c| c.pending.len()).sum()
    }

    /// Real-time observation of one event: runs the Algorithm-3 checks
    /// (duplicate request, release-without-request, declared call
    /// order) synchronously and returns any violations.
    ///
    /// The paper: *"Only the user process level faults should be
    /// detected during real time execution."* Call this from the data-
    /// gathering path; everything else waits for [`Self::checkpoint`].
    ///
    /// Dropping the return value silently discards detected faults, so
    /// it is `#[must_use]`; hot paths that want to avoid per-event
    /// allocation should use [`Self::observe_into`] with a reused
    /// buffer instead.
    #[must_use = "dropping the return value discards detected violations"]
    pub fn observe(&mut self, event: &Event) -> Vec<Violation> {
        let mut out = Vec::new();
        self.observe_into(event, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::observe`]: appends any
    /// violations to `out` and returns how many were added.
    ///
    /// The fast path — an unregistered monitor, or an event already
    /// covered by its caller's watermark — touches no memory beyond the
    /// lookups, and a fresh event costs one (amortized) append to the
    /// monitor's pending replay window on top of the order checks.
    /// Batch ingestion loops (the sharded service, the runtime
    /// recorder) call this with one reused buffer so the common
    /// no-violation case never allocates an output.
    ///
    /// Events of one [`Pid`] must arrive in `seq` order; events of
    /// different pids may interleave arbitrarily (the order state is
    /// per-caller, see [`MonitorChecker`]). An event at or below its
    /// pid's watermark is skipped — it was already checked, either here
    /// or by a checkpoint's catch-up replay. A fresh event is also
    /// queued for the next checkpoint's Algorithm-1/2 replay (see
    /// [`Self::checkpoint_scoped`]); checkpoints that receive an
    /// explicit window deduplicate the overlap by `seq`.
    pub fn observe_into(&mut self, event: &Event, out: &mut Vec<Violation>) -> usize {
        let Some(checker) = self.monitors.get_mut(&event.monitor) else {
            return 0;
        };
        let mark = checker.order_marks.entry(event.pid).or_insert(0);
        if event.seq <= *mark {
            return 0;
        }
        *mark = event.seq;
        checker.pending.push(*event);
        let before = out.len();
        checker.order.apply(&checker.spec, event, out);
        if matches!(event.kind, crate::event::EventKind::Terminate) {
            // Free the caller's call-order state so long-running
            // detectors don't accumulate order state for every process
            // that ever called. Stragglers (older events still buffered
            // in a producer handle) are blocked by the watermark above;
            // a caller that *resumes* after recovery (terminate_inside
            // leaves the thread alive) produces higher-seq events and
            // is checked again from fresh order state — its retained
            // Request-List entry still flags a duplicate request or
            // clears on the eventual release.
            checker.order.forget_caller(event.pid);
        }
        out.len() - before
    }

    /// Batched real-time observation: equivalent to calling
    /// [`Self::observe`] on every event in order, but with one output
    /// allocation for the whole batch. Returns the violations in event
    /// order.
    ///
    /// # Examples
    ///
    /// ```
    /// use rmon_core::detect::Detector;
    /// use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, Nanos, Pid};
    /// use std::sync::Arc;
    ///
    /// let al = MonitorSpec::allocator("res", 1);
    /// let m = MonitorId::new(0);
    /// let mut det = Detector::new(DetectorConfig::without_timeouts());
    /// det.register_empty(m, Arc::new(al.spec.clone()), Nanos::ZERO);
    ///
    /// let batch = vec![
    ///     Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true),
    ///     Event::enter(2, Nanos::new(20), m, Pid::new(1), al.request, false),
    /// ];
    /// // The duplicate request is flagged exactly as it would be
    /// // through two single-event observe() calls.
    /// let vs = det.observe_batch(&batch);
    /// assert!(!vs.is_empty());
    /// ```
    #[must_use = "dropping the return value discards detected violations"]
    pub fn observe_batch(&mut self, events: &[Event]) -> Vec<Violation> {
        let mut out = Vec::new();
        for event in events {
            self.observe_into(event, &mut out);
        }
        out
    }

    /// Non-mutating real-time lookahead: would an `Enter` of
    /// `proc_name` by `pid` violate a calling-order rule (ST-8) right
    /// now? Runtimes that *prevent* user-process faults (instead of
    /// merely reporting them) consult this before executing the call.
    ///
    /// Returns `None` for unregistered monitors.
    pub fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: crate::ids::Pid,
        proc_name: crate::ids::ProcName,
    ) -> Option<crate::rule::RuleId> {
        let checker = self.monitors.get(&monitor)?;
        checker.order.would_violate(&checker.spec, pid, proc_name)
    }

    /// Periodic checkpoint: replays `events` (the window since the last
    /// checkpoint, any monitor mix) merged with each monitor's pending
    /// real-time window (deduplicated by `seq` and per-caller
    /// watermark), compares each monitor's replayed lists against its
    /// observed snapshot, checks all timers, then re-bases the lists on
    /// the snapshots for the next window.
    ///
    /// Monitors without a snapshot entry keep their replayed lists
    /// (pure event-stream mode).
    pub fn checkpoint(
        &mut self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        self.checkpoint_inner(now, events, snapshots, &HashMap::new(), None)
    }

    /// Scoped checkpoint: the window-less form behind
    /// [`crate::detect::DetectionBackend::checkpoint`]. Replays each
    /// in-scope monitor's **pending** real-time window (the events
    /// ingested through [`Self::observe_into`] since the last
    /// checkpoint) through Algorithms 1–2, compares against the
    /// supplied snapshots, checks the timers, and re-bases — without
    /// the caller having to drain and partition a recorded window.
    ///
    /// `only` restricts the checkpoint to one monitor (the
    /// [`crate::detect::CheckpointScope::Monitor`] case); `None` checks
    /// every registered monitor.
    ///
    /// `gates` is the snapshot **consistency gate** for asynchronous
    /// callers: an entry `(monitor, n)` asserts that the monitor's
    /// snapshot was taken after exactly `n` events had been recorded
    /// for it. The comparison (and the resync it would imply) runs only
    /// when the engine has replayed exactly `n` events for that monitor
    /// — otherwise events are still in flight (buffered in a producer
    /// handle or a shard inbox, or never streamed at all) and comparing
    /// a lagging replay against a newer observation would fabricate
    /// mismatches. Gated-out monitors still get their pending replay
    /// and timer checks; the snapshot comparison simply waits for a
    /// quiescent sweep. Monitors without a gate entry are compared
    /// unconditionally (the trusted-fixture case: the caller knows the
    /// snapshot matches what was ingested).
    pub fn checkpoint_scoped(
        &mut self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        gates: &HashMap<MonitorId, u64>,
        only: Option<MonitorId>,
    ) -> FaultReport {
        self.checkpoint_inner(now, &[], snapshots, gates, only)
    }

    /// Timer-only checkpoint: checks the non-termination, starvation
    /// and hold-limit timers of the in-scope monitors without replaying
    /// any events or touching the pending windows — the shape of a
    /// scheduler sweep with no snapshot provider registered.
    pub fn checkpoint_timers(&mut self, now: Nanos, only: Option<MonitorId>) -> FaultReport {
        let mut report = FaultReport {
            violations: Vec::new(),
            predicted: Vec::new(),
            events_checked: 0,
            window_start: now,
            window_end: now,
        };
        for (&monitor, checker) in self.monitors.iter_mut() {
            if only.is_some_and(|m| m != monitor) {
                continue;
            }
            if checker.last_check < report.window_start {
                report.window_start = checker.last_check;
            }
            checker.general.check_timers(&self.cfg, now, &mut report.violations);
            checker.order.check_hold_timeout(&self.cfg, now, &mut report.violations);
            checker.last_check = now;
        }
        report.sort_canonical();
        report
    }

    fn checkpoint_inner(
        &mut self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
        gates: &HashMap<MonitorId, u64>,
        only: Option<MonitorId>,
    ) -> FaultReport {
        let mut report = FaultReport {
            violations: Vec::new(),
            predicted: Vec::new(),
            events_checked: 0,
            window_start: now,
            window_end: now,
        };
        let predict_on = self.cfg.predict.is_on();
        let mut predict_windows: Vec<(MonitorId, Vec<Event>)> = Vec::new();
        // Whether the explicit window is in `seq` order (a recorder
        // window always is), asked at most once per checkpoint.
        let window_sorted = std::cell::OnceCell::new();
        // Algorithm-1/2 verdicts of a window replayed in place, held
        // back so they follow the Algorithm-3 catch-up's as they do on
        // the buffered path. Empty, and unallocated, on a clean window.
        let mut replay_verdicts = Vec::new();
        for (&monitor, checker) in self.monitors.iter_mut() {
            if only.is_some_and(|m| m != monitor) {
                continue;
            }
            if checker.last_check < report.window_start {
                report.window_start = checker.last_check;
            }
            // Algorithm-2 only applies to communication coordinators.
            let coordinator =
                checker.spec.class == crate::spec::MonitorClass::CommunicationCoordinator;
            // Violations accumulate straight into the report (sorted
            // once at the end) — no per-monitor scratch allocation.
            let out = &mut report.violations;
            // The replay window: the monitor's pending real-time events
            // plus whatever the explicit window adds. Watermarks make
            // the union exact — an explicit-window event at or below
            // its caller's mark is either already replayed (skip) or
            // sitting in `pending` (counted once from there), so the
            // merged window holds every outstanding event exactly once.
            let mut merged = std::mem::take(&mut checker.pending);
            // A monitor that does not stream in real time has nothing
            // pending: the explicit window *is* its replay window, in
            // order already, and is replayed where it lies. Copying it
            // out first cost such a monitor a second window-sized
            // buffer, grown by doubling and page-faulted, per window.
            let in_place = merged.is_empty()
                && !predict_on
                && *window_sorted.get_or_init(|| events.is_sorted_by_key(|e| e.seq));
            let mut replayed_in_place = 0;
            for event in events.iter().filter(|e| e.monitor == monitor) {
                let mark = checker.order_marks.entry(event.pid).or_insert(0);
                if event.seq > *mark {
                    *mark = event.seq;
                    // Algorithm-3 catch-up for events that never passed
                    // through observe() (e.g. monitors that do not
                    // stream in real time). Terminate frees the
                    // caller's order state — see observe_into.
                    checker.order.apply(&checker.spec, event, out);
                    if matches!(event.kind, crate::event::EventKind::Terminate) {
                        checker.order.forget_caller(event.pid);
                    }
                    if in_place {
                        checker.replay(event, coordinator, &mut replay_verdicts);
                        replayed_in_place += 1;
                    } else {
                        merged.push(*event);
                    }
                }
            }
            out.append(&mut replay_verdicts);
            // Restore the one total order <L within the monitor: pended
            // batches from concurrent producers and the explicit window
            // may interleave, but `seq` is globally unique and assigned
            // in real order.
            merged.sort_unstable_by_key(|e| e.seq);
            for event in &merged {
                checker.replay(event, coordinator, out);
            }
            let replayed = replayed_in_place + merged.len() as u64;
            report.events_checked += replayed;
            checker.replayed += replayed;
            // The predictive pass works over the whole checkpoint's
            // windows at once (cross-monitor happens-before edges), so
            // park this monitor's window until the loop is done.
            if predict_on && !merged.is_empty() {
                predict_windows.push((monitor, std::mem::take(&mut merged)));
            }
            // Give the buffer back cleared (unless the predictor took
            // it), so the next window's observe_into refills it
            // instead of regrowing it from empty by doubling.
            merged.clear();
            checker.pending = merged;
            // Step 2: snapshot comparison, user assertions and timers.
            // The consistency gate (see checkpoint_scoped) may defer
            // the comparison to a later, quiescent sweep.
            let gate_open = gates.get(&monitor).is_none_or(|&want| want == checker.replayed);
            if let Some(observed) = snapshots.get(&monitor).filter(|_| gate_open) {
                checker.general.compare_snapshot(observed, now, out);
                if coordinator {
                    checker.resource.compare_snapshot(observed, now, out);
                }
                for assertion in &checker.spec.assertions {
                    assertion.check_into(monitor, observed, now, out);
                }
            }
            checker.general.check_timers(&self.cfg, now, out);
            checker.order.check_hold_timeout(&self.cfg, now, out);
            // Re-base on the observed state for the next window.
            if let Some(observed) = snapshots.get(&monitor).filter(|_| gate_open) {
                checker.general.resync(observed, now);
                if coordinator {
                    checker.resource.resync(observed);
                }
            }
            checker.last_check = now;
        }
        if predict_on && !predict_windows.is_empty() {
            let annotation = predict::Annotation::over(&predict_windows);
            for (monitor, window) in &predict_windows {
                if let Some(checker) = self.monitors.get(monitor) {
                    predict::predict_window(
                        &checker.order,
                        &checker.spec,
                        &self.cfg,
                        window,
                        &annotation,
                        now,
                        &mut report.predicted,
                    );
                }
            }
        }
        report.sort_canonical();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::ids::{CondId, Pid, PidProc, ProcName};
    use crate::rule::RuleId;

    const M: MonitorId = MonitorId::new(0);

    fn detector_with_buffer(cap: u64) -> (Detector, crate::spec::BoundedBufferSpec) {
        let bb = MonitorSpec::bounded_buffer("buf", cap);
        let mut det = Detector::new(DetectorConfig::without_timeouts());
        det.register_empty(M, Arc::new(bb.spec.clone()), Nanos::ZERO);
        (det, bb)
    }

    fn detector_with_allocator(units: u64) -> (Detector, crate::spec::AllocatorSpec) {
        let al = MonitorSpec::allocator("res", units);
        let mut det = Detector::new(DetectorConfig::without_timeouts());
        det.register_empty(M, Arc::new(al.spec.clone()), Nanos::ZERO);
        (det, al)
    }

    /// A checkpoint hands a monitor's pending buffer back cleared, with
    /// its capacity, so the next window does not regrow it.
    #[test]
    fn checkpoint_keeps_the_pending_buffers_capacity() {
        let (mut det, al) = detector_with_allocator(1);
        let mut sink = Vec::new();
        for seq in 1..=100u64 {
            let proc_name = if seq % 2 == 1 { al.request } else { al.release };
            det.observe_into(
                &Event::enter(seq, Nanos::new(seq * 10), M, Pid::new(1), proc_name, true),
                &mut sink,
            );
        }
        assert_eq!(det.checker(M).unwrap().pending_events(), 100);
        let _ = det.checkpoint_scoped(Nanos::new(2000), &HashMap::new(), &HashMap::new(), None);
        let pending = &det.monitors[&M].pending;
        assert!(pending.is_empty());
        assert!(pending.capacity() >= 100, "capacity {} after the checkpoint", pending.capacity());
    }

    #[test]
    fn register_empty_uses_spec_capacity() {
        let (det, _bb) = detector_with_buffer(3);
        assert!(det.is_registered(M));
        assert_eq!(det.checker(M).unwrap().resource().resource_no(), 3);
    }

    #[test]
    fn clean_producer_consumer_run_is_clean_across_checkpoints() {
        let (mut det, bb) = detector_with_buffer(2);
        let w1 = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), bb.send, true),
            Event::signal_exit(
                2,
                Nanos::new(20),
                M,
                Pid::new(1),
                bb.send,
                Some(bb.empty_cond),
                false,
            ),
        ];
        let mut snaps = HashMap::new();
        snaps.insert(M, MonitorState::with_resources(2, 1));
        let r1 = det.checkpoint(Nanos::new(30), &w1, &snaps);
        assert!(r1.is_clean(), "{r1}");
        assert_eq!(r1.events_checked, 2);

        let w2 = vec![
            Event::enter(3, Nanos::new(40), M, Pid::new(2), bb.receive, true),
            Event::signal_exit(
                4,
                Nanos::new(50),
                M,
                Pid::new(2),
                bb.receive,
                Some(bb.full_cond),
                false,
            ),
        ];
        snaps.insert(M, MonitorState::with_resources(2, 2));
        let r2 = det.checkpoint(Nanos::new(60), &w2, &snaps);
        assert!(r2.is_clean(), "{r2}");
    }

    #[test]
    fn observe_detects_release_without_request_in_real_time() {
        let (mut det, al) = detector_with_allocator(1);
        let e = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.release, true);
        let v = det.observe(&e);
        assert!(v.iter().any(|v| v.rule == RuleId::St8ReleaseWithoutRequest));
    }

    #[test]
    fn observe_batch_matches_single_event_observe() {
        let (mut det_single, al) = detector_with_allocator(1);
        let (mut det_batch, _) = detector_with_allocator(1);
        let events = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), al.request, true),
            Event::enter(2, Nanos::new(20), M, Pid::new(1), al.request, false),
            Event::enter(3, Nanos::new(30), M, Pid::new(2), al.release, false),
        ];
        let mut singles = Vec::new();
        for e in &events {
            singles.extend(det_single.observe(e));
        }
        let batched = det_batch.observe_batch(&events);
        assert_eq!(singles, batched);
        assert!(!batched.is_empty());
    }

    #[test]
    fn observe_into_appends_and_reports_count() {
        let (mut det, al) = detector_with_allocator(1);
        let mut out = Vec::new();
        let ok = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.request, true);
        assert_eq!(det.observe_into(&ok, &mut out), 0);
        assert_eq!(out.capacity(), 0, "clean events must not allocate");
        let bad = Event::enter(2, Nanos::new(20), M, Pid::new(1), al.request, false);
        let n = det.observe_into(&bad, &mut out);
        assert!(n > 0);
        assert_eq!(out.len(), n);
        // Replaying the same seq is covered by the watermark fast path.
        assert_eq!(det.observe_into(&bad, &mut out), 0);
    }

    #[test]
    fn cross_pid_reorder_does_not_lose_order_checks() {
        // Two callers' streams interleaved out of global seq order —
        // the shape two producer handles flushing at different times
        // produce. Per-pid order is preserved, so every per-pid check
        // must still fire exactly as in the globally ordered replay.
        let (mut det_global, al) = detector_with_allocator(2);
        let (mut det_reordered, _) = detector_with_allocator(2);
        let e = |seq: u64, pid: u32, proc_name| {
            Event::enter(seq, Nanos::new(seq * 10), M, Pid::new(pid), proc_name, false)
        };
        // pid 1: request (seq 1), duplicate request (seq 3).
        // pid 2: release without request (seq 2), request (seq 4).
        let global = vec![
            e(1, 1, al.request),
            e(2, 2, al.release),
            e(3, 1, al.request),
            e(4, 2, al.request),
        ];
        let reordered = vec![global[1], global[3], global[0], global[2]];
        let key = |v: &Violation| (v.pid, v.event_seq, v.rule);
        let mut want = det_global.observe_batch(&global);
        let mut got = det_reordered.observe_batch(&reordered);
        want.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, want);
        // Each faulty call fires its specific rule plus the declared
        // call-order rule.
        assert_eq!(want.len(), 4, "{want:?}");
        // Checkpoint catch-up must not double-report any of them.
        let r = det_reordered.checkpoint(Nanos::new(50), &global, &HashMap::new());
        assert!(
            !r.violates_any(&[RuleId::St8DuplicateRequest, RuleId::St8ReleaseWithoutRequest]),
            "{r}"
        );
    }

    #[test]
    fn terminate_frees_order_state_but_keeps_checking_a_resumed_caller() {
        let (mut det, al) = detector_with_allocator(2);
        let req = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.request, true);
        assert!(det.observe(&req).is_empty());
        let term = Event::terminate(3, Nanos::new(30), M, Pid::new(1), al.request);
        assert!(det.observe(&term).is_empty());
        // A straggler (an event seq'd before the terminate, arriving
        // late from a buffered batch) is dropped by the watermark, not
        // re-applied to freshly reset state.
        let straggler = Event::enter(2, Nanos::new(20), M, Pid::new(1), al.request, false);
        let mut out = Vec::new();
        assert_eq!(det.observe_into(&straggler, &mut out), 0);
        assert!(out.is_empty());
        // The Request-List survives the termination: the crashed holder
        // must keep tripping the ST-8c hold timer.
        assert!(det
            .checker(M)
            .unwrap()
            .order()
            .request_list()
            .iter()
            .any(|(p, _)| *p == Pid::new(1)));
        // A caller that *resumes* after recovery (terminate_inside
        // leaves the thread alive) is still checked: it still holds
        // the right, so a fresh request is a duplicate…
        let resumed = Event::enter(4, Nanos::new(40), M, Pid::new(1), al.request, false);
        let vs = det.observe(&resumed);
        assert!(vs.iter().any(|v| v.rule == RuleId::St8DuplicateRequest), "{vs:?}");
        // …and the eventual release clears the hold.
        let rel_enter = Event::enter(5, Nanos::new(50), M, Pid::new(1), al.release, true);
        let _ = det.observe(&rel_enter);
        let rel_exit =
            Event::signal_exit(6, Nanos::new(60), M, Pid::new(1), al.release, None, false);
        assert!(det.observe(&rel_exit).is_empty());
        assert!(det.checker(M).unwrap().order().request_list().is_empty());
    }

    #[test]
    fn observe_into_ignores_unregistered_monitors() {
        let (mut det, al) = detector_with_allocator(1);
        let stray =
            Event::enter(1, Nanos::new(10), MonitorId::new(7), Pid::new(1), al.release, true);
        let mut out = Vec::new();
        assert_eq!(det.observe_into(&stray, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn checkpoint_does_not_double_report_observed_events() {
        let (mut det, al) = detector_with_allocator(1);
        let e = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.release, true);
        let v = det.observe(&e);
        assert_eq!(v.len(), 2, "ST-8b and ST-8* both fire: {v:?}");
        // The same event replayed at the checkpoint must not re-report
        // the order violations (Algorithm-1 does flag the bare exit).
        let snaps = HashMap::new();
        let report = det.checkpoint(Nanos::new(20), &[e], &snaps);
        assert!(
            !report.violates_any(&[RuleId::St8ReleaseWithoutRequest, RuleId::St8CallOrder]),
            "{report}"
        );
    }

    #[test]
    fn checkpoint_catches_up_order_checks_without_observe() {
        let (mut det, al) = detector_with_allocator(1);
        let e = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.release, true);
        let snaps = HashMap::new();
        let report = det.checkpoint(Nanos::new(20), &[e], &snaps);
        assert!(report.violates_any(&[RuleId::St8ReleaseWithoutRequest]), "{report}");
    }

    #[test]
    fn lost_process_detected_via_snapshot_then_engine_resyncs() {
        let (mut det, bb) = detector_with_buffer(2);
        let events = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), bb.send, true),
            Event::enter(2, Nanos::new(11), M, Pid::new(2), bb.receive, false),
        ];
        // Snapshot lost P2 entirely.
        let mut snaps = HashMap::new();
        let mut obs = MonitorState::with_resources(2, 2);
        obs.running.push(PidProc::new(Pid::new(1), bb.send));
        snaps.insert(M, obs.clone());
        let r1 = det.checkpoint(Nanos::new(30), &events, &snaps);
        assert!(r1.violates_any(&[RuleId::St1EntrySnapshot]), "{r1}");
        // After resync the same snapshot is consistent.
        let r2 = det.checkpoint(Nanos::new(40), &[], &snaps);
        assert!(r2.is_clean(), "{r2}");
    }

    #[test]
    fn starvation_accumulates_across_checkpoints() {
        let bb = MonitorSpec::bounded_buffer("buf", 2);
        let cfg = DetectorConfig::builder()
            .t_io(Nanos::from_millis(50))
            .t_max(Nanos::from_secs(100))
            .t_limit(Nanos::from_secs(100))
            .build();
        let mut det = Detector::new(cfg);
        det.register_empty(M, Arc::new(bb.spec.clone()), Nanos::ZERO);

        let events = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), bb.send, true),
            Event::enter(2, Nanos::new(20), M, Pid::new(2), bb.receive, false),
        ];
        let mut obs = MonitorState::with_resources(2, 2);
        obs.running.push(PidProc::new(Pid::new(1), bb.send));
        obs.entry_queue.push(PidProc::new(Pid::new(2), bb.receive));
        let mut snaps = HashMap::new();
        snaps.insert(M, obs);

        // First checkpoint at 30 ms: P2 has waited < Tio.
        let r1 = det.checkpoint(Nanos::from_millis(30), &events, &snaps);
        assert!(!r1.violates_any(&[RuleId::St6EntryTimeout]), "{r1}");
        // Second checkpoint at 100 ms: same snapshot, the timer carried
        // over and has now exceeded Tio.
        let r2 = det.checkpoint(Nanos::from_millis(100), &[], &snaps);
        assert!(r2.violates_any(&[RuleId::St6EntryTimeout]), "{r2}");
    }

    #[test]
    fn events_for_unregistered_monitors_are_ignored() {
        let (mut det, bb) = detector_with_buffer(2);
        let stray = Event::enter(1, Nanos::new(10), MonitorId::new(9), Pid::new(1), bb.send, true);
        let report = det.checkpoint(Nanos::new(20), &[stray], &HashMap::new());
        assert!(report.is_clean());
        assert_eq!(report.events_checked, 0);
    }

    #[test]
    fn report_violations_are_sorted_by_event() {
        let (mut det, bb) = detector_with_buffer(2);
        let events = vec![
            // Exit without enter (seq 1), then double grant (seq 2, 3).
            Event::signal_exit(
                1,
                Nanos::new(10),
                M,
                Pid::new(3),
                bb.send,
                Some(bb.empty_cond),
                false,
            ),
            Event::enter(2, Nanos::new(20), M, Pid::new(1), bb.send, true),
            Event::enter(3, Nanos::new(30), M, Pid::new(2), bb.send, true),
        ];
        let report = det.checkpoint(Nanos::new(40), &events, &HashMap::new());
        let seqs: Vec<_> = report.violations.iter().map(|v| v.event_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        assert_eq!(seqs, sorted, "{report}");
        assert!(report.violates_any(&[RuleId::St3RunningIsCaller]));
        assert!(report.violates_any(&[RuleId::St3RunningUnique]));
    }

    #[test]
    fn a_window_replayed_in_place_reports_what_the_buffered_replay_reports() {
        // A faulty allocator window with Algorithm-3 verdicts (release
        // without request, duplicate request) and Algorithm-1 verdicts
        // (a second grant while busy) on interleaved callers.
        let (_, al) = detector_with_allocator(1);
        let window = vec![
            Event::enter(1, Nanos::new(10), M, Pid::new(1), al.release, true),
            Event::enter(2, Nanos::new(20), M, Pid::new(2), al.request, true),
            Event::signal_exit(3, Nanos::new(30), M, Pid::new(1), al.release, None, false),
            Event::enter(4, Nanos::new(40), M, Pid::new(2), al.request, true),
            Event::signal_exit(5, Nanos::new(50), M, Pid::new(2), al.request, None, false),
            Event::enter(6, Nanos::new(60), M, Pid::new(3), al.request, false),
        ];
        let check = |det: &mut Detector, events: &[Event]| {
            let report = det.checkpoint(Nanos::new(100), events, &HashMap::new());
            assert_eq!(det.checker(M).unwrap().replayed_events(), 6);
            report
        };
        // Sorted, nothing pending: replayed where it lies.
        let in_place = check(&mut detector_with_allocator(1).0, &window);
        assert!(in_place.violates_any(&[RuleId::St8ReleaseWithoutRequest]), "{in_place}");
        assert!(in_place.violates_any(&[RuleId::St8DuplicateRequest]), "{in_place}");
        assert_eq!(in_place.events_checked, 6);
        // Out of order (two callers' events swapped): copied out and
        // sorted first.
        let mut shuffled = window.clone();
        shuffled.swap(2, 3);
        let buffered = check(&mut detector_with_allocator(1).0, &shuffled);
        assert_eq!(buffered.violations, in_place.violations);
        assert_eq!(buffered.events_checked, 6);
        // Half of it streamed ahead of the window: merged with the
        // pending list. The streamed half's order verdicts were
        // returned by `observe`; the rest must match.
        let (mut det, _) = detector_with_allocator(1);
        let streamed = det.observe_batch(&window[..3]);
        let mut merged = check(&mut det, &window);
        merged.violations.extend(streamed);
        merged.sort_canonical();
        assert_eq!(merged.violations, in_place.violations);
        assert_eq!(merged.events_checked, 6);
    }

    #[test]
    fn double_acquire_diagnosed_with_fault_class() {
        let (mut det, al) = detector_with_allocator(1);
        let e1 = Event::enter(1, Nanos::new(10), M, Pid::new(1), al.request, true);
        let e2 = Event::enter(2, Nanos::new(20), M, Pid::new(1), al.request, false);
        assert!(det.observe(&e1).is_empty());
        let v = det.observe(&e2);
        assert!(v.iter().any(|x| x.fault == Some(FaultKind::DoubleAcquire)), "{v:?}");
    }

    #[test]
    fn condid_payloads_survive_engine_paths() {
        // Regression guard: signalling an out-of-range condition id must
        // not panic the engine.
        let (mut det, bb) = detector_with_buffer(1);
        let e = Event::signal_exit(
            1,
            Nanos::new(5),
            M,
            Pid::new(1),
            bb.send,
            Some(CondId::new(40)),
            true,
        );
        let report = det.checkpoint(Nanos::new(10), &[e], &HashMap::new());
        assert!(!report.is_clean());
    }

    #[test]
    fn proc_name_out_of_range_does_not_panic() {
        let (mut det, _bb) = detector_with_buffer(1);
        let e = Event::enter(1, Nanos::new(5), M, Pid::new(1), ProcName::new(99), true);
        let report = det.checkpoint(Nanos::new(10), &[e], &HashMap::new());
        // Entering and never leaving is not itself an ST-1..4 violation
        // without a snapshot; just ensure no panic and bookkeeping ran.
        assert_eq!(report.events_checked, 1);
    }
}
