//! The robust-monitor runtime: shared recorder, pluggable detection
//! backend, snapshot registry and the checkpoint suspension protocol.
//!
//! # The checkpoint barrier: gather under suspension, check after
//!
//! The paper's prototype suspends every process at a checkpoint and
//! resumes them *"only after the checking has finished"*. What that
//! pause protects is the checker's input — the window of events and the
//! queue snapshots must describe one instant — and Algorithms 1–2 read
//! nothing else. So the barrier (`RtInner::barrier`, behind
//! [`Runtime::checkpoint_now`] and the journaled
//! [`Runtime::checkpoint_scope`]) splits in two:
//!
//! 1. **Gather**, with every in-scope monitor's state lock held
//!    ([`RawCore::suspend`]; the primitives record under that lock, so
//!    the hot path pays no extra one): read the clock, take the window
//!    out of the recorder ([`Recorder::hand_over`] — a pointer move per
//!    chunk, no event is copied), snapshot the queues.
//! 2. **Check**, on the fixed window and the fixed snapshots: merge the
//!    window by `seq` into a buffer the runtime keeps between
//!    checkpoints, run [`DetectionBackend::checkpoint_window`], collect
//!    verdicts, journal.
//!
//! A monitor whose events reach the backend *only* through windows (no
//! calling-order concerns: `RawCore::streams_realtime` is false) is
//! released between the two steps; whatever it does next lands in the
//! next window and cannot touch this one. A monitor that **streams in
//! real time** keeps the paper's full pause: its events also enter the
//! backend's pending list as they are recorded, and one recorded after
//! the snapshot could be replayed before the comparison and fabricate
//! a mismatch. Its guard drops when the check returns.
//!
//! Two barriers are serialized by one checkpoint lock, taken *before*
//! suspending and held through the check, so windows reach the backend
//! in the order they left the recorder (lock order: checkpoint lock,
//! then monitor guards by ascending id). How long guards were actually
//! held is counted in [`Runtime::pause_stats`].
//!
//! Detection is behind the [`DetectionBackend`] trait: the runtime
//! holds an `Arc<dyn DetectionBackend>` and each observing thread
//! ingests through its own per-thread
//! [`ProducerHandle`](rmon_core::detect::ProducerHandle) (see
//! [`crate::registry`]), so the hot path acquires no mutex shared
//! between threads. [`InlineBackend`] keeps the paper's shape (one
//! detector, synchronous checks); [`ShardedBackend`] and
//! [`ScheduledBackend`](rmon_core::detect::ScheduledBackend) move the
//! checking work onto worker shards.

use crate::raw::RawCore;
use crate::recorder::Recorder;
use crate::registry;
use parking_lot::Mutex;
use rmon_core::detect::{
    CheckpointScope, ClockFn, DetectionBackend, InlineBackend, ServiceStats, SnapshotProvider,
};
use rmon_core::{
    DetectorConfig, Event, EventKind, FaultReport, Journal, JournalSink, Mode, MonitorId,
    MonitorState, Nanos, Pid, ProcName, RuleId, Violation,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What to do when a real-time calling-order check flags a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Record and report the violation; let the faulty call proceed
    /// (the paper's detection-only semantics).
    #[default]
    Report,
    /// Refuse the call with [`crate::MonitorError::Denied`] before it
    /// executes (fault *prevention* — a natural extension).
    Deny,
}

/// How a [`RuntimeBuilder`] obtains its backend at build time.
#[derive(Clone)]
enum BackendChoice {
    /// The default: an [`InlineBackend`] over the builder's config.
    Default,
    /// A backend the caller constructed.
    Ready(Arc<dyn DetectionBackend>),
    /// A factory invoked with the runtime's detection config and the
    /// recorder's clock — the way to build a backend (for example a
    /// scheduled one) whose internal timers run on the same time axis
    /// events are stamped with.
    Factory(Arc<dyn Fn(DetectorConfig, ClockFn) -> Arc<dyn DetectionBackend> + Send + Sync>),
}

impl std::fmt::Debug for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Default => f.write_str("Default"),
            BackendChoice::Ready(b) => write!(f, "Ready({})", b.label()),
            BackendChoice::Factory(_) => f.write_str("Factory(..)"),
        }
    }
}

/// Process-wide runtime token source: keys the per-thread producer
/// handles, so one thread can observe into several runtimes (tests do)
/// without their handles colliding.
static NEXT_RT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Shared state behind [`Runtime`].
pub(crate) struct RtInner {
    pub(crate) recorder: Arc<Recorder>,
    cfg: DetectorConfig,
    backend: Arc<dyn DetectionBackend>,
    token: u64,
    pub(crate) park_timeout: Duration,
    pub(crate) order_policy: OrderPolicy,
    /// Live monitors indexed by id: the snapshot provider resolves a
    /// monitor in O(1) (it runs three lookups per monitor per sweep),
    /// and the checkpoint paths take an id-sorted view so concurrent
    /// suspension sweeps always acquire state locks in one global
    /// order.
    monitors: Mutex<HashMap<MonitorId, Weak<RawCore>>>,
    next_monitor_id: AtomicU32,
    reports: Mutex<Vec<FaultReport>>,
    realtime: Mutex<Vec<Violation>>,
    /// The durable journal (usually over an `rmon-storage`
    /// `DurableSink`). Appends happen at registration time and
    /// checkpoint barriers only — never on the per-event hot path; the
    /// recorder's in-memory window is the staging area. A failing
    /// journal never blocks or panics detection: it counts its failures
    /// ([`Runtime::journal_errors`]).
    journal: Option<Journal>,
    /// The checkpoint lock (see the module docs): held from before the
    /// monitors are suspended until the window is checked and
    /// journaled, so windows reach the backend — and `Events → Realtime
    /// → Checkpoint` sequences the journal — in hand-over order. It
    /// guards what only a barrier touches.
    barrier: Mutex<BarrierState>,
    pause: PauseCounters,
}

/// What one barrier at a time works with, behind the checkpoint lock.
#[derive(Debug, Default)]
struct BarrierState {
    /// The merged window, kept between checkpoints so a steady stream
    /// of windows reuses one mapping; see [`recycle_window`] for when
    /// it shrinks.
    window: Vec<Event>,
    journal: JournalState,
}

/// Makes room in the kept (and empty) window buffer for `need` events.
/// A buffer that is too small is replaced, not grown: a growing `Vec`
/// copies its whole old allocation, and nothing in this one is live.
/// The replacement has room for twice the need — address space, not
/// memory, until it is written — so a checker that fell a little
/// behind, and finds its next window a little larger, faults in only
/// the pages past its high-water mark instead of a whole new buffer,
/// which would put it further behind.
fn make_room(window: &mut Vec<Event>, need: usize) {
    debug_assert!(window.is_empty(), "recycled after every checkpoint");
    if window.capacity() < need {
        *window = Vec::with_capacity(2 * need);
    }
}

/// Empties the kept window buffer after a checkpoint. Keeping it is
/// what spares the next window a fresh mapping and a page fault per
/// 4 KiB written; but one exceptional window must not pin its size
/// forever, so the buffer is given back once a window fills less than
/// an eighth of it — a quarter of what [`make_room`] sized it for, far
/// enough under half that windows of a steady size, or alternating
/// within a factor of two, never reallocate.
fn recycle_window(window: &mut Vec<Event>) {
    if window.len() < window.capacity() / 8 {
        *window = Vec::new();
    } else {
        window.clear();
    }
}

/// For how long checkpoints held monitor guards — see
/// [`Runtime::pause_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PauseStats {
    /// Checkpoints that suspended monitors.
    pub checkpoints: u64,
    /// The most recent pause, in nanoseconds.
    pub last_ns: u64,
    /// The longest pause so far.
    pub max_ns: u64,
    /// All pauses added up.
    pub total_ns: u64,
}

/// The live side of [`PauseStats`]. Statistics only — they publish no
/// other data — so every access is relaxed.
#[derive(Debug, Default)]
struct PauseCounters {
    checkpoints: AtomicU64,
    last_ns: AtomicU64,
    max_ns: AtomicU64,
    total_ns: AtomicU64,
}

impl PauseCounters {
    fn record(&self, pause: Duration) {
        let ns = pause.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.last_ns.store(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PauseStats {
        PauseStats {
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_ns: self.last_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }
}

/// Bookkeeping for the journal's commit protocol. A verdict may only be
/// journaled once the event it refers to sits in a *committed* window —
/// otherwise a crash that tears the next window off the log would leave
/// a recorded verdict with no recorded cause, and differential replay
/// could not reproduce it. The backend can hand us such early verdicts:
/// an event recorded just after the barrier's window drain can be
/// ingested, checked and collected before the same barrier drains the
/// backend's violations.
#[derive(Debug, Default)]
struct JournalState {
    /// How much of the runtime's `realtime` list has been examined.
    examined_realtime: usize,
    /// Highest event `seq` seen in any committed window.
    seq_high: u64,
    /// Seqs at or below `seq_high` that no committed window contained:
    /// stamped but not yet published when their window drained (seq
    /// assignment and segment publication are two steps). They arrive
    /// in a later window; until then their verdicts are held back. The
    /// set stays tiny — bounded by in-flight recording threads.
    gaps: std::collections::BTreeSet<u64>,
    /// Verdicts whose events are not yet committed, carried to the
    /// next barrier.
    holdback: Vec<Violation>,
}

impl JournalState {
    /// Folds a freshly committed window (sorted by `seq`, as every
    /// merged window is) into the frontier: one pass, in which an
    /// event at or below the frontier fills a gap and a jump past the
    /// next expected `seq` opens one.
    fn commit_window(&mut self, events: &[Event]) {
        debug_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "window sorted by seq");
        let mut expected = self.seq_high + 1;
        for e in events {
            if e.seq < expected {
                self.gaps.remove(&e.seq);
            } else {
                self.gaps.extend(expected..e.seq);
                expected = e.seq + 1;
            }
        }
        self.seq_high = expected - 1;
    }

    /// Whether a verdict's cause is in a committed window (verdicts
    /// with no event reference pass — they carry their own cause).
    fn committed(&self, v: &Violation) -> bool {
        v.event_seq.is_none_or(|s| s <= self.seq_high && !self.gaps.contains(&s))
    }
}

impl std::fmt::Debug for RtInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtInner")
            .field("backend", &self.backend.label())
            .field("park_timeout", &self.park_timeout)
            .field("order_policy", &self.order_policy)
            .field("events", &self.recorder.total())
            .finish_non_exhaustive()
    }
}

impl RtInner {
    pub(crate) fn allocate_monitor_id(&self) -> MonitorId {
        MonitorId::new(self.next_monitor_id.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn register_monitor(self: &Arc<Self>, core: &Arc<RawCore>) {
        self.monitors.lock().insert(core.id(), Arc::downgrade(core));
        let spec = core.spec();
        let initial = spec.empty_state();
        let now = self.recorder.now();
        self.backend.register(core.id(), Arc::clone(spec), &initial, now);
        // Journal the registration before any of the monitor's events
        // can drain: a replayer resolving the name back to its spec
        // then always sees the Register record first.
        if let Some(journal) = &self.journal {
            journal.register(core.id(), &spec.name, now);
        }
    }

    /// Records an event into the calling thread's recorder segment and
    /// — when `stream_realtime` is set (monitors with calling-order
    /// concerns, see [`RawCore`]) — feeds the real-time (Algorithm-3)
    /// path through the same thread's producer handle. One thread-local
    /// lookup reaches both; no cross-thread lock is acquired on this
    /// path. Violations surface through the backend collector at the
    /// next checkpoint or violation query. Events of monitors without
    /// order concerns skip the producer entirely: the periodic
    /// checkpoint's catch-up replay covers them.
    ///
    /// How hard the recording thread pushes is the monitor's
    /// **instrumentation mode**, answered per event by
    /// [`DetectionBackend::instrumentation_mode`] (so the owner of a
    /// mode-aware backend like
    /// [`AsyncBackend`](rmon_core::detect::AsyncBackend) can retune a
    /// monitor at run time). This is the one place a mode turns into
    /// waiting: a handle never waits on anything but a full inbox,
    /// which it reports as
    /// [`Backpressure::Full`](rmon_core::detect::Backpressure::Full):
    ///
    /// * [`Mode::Sync`] (the default; every non-mode-aware backend) —
    ///   non-blocking first: the handle's
    ///   [`try_observe`](rmon_core::detect::ProducerHandle::try_observe)
    ///   either hands the batch over or reports backpressure, and the
    ///   recording thread then retries a bounded number of times
    ///   (yielding between attempts, so a single-core host lets the
    ///   shard workers drain) before escalating to the blocking flush —
    ///   events are never dropped, but a transiently full inbox no
    ///   longer parks the monitored thread on the first refusal.
    /// * [`Mode::Async`] — fire-and-forget: one `try_observe`, never a
    ///   block. A refused batch stays retained in the handle and is
    ///   re-offered on the thread's next observation or flush (see the
    ///   pressure flag in `rmon_core::detect::shard`), and every
    ///   backend barrier flushes thread producers first, so asynchrony
    ///   defers checking latency without ever losing an event.
    /// * [`Mode::Hybrid`]`(t)` — Sync's yield-retry loop, but bounded
    ///   by the wall-clock budget `t` instead of a retry count; on
    ///   expiry the thread detaches exactly like Async.
    pub(crate) fn record_observe(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        kind: EventKind,
        stream_realtime: bool,
    ) {
        /// Non-blocking flush attempts before falling back to the
        /// blocking hand-off (Sync mode).
        const INGEST_RETRIES: usize = 8;
        // One backend call per event, outside the thread-state borrow:
        // mode cells are lock-free reads, and non-mode-aware backends
        // answer with the constant default.
        let mode =
            if stream_realtime { self.backend.instrumentation_mode(monitor) } else { Mode::Sync };
        registry::with_thread_state(self.token, &self.recorder, &self.backend, |st| {
            let event = self.recorder.record_on(&mut st.segment, monitor, pid, proc_name, kind);
            if !stream_realtime {
                return;
            }
            match mode {
                Mode::Async => {
                    let _ = st.producer.try_observe(event);
                }
                Mode::Sync => {
                    if st.producer.try_observe(event).is_full() {
                        let mut delivered = false;
                        for _ in 0..INGEST_RETRIES {
                            std::thread::yield_now();
                            if !st.producer.try_flush().is_full() {
                                delivered = true;
                                break;
                            }
                        }
                        if !delivered {
                            st.producer.flush();
                        }
                    }
                }
                Mode::Hybrid(bound) => {
                    if st.producer.try_observe(event).is_full() {
                        let deadline = std::time::Instant::now() + bound.to_duration();
                        loop {
                            std::thread::yield_now();
                            if !st.producer.try_flush().is_full()
                                || std::time::Instant::now() >= deadline
                            {
                                break;
                            }
                        }
                    }
                }
            }
        });
    }

    /// Flushes the calling thread's producer handle, so a subsequent
    /// backend barrier reflects everything this thread observed.
    fn flush_thread_producer(&self) {
        registry::with_thread_state(self.token, &self.recorder, &self.backend, |st| {
            st.producer.flush()
        });
    }

    /// Non-mutating real-time calling-order lookahead. The calling
    /// thread's handle is flushed first, so the answer reflects every
    /// event *this* thread already recorded — which, with per-caller
    /// order state, is exactly what the verdict depends on.
    pub(crate) fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId> {
        self.flush_thread_producer();
        self.backend.call_would_violate(monitor, pid, proc_name)
    }

    /// Moves violations the backend has collected into the runtime's
    /// real-time list, after flushing the calling thread's handle.
    pub(crate) fn drain_backend_violations(&self) {
        self.flush_thread_producer();
        let vs = self.backend.drain_violations();
        if !vs.is_empty() {
            self.realtime.lock().extend(vs);
        }
    }

    /// Upgrades the live monitor list, **sorted by id**. The `monitors`
    /// mutex is released before any state lock is taken, so
    /// registration (which inserts under the same mutex) never
    /// interleaves with a suspension sweep; the sort gives every
    /// suspension sweep the same lock-acquisition order, so two
    /// concurrent checkpoints cannot deadlock on each other's held
    /// guards.
    fn live_monitors(&self) -> Vec<Arc<RawCore>> {
        let mut cores: Vec<Arc<RawCore>> =
            self.monitors.lock().values().filter_map(Weak::upgrade).collect();
        cores.sort_unstable_by_key(|core| core.id());
        cores
    }

    /// Looks one live monitor up by id (the snapshot-provider path —
    /// three lookups per monitor per sweep, so this is O(1)).
    fn find_monitor(&self, monitor: MonitorId) -> Option<Arc<RawCore>> {
        self.monitors.lock().get(&monitor)?.upgrade()
    }

    /// Runs one checkpoint barrier over the monitors in `scope` — the
    /// one protocol behind [`Runtime::checkpoint_now`]
    /// ([`CheckpointScope::All`]) and the journaled
    /// [`Runtime::checkpoint_scope`]; the module docs have the why.
    ///
    /// Only in-scope monitors are suspended and snapshotted (scope
    /// resolution maps monitors to shards through
    /// [`DetectionBackend::shard_of`]), but the recorder window is
    /// always taken in full: the journal's commit protocol tracks one
    /// global committed frontier, so a narrower window would poke
    /// permanent holes in it, and the backend deduplicates by
    /// watermark anyway. Monitors created *while* the barrier runs are
    /// not suspended by it; their events simply land in the next
    /// window.
    ///
    /// Events still buffered in *other* threads' producer handles are
    /// not lost: the window contains them (the recorder is the source
    /// of truth) and the backend's per-caller watermarks deduplicate
    /// their eventual arrival.
    pub(crate) fn barrier(&self, scope: CheckpointScope) -> FaultReport {
        let mut barrier = self.barrier.lock();
        let BarrierState { window, journal: state } = &mut *barrier;
        let in_scope: Vec<Arc<RawCore>> = self
            .live_monitors()
            .into_iter()
            .filter(|core| match scope {
                CheckpointScope::All => true,
                CheckpointScope::Monitor(m) => core.id() == m,
                CheckpointScope::Shard(s) => self.backend.shard_of(core.id()) == s,
            })
            .collect();

        // Gather, under suspension. The pause runs from the moment the
        // first monitor is held: waiting for that guard stops nobody.
        let mut suspended = None;
        let guards: Vec<_> = in_scope
            .iter()
            .map(|core| {
                let guard = core.suspend();
                suspended.get_or_insert_with(Instant::now);
                guard
            })
            .collect();
        let now = self.recorder.now();
        let handover = self.recorder.hand_over();
        let mut snaps = HashMap::new();
        for (core, guard) in in_scope.iter().zip(&guards) {
            snaps.insert(core.id(), RawCore::snapshot_of(guard));
        }
        // Monitors that reach the backend only through windows resume
        // here; the ones that stream in real time stay suspended until
        // the check has finished (the paper's protocol — see the
        // module docs for what a post-snapshot event of theirs would
        // do to the comparison).
        let held: Vec<_> = in_scope
            .iter()
            .zip(guards)
            .filter_map(|(core, guard)| core.streams_realtime().then_some(guard))
            .collect();
        let resumed_early = suspended.filter(|_| held.is_empty()).map(|since| since.elapsed());

        // Check, on the fixed window and snapshots.
        make_room(window, handover.len());
        handover.merge_into(window);
        self.flush_thread_producer();
        let report = self.backend.checkpoint_window(now, window, &snaps);
        drop(held);
        if let Some(since) = suspended {
            self.pause.record(resumed_early.unwrap_or_else(|| since.elapsed()));
        }
        // Real-time violations found by the backend up to the
        // checkpoint barrier land in the runtime's list now.
        let vs = self.backend.drain_violations();
        if !vs.is_empty() {
            self.realtime.lock().extend(vs);
        }
        self.reports.lock().push(report.clone());
        if let Some(journal) = &self.journal {
            self.journal_checkpoint(journal, state, now, window, &snaps, &report);
        }
        recycle_window(window);
        report
    }

    /// Journals one checkpoint through [`Journal::commit`], choosing
    /// which verdicts are ready: only those whose causing event sits in
    /// a committed window (see [`JournalState`]); the rest are held
    /// back to a later barrier.
    fn journal_checkpoint(
        &self,
        journal: &Journal,
        state: &mut JournalState,
        now: Nanos,
        events: &[Event],
        snaps: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) {
        state.commit_window(events);
        let mut candidates = std::mem::take(&mut state.holdback);
        {
            let realtime = self.realtime.lock();
            candidates.extend_from_slice(&realtime[state.examined_realtime..]);
            state.examined_realtime = realtime.len();
        }
        let (ready, held): (Vec<Violation>, Vec<Violation>) =
            candidates.into_iter().partition(|v| state.committed(v));
        state.holdback = held;
        // The checkpoint report itself can cite events outside the
        // committed window: a *scoped* barrier leaves out-of-scope
        // monitors running, so their freshly recorded events may reach
        // the backend (through other threads' producer flushes) and be
        // judged before any window drains them. Journal only the
        // committed verdicts; hold the rest back — they re-surface as
        // realtime records once their window commits, and the replayer
        // compares verdict keys over the whole log, not per record.
        let (committed, uncommitted): (Vec<Violation>, Vec<Violation>) =
            report.violations.iter().cloned().partition(|v| state.committed(v));
        if uncommitted.is_empty() {
            journal.commit(events, &ready, now, snaps, report);
        } else {
            state.holdback.extend(uncommitted);
            let sanitized = FaultReport { violations: committed, ..report.clone() };
            journal.commit(events, &ready, now, snaps, &sanitized);
        }
    }
}

impl Drop for RtInner {
    fn drop(&mut self) {
        // Stop backend threads and mark the per-thread handles closed,
        // so stale handles on still-living threads get pruned — but
        // only when this runtime is the backend's sole owner. A caller
        // who kept their own `Arc` (or handed it elsewhere) keeps a
        // live backend; its own drop shuts it down when the last
        // reference goes.
        if Arc::strong_count(&self.backend) == 1 {
            self.backend.shutdown();
        }
    }
}

/// The runtime's [`SnapshotProvider`]: observes live monitor state by
/// reading each monitor's queues under its own state lock — the same
/// per-monitor `FastMutex` the primitives record their events under, so
/// every observation is internally consistent without any global pause.
///
/// Automatically registered on the runtime's detection backend at build
/// time, which is what upgrades scoped backend checkpoints (and the
/// scheduled backend's background shard sweeps) from timer-only checks
/// to the full Algorithm-1/2 comparison.
///
/// Consistency with the *ingested* event stream is answered through
/// [`SnapshotProvider::events_recorded`]: the per-monitor recorded
/// count moves atomically with the queue state (both mutate under the
/// state lock), so a backend bracketing its snapshot between two equal
/// counter reads knows exactly how many events the observation
/// reflects, and defers the comparison until its replay has consumed
/// that many. Monitors that do not stream in real time (no
/// calling-order concerns) therefore keep their snapshot comparisons
/// for the synchronous [`Runtime::checkpoint_now`] barrier — the gate
/// simply never opens for them between windows.
///
/// Holds only a [`Weak`] reference: a provider outliving its runtime
/// degrades to answering `None`, it never keeps the runtime alive.
#[derive(Debug, Clone)]
pub struct RuntimeSnapshotProvider {
    inner: Weak<RtInner>,
}

impl SnapshotProvider for RuntimeSnapshotProvider {
    fn snapshot(&self, monitor: MonitorId, _now: Nanos) -> Option<MonitorState> {
        let inner = self.inner.upgrade()?;
        let core = inner.find_monitor(monitor)?;
        Some(core.snapshot_queues())
    }

    fn events_recorded(&self, monitor: MonitorId) -> Option<u64> {
        let inner = self.inner.upgrade()?;
        Some(inner.find_monitor(monitor)?.events_recorded())
    }
}

/// Handle to a robust-monitor runtime. Cheap to clone; monitors created
/// against it share one recorder, one detection backend and one
/// checker.
#[derive(Debug, Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RtInner>,
}

impl Runtime {
    /// Creates a runtime with the given detection configuration and
    /// defaults (5 s park timeout, [`OrderPolicy::Report`], inline
    /// backend).
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::builder(cfg).build()
    }

    /// Starts building a runtime.
    pub fn builder(cfg: DetectorConfig) -> RuntimeBuilder {
        RuntimeBuilder {
            cfg,
            park_timeout: Duration::from_secs(5),
            order_policy: OrderPolicy::Report,
            backend: BackendChoice::Default,
            journal: None,
        }
    }

    /// Monotonic nanoseconds since the runtime was created.
    pub fn now(&self) -> Nanos {
        self.inner.recorder.now()
    }

    /// The configured order policy.
    pub fn order_policy(&self) -> OrderPolicy {
        self.inner.order_policy
    }

    /// Runs the periodic checking routine once, right now: the
    /// synchronous full-fidelity barrier. Every live monitor is
    /// suspended while the checker's input is *gathered* — the recorded
    /// window leaves the recorder (chunk by chunk, nothing is copied)
    /// and every monitor's queues are snapshotted, a matter of
    /// microseconds — and the gathered window and snapshots then go
    /// through [`DetectionBackend::checkpoint_window`]. The call
    /// returns when the check has, with its report.
    ///
    /// The paper's prototype keeps every process suspended until the
    /// check has finished. Here that holds for monitors that stream
    /// their events to the backend in real time (a declared call
    /// order, or Request/Release procedures — [`ResourceAllocator`](crate::ResourceAllocator)):
    /// their operations block until this call's check returns. All
    /// other monitors ([`BoundedBuffer`](crate::BoundedBuffer),
    /// [`OperationCell`](crate::OperationCell), plain
    /// [`Monitor`](crate::Monitor)s) resume as soon as the gathering is
    /// done and run *concurrently* with the check: it reads only the
    /// fixed window and snapshots, so the verdicts are the same and
    /// the application does not stand still for them (the module docs
    /// have the argument; [`Self::pause_stats`] has the measured
    /// pause). Concurrent calls are serialized: windows are checked in
    /// the order they were gathered.
    ///
    /// For the asynchronous, no-pause variant see
    /// [`Self::checkpoint_scope`].
    pub fn checkpoint_now(&self) -> FaultReport {
        self.inner.barrier(CheckpointScope::All)
    }

    /// For how long checkpoints have kept monitors suspended: per
    /// barrier, the time from taking the first monitor guard to
    /// dropping the last — the gathering alone when no suspended
    /// monitor streams in real time, the gathering plus the whole check
    /// when one does (see [`Self::checkpoint_now`]). This, not the wall
    /// time of `checkpoint_now()`, is what the application waited.
    pub fn pause_stats(&self) -> PauseStats {
        self.inner.pause.snapshot()
    }

    /// Runs a **scoped**, provider-backed checkpoint through
    /// [`DetectionBackend::checkpoint`]: no window is drained and no
    /// monitor is suspended — the backend replays the events it
    /// ingested in real time and compares against state observed
    /// through the runtime's [`RuntimeSnapshotProvider`] (registered at
    /// build time), consistency-gated per monitor. The cheap form for
    /// per-shard sweeps and on-demand checks of a single suspicious
    /// monitor; [`Self::checkpoint_now`] remains the stop-the-world
    /// consistency barrier.
    ///
    /// The report is folded into [`Self::reports`] like any other
    /// checkpoint.
    ///
    /// With a journal installed ([`RuntimeBuilder::journal`]), scoped
    /// checkpoints **commit**: the call becomes a scoped
    /// barrier — [`Self::checkpoint_now`]'s protocol, suspending and
    /// snapshotting only the in-scope monitors — that takes the full
    /// recorder window and journals the same `Events → Realtime →
    /// Checkpoint` sequence, so a crash between scoped checkpoints
    /// loses none of their windows.
    pub fn checkpoint_scope(&self, scope: CheckpointScope) -> FaultReport {
        if self.inner.journal.is_some() {
            return self.inner.barrier(scope);
        }
        self.inner.flush_thread_producer();
        let now = self.inner.recorder.now();
        let report = self.inner.backend.checkpoint(scope, now);
        let vs = self.inner.backend.drain_violations();
        if !vs.is_empty() {
            self.inner.realtime.lock().extend(vs);
        }
        self.inner.reports.lock().push(report.clone());
        report
    }

    /// A fresh [`SnapshotProvider`] over this runtime's live monitors —
    /// the same provider the builder registers on the detection
    /// backend, for callers wiring up external or composite backends.
    pub fn snapshot_provider(&self) -> Arc<dyn SnapshotProvider> {
        Arc::new(RuntimeSnapshotProvider { inner: Arc::downgrade(&self.inner) })
    }

    /// All checkpoint reports so far.
    pub fn reports(&self) -> Vec<FaultReport> {
        self.inner.reports.lock().clone()
    }

    /// The detection backend the runtime drives.
    pub fn backend(&self) -> &Arc<dyn DetectionBackend> {
        &self.inner.backend
    }

    /// The backend's diagnostic label (`"inline"`, `"sharded"`,
    /// `"scheduled"`, …).
    pub fn backend_label(&self) -> &'static str {
        self.inner.backend.label()
    }

    /// Ingestion counters, uniform across backends: per-shard entries
    /// for sharded backends, a single pseudo-shard for inline. The
    /// calling thread's handle is flushed first, so the snapshot
    /// covers everything this thread observed.
    pub fn service_stats(&self) -> ServiceStats {
        self.inner.flush_thread_producer();
        self.inner.backend.stats()
    }

    /// All real-time (calling-order) violations so far.
    pub fn realtime_violations(&self) -> Vec<Violation> {
        self.inner.drain_backend_violations();
        self.inner.realtime.lock().clone()
    }

    /// Every violation seen so far (checkpoints + real-time).
    pub fn all_violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> =
            self.reports().into_iter().flat_map(|r| r.violations).collect();
        out.extend(self.realtime_violations());
        out
    }

    /// Whether no violation has been reported yet.
    pub fn is_clean(&self) -> bool {
        self.inner.drain_backend_violations();
        self.inner.reports.lock().iter().all(FaultReport::is_clean)
            && self.inner.realtime.lock().is_empty()
    }

    /// Total events recorded.
    pub fn events_recorded(&self) -> u64 {
        self.inner.recorder.total()
    }

    /// Detection configuration.
    pub fn config(&self) -> DetectorConfig {
        self.inner.cfg
    }

    /// Journal appends that have failed so far (disk errors on the
    /// configured [`JournalSink`]). Detection never
    /// blocks on a failing journal; a nonzero counter means the durable
    /// log is missing records and operators should treat replay from it
    /// as incomplete.
    pub fn journal_errors(&self) -> u64 {
        self.inner.journal.as_ref().map_or(0, Journal::errors)
    }

    /// The kind and message of the first journal append that failed,
    /// `None` while [`Self::journal_errors`] is zero. `InvalidInput` is
    /// a record the sink refused as past its size cap; any other kind
    /// is an OS append or fsync failure.
    pub fn first_journal_error(&self) -> Option<(std::io::ErrorKind, String)> {
        self.inner.journal.as_ref()?.first_error()
    }
}

/// Builder for [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    cfg: DetectorConfig,
    park_timeout: Duration,
    order_policy: OrderPolicy,
    backend: BackendChoice,
    journal: Option<Arc<dyn JournalSink>>,
}

impl RuntimeBuilder {
    /// How long a thread parks on a queue before giving up with
    /// [`crate::MonitorError::Timeout`] (a liveness safety net under
    /// injected faults; correct workloads never hit it).
    pub fn park_timeout(mut self, d: Duration) -> Self {
        self.park_timeout = d;
        self
    }

    /// Sets the real-time calling-order policy.
    pub fn order_policy(mut self, p: OrderPolicy) -> Self {
        self.order_policy = p;
        self
    }

    /// Installs a detection backend the caller constructed (default:
    /// an [`InlineBackend`] over the builder's config).
    ///
    /// Prefer [`Self::backend_with`] for backends with internal timers
    /// (the scheduled backend), so they run on the recorder's clock.
    ///
    /// The backend must be **exclusive to this runtime**: runtimes
    /// allocate their monitor ids independently, so two runtimes
    /// registering into one backend would collide in its monitor
    /// namespace. The runtime shuts the backend down when it is
    /// dropped as the sole owner; callers that keep their own `Arc`
    /// keep it alive (and responsible for its shutdown).
    ///
    /// This is also the seam for *distributed* detection: a
    /// `rmon_net::RemoteBackend` connected to a detection service in
    /// another process is an ordinary `DetectionBackend`, and
    /// [`Self::build`] registers the runtime's snapshot provider with
    /// it like any other backend, so service-initiated checkpoint
    /// fan-outs can gather this runtime's live monitor states.
    pub fn backend(mut self, backend: Arc<dyn DetectionBackend>) -> Self {
        self.backend = BackendChoice::Ready(backend);
        self
    }

    /// Installs a backend *factory*, invoked at [`Self::build`] with
    /// the detection config and the runtime recorder's clock — event
    /// timestamps and backend-internal timers then share one time
    /// axis.
    ///
    /// # Examples
    ///
    /// ```
    /// use rmon_core::detect::{ScheduledBackend, SchedulerConfig, ServiceConfig};
    /// use rmon_core::DetectorConfig;
    /// use rmon_rt::Runtime;
    /// use std::sync::Arc;
    ///
    /// let rt = Runtime::builder(DetectorConfig::default())
    ///     .backend_with(|cfg, clock| {
    ///         Arc::new(ScheduledBackend::with_clock(
    ///             cfg,
    ///             ServiceConfig::new(4),
    ///             SchedulerConfig::default(),
    ///             clock,
    ///         ))
    ///     })
    ///     .build();
    /// assert_eq!(rt.backend_label(), "scheduled");
    /// ```
    pub fn backend_with(
        mut self,
        factory: impl Fn(DetectorConfig, ClockFn) -> Arc<dyn DetectionBackend> + Send + Sync + 'static,
    ) -> Self {
        self.backend = BackendChoice::Factory(Arc::new(factory));
        self
    }

    /// Journals the runtime through one sink (typically an
    /// `rmon-storage` `DurableSink`): events and verdicts interleave in
    /// a single totally ordered log — the layout the commit protocol
    /// and the differential replayer assume. An `Epoch` record is
    /// appended at [`Self::build`]; every [`Runtime::checkpoint_now`]
    /// barrier then commits `Events → Realtime → Checkpoint` and syncs.
    pub fn journal<S: JournalSink + 'static>(mut self, sink: Arc<S>) -> Self {
        self.journal = Some(sink);
        self
    }

    /// Finishes the runtime and registers its snapshot provider on the
    /// backend (see [`RuntimeSnapshotProvider`]), so scoped backend
    /// checkpoints — including scheduled per-shard sweeps — run the
    /// full Algorithm-1/2 comparison from day one.
    pub fn build(self) -> Runtime {
        // Prediction needs happens-before stamps on the recorded
        // events; everything else keeps the lock-free recorder.
        let recorder = Arc::new(if self.cfg.predict.is_on() {
            Recorder::with_clocks()
        } else {
            Recorder::new()
        });
        let backend = match self.backend {
            BackendChoice::Default => Arc::new(InlineBackend::new(self.cfg)) as _,
            BackendChoice::Ready(backend) => backend,
            BackendChoice::Factory(factory) => {
                let r = Arc::clone(&recorder);
                let clock: ClockFn = Arc::new(move || r.now());
                factory(self.cfg, clock)
            }
        };
        let rt = Runtime {
            inner: Arc::new(RtInner {
                recorder,
                cfg: self.cfg,
                backend,
                token: NEXT_RT_TOKEN.fetch_add(1, Ordering::Relaxed),
                park_timeout: self.park_timeout,
                order_policy: self.order_policy,
                monitors: Mutex::new(HashMap::new()),
                next_monitor_id: AtomicU32::new(0),
                reports: Mutex::new(Vec::new()),
                realtime: Mutex::new(Vec::new()),
                journal: self.journal.map(Journal::new),
                barrier: Mutex::new(BarrierState::default()),
                pause: PauseCounters::default(),
            }),
        };
        rt.inner.backend.set_snapshot_provider(rt.snapshot_provider());
        // Mark the journal attach point: monitor ids and event sequence
        // numbers restart from zero behind this record, so a replayer
        // resets its detector state here (process restarts journal into
        // the same log as fresh epochs).
        if let Some(journal) = &rt.inner.journal {
            journal.epoch(rt.inner.recorder.now());
        }
        rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::detect::{
        Backpressure, ScheduledBackend, SchedulerConfig, ServiceConfig, ShardedBackend,
    };
    use rmon_core::MonitorSpec;

    #[test]
    fn runtime_defaults() {
        let rt = Runtime::new(DetectorConfig::default());
        assert_eq!(rt.order_policy(), OrderPolicy::Report);
        assert!(rt.is_clean());
        assert_eq!(rt.events_recorded(), 0);
        assert!(rt.now() < Nanos::from_secs(5));
    }

    #[test]
    fn builder_overrides() {
        let rt = Runtime::builder(DetectorConfig::default())
            .park_timeout(Duration::from_millis(50))
            .order_policy(OrderPolicy::Deny)
            .build();
        assert_eq!(rt.order_policy(), OrderPolicy::Deny);
        assert_eq!(rt.inner.park_timeout, Duration::from_millis(50));
    }

    #[test]
    fn checkpoint_on_empty_runtime_is_clean() {
        let rt = Runtime::new(DetectorConfig::default());
        let report = rt.checkpoint_now();
        assert!(report.is_clean());
        assert_eq!(rt.reports().len(), 1);
    }

    #[test]
    fn default_backend_is_inline_with_uniform_stats() {
        let rt = Runtime::new(DetectorConfig::default());
        assert_eq!(rt.backend_label(), "inline");
        let stats = rt.service_stats();
        assert_eq!(stats.shard_count(), 1);
        assert_eq!(stats.total_events(), 0);
    }

    #[test]
    fn scoped_checkpoint_matches_checkpoint_now_on_streaming_monitors() {
        // The same deterministic single-thread faulty script on two
        // identical runtimes: the provider-backed scoped checkpoint
        // must report what the synchronous barrier reports (allocator
        // monitors stream every event, so the consistency gate opens
        // at quiescence).
        let drive = |rt: &Runtime| {
            let allocators: Vec<_> =
                (0..6).map(|i| crate::ResourceAllocator::new(rt, &format!("r{i}"), 2)).collect();
            for al in &allocators {
                al.request().unwrap();
                let _ = al.request(); // U3: duplicate request
                al.release().unwrap();
                let _ = al.release(); // U1: release without request
            }
        };
        // Compare on the stable identity (detected_at is wall clock and
        // differs between runs by construction).
        type Key = (MonitorId, Option<Pid>, Option<u64>, RuleId);
        let keys = |mut vs: Vec<Violation>| -> Vec<Key> {
            vs.sort_by_key(|v| (v.monitor, v.pid, v.event_seq, v.rule));
            vs.into_iter().map(|v| (v.monitor, v.pid, v.event_seq, v.rule)).collect()
        };
        let sync_rt = sharded_rt(2, 4);
        drive(&sync_rt);
        let _ = sync_rt.checkpoint_now();
        let want = keys(sync_rt.all_violations());

        let scoped_rt = sharded_rt(2, 4);
        drive(&scoped_rt);
        let _ = scoped_rt.checkpoint_scope(CheckpointScope::All);
        let got = keys(scoped_rt.all_violations());
        assert_eq!(got, want, "scoped checkpoint must match the synchronous barrier");
        assert!(!got.is_empty(), "the script injects U1/U3 faults");

        // Per-shard scopes cover the same ground as All.
        let by_shard_rt = sharded_rt(2, 4);
        drive(&by_shard_rt);
        for shard in 0..2 {
            let _ = by_shard_rt.checkpoint_scope(CheckpointScope::Shard(shard));
        }
        let by_shard = keys(by_shard_rt.all_violations());
        assert_eq!(by_shard, want, "per-shard scopes must union to All");
    }

    #[test]
    fn monitor_scope_checks_one_monitor_on_demand() {
        let rt = sharded_rt(2, 64);
        let good = crate::ResourceAllocator::new(&rt, "good", 1);
        let bad = crate::ResourceAllocator::new(&rt, "bad", 1);
        good.request().unwrap();
        good.release().unwrap();
        bad.request().unwrap(); // held past the checkpoint: still consistent
        let bad_id = MonitorId::new(1); // ids are allocated in creation order
        let report = rt.checkpoint_scope(CheckpointScope::Monitor(bad_id));
        // Only `bad`'s two events (request = Enter + Signal-Exit) are
        // replayed; `good`'s pending window stays untouched.
        assert_eq!(report.events_checked, 2, "{report}");
        assert!(report.is_clean(), "a held right is a consistent state: {report}");
        bad.release().unwrap();
    }

    fn sharded_rt(shards: usize, batch: usize) -> Runtime {
        Runtime::builder(DetectorConfig::without_timeouts())
            .backend_with(move |cfg, _clock| {
                Arc::new(ShardedBackend::new(cfg, ServiceConfig::new(shards)).with_batch(batch))
            })
            .park_timeout(Duration::from_millis(200))
            .build()
    }

    fn async_rt(mode: Mode, shards: usize, batch: usize) -> Runtime {
        let cfg = DetectorConfig { mode, ..DetectorConfig::without_timeouts() };
        Runtime::builder(cfg)
            .backend_with(move |cfg, _clock| {
                Arc::new(
                    rmon_core::detect::AsyncBackend::new(cfg, ServiceConfig::new(shards))
                        .with_batch(batch),
                )
            })
            .park_timeout(Duration::from_millis(200))
            .build()
    }

    #[test]
    fn async_backend_modes_match_the_sharded_reference_through_the_runtime() {
        // The same single-thread faulty script through the full rt
        // record path (RawCore::observe → record_observe → mode
        // branch): every instrumentation mode must converge on the
        // sharded reference verdicts once a checkpoint barrier has
        // flushed the thread's handle and checked the window.
        // Single-threaded driving keeps pids, monitor ids and event
        // seqs identical across runtimes.
        let drive = |rt: &Runtime| {
            let allocators: Vec<_> =
                (0..4).map(|i| crate::ResourceAllocator::new(rt, &format!("r{i}"), 2)).collect();
            for al in &allocators {
                al.request().unwrap();
                let _ = al.request(); // U3: duplicate request
                al.release().unwrap();
                let _ = al.release(); // U1: release without request
            }
        };
        type Key = (MonitorId, Option<Pid>, Option<u64>, RuleId);
        let verdicts = |rt: &Runtime| -> Vec<Key> {
            let _ = rt.checkpoint_now();
            let mut vs = rt.all_violations();
            vs.sort_by_key(|v| (v.monitor, v.pid, v.event_seq, v.rule));
            vs.into_iter().map(|v| (v.monitor, v.pid, v.event_seq, v.rule)).collect()
        };

        let reference = sharded_rt(2, 4);
        drive(&reference);
        let want = verdicts(&reference);
        assert!(!want.is_empty(), "the script injects U1/U3 faults");

        for mode in [Mode::Sync, Mode::Async, Mode::Hybrid(Nanos::from_micros(50))] {
            let rt = async_rt(mode, 2, 4);
            assert_eq!(rt.backend_label(), "async");
            drive(&rt);
            // Every event streams (allocators have order concerns) and
            // none is lost to fire-and-forget: 4 allocators × 4 calls
            // × (Enter + Signal-Exit). service_stats flushes the
            // thread handle, and the backend's stats wait until the
            // shards have processed every batch.
            assert_eq!(rt.service_stats().total_events(), 32, "{mode:?}");
            assert_eq!(verdicts(&rt), want, "{mode:?} must match the sharded reference");
        }
    }

    /// What a [`FullHandle`] was asked to do.
    #[derive(Debug, Default)]
    struct HandleCalls {
        try_observe: AtomicU32,
        try_flush: AtomicU32,
        flush: AtomicU32,
    }

    impl HandleCalls {
        fn read(&self) -> [u32; 3] {
            [&self.try_observe, &self.try_flush, &self.flush].map(|n| n.load(Ordering::Relaxed))
        }
    }

    /// A handle whose inbox is always full: every non-blocking call
    /// reports `Full`, and `flush` returns as if it had blocked until
    /// the inbox took the batch.
    #[derive(Debug)]
    struct FullHandle(Arc<HandleCalls>);

    impl rmon_core::detect::ProducerHandle for FullHandle {
        fn observe(&mut self, _event: Event) {
            unreachable!("the record path hands events over through try_observe");
        }

        fn flush(&mut self) {
            self.0.flush.fetch_add(1, Ordering::Relaxed);
        }

        fn try_observe(&mut self, _event: Event) -> Backpressure {
            self.0.try_observe.fetch_add(1, Ordering::Relaxed);
            Backpressure::Full
        }

        fn try_flush(&mut self) -> Backpressure {
            self.0.try_flush.fetch_add(1, Ordering::Relaxed);
            Backpressure::Full
        }

        fn pending(&self) -> usize {
            0
        }

        fn is_closed(&self) -> bool {
            false
        }
    }

    /// A backend that checks nothing: it answers one mode for every
    /// monitor and hands out [`FullHandle`]s.
    #[derive(Debug)]
    struct FullBackend {
        mode: Mode,
        calls: Arc<HandleCalls>,
    }

    impl DetectionBackend for FullBackend {
        fn register(&self, _: MonitorId, _: Arc<MonitorSpec>, _: &MonitorState, _: Nanos) {}

        fn producer(&self) -> Box<dyn rmon_core::detect::ProducerHandle> {
            Box::new(FullHandle(Arc::clone(&self.calls)))
        }

        fn call_would_violate(&self, _: MonitorId, _: Pid, _: ProcName) -> Option<RuleId> {
            None
        }

        fn set_snapshot_provider(&self, _: Arc<dyn SnapshotProvider>) {}

        fn checkpoint(&self, _: CheckpointScope, _: Nanos) -> FaultReport {
            FaultReport::default()
        }

        fn checkpoint_window(
            &self,
            _: Nanos,
            _: &[Event],
            _: &HashMap<MonitorId, MonitorState>,
        ) -> FaultReport {
            FaultReport::default()
        }

        fn stats(&self) -> ServiceStats {
            ServiceStats { shards: Vec::new() }
        }

        fn drain_violations(&self) -> Vec<Violation> {
            Vec::new()
        }

        fn shutdown(&self) {}

        fn label(&self) -> &'static str {
            "full"
        }

        fn instrumentation_mode(&self, _: MonitorId) -> Mode {
            self.mode
        }
    }

    /// The record path is the one place a mode turns into waiting.
    /// Against an inbox that never takes a batch, one allocator request
    /// (its events stream, the allocator has order concerns) shows each
    /// mode's loop per event: Sync tries once, retries 8 times and then
    /// blocks in `flush`; Hybrid(t) retries for at least `t` and never
    /// blocks; Async tries once.
    #[test]
    fn record_path_applies_each_mode_to_a_full_inbox() {
        let drive = |mode: Mode| {
            let calls = Arc::new(HandleCalls::default());
            let backend = Arc::new(FullBackend { mode, calls: Arc::clone(&calls) });
            let rt = Runtime::builder(DetectorConfig::without_timeouts()).backend(backend).build();
            let al = crate::ResourceAllocator::new(&rt, "res", 1);
            let start = Instant::now();
            al.request().unwrap();
            (calls.read(), start.elapsed())
        };

        // Enter + Signal-Exit: two streamed events per request.
        let ([observes, retries, flushes], _) = drive(Mode::Sync);
        assert_eq!(observes, 2);
        assert_eq!([retries, flushes], [8 * observes, observes], "Sync: 8 retries, then a flush");

        let bound = Duration::from_millis(5);
        let ([observes, retries, flushes], took) = drive(Mode::Hybrid(Nanos::from(bound)));
        assert_eq!(observes, 2);
        assert!(retries >= observes, "Hybrid retries until its bound: {retries}");
        assert_eq!(flushes, 0, "Hybrid never blocks");
        assert!(took >= bound, "Hybrid({bound:?}) returned after {took:?}");

        let (calls, _) = drive(Mode::Async);
        assert_eq!(calls, [2, 0, 0], "Async: one try_observe per event and nothing else");
    }

    fn scheduled_rt(shards: usize, batch: usize) -> Runtime {
        Runtime::builder(DetectorConfig::without_timeouts())
            .backend_with(move |cfg, clock| {
                Arc::new(
                    ScheduledBackend::with_clock(
                        cfg,
                        ServiceConfig::new(shards),
                        SchedulerConfig::new(Duration::from_millis(1)),
                        clock,
                    )
                    .with_batch(batch),
                )
            })
            .park_timeout(Duration::from_millis(200))
            .build()
    }

    #[test]
    fn sharded_backend_clean_fleet_stays_clean() {
        let rt = sharded_rt(4, 8);
        let allocators: Vec<_> =
            (0..8).map(|i| crate::ResourceAllocator::new(&rt, &format!("r{i}"), 1)).collect();
        for al in &allocators {
            al.request().unwrap();
            al.release().unwrap();
        }
        assert!(rt.checkpoint_now().is_clean());
        assert!(rt.is_clean());
        let stats = rt.service_stats();
        assert_eq!(stats.shard_count(), 4);
        assert_eq!(stats.shards.iter().map(|s| s.monitors).sum::<u64>(), 8);
        // Each request/release records Enter + Signal-Exit: 8 monitors
        // × 2 calls × 2 events, all through the batched path.
        assert_eq!(stats.total_events(), 32);
    }

    #[test]
    fn sharded_backend_reports_order_faults_like_inline() {
        let rt = sharded_rt(2, 4);
        let al = crate::ResourceAllocator::new(&rt, "res", 2);
        al.request().unwrap();
        // Duplicate request by the same thread: fault U3 / ST-8a.
        let _ = al.request();
        let vs = rt.realtime_violations();
        assert!(
            vs.iter().any(|v| v.rule == rmon_core::RuleId::St8DuplicateRequest),
            "sharded backend must surface the duplicate request: {vs:?}"
        );
        assert!(!rt.is_clean());
    }

    #[test]
    fn scheduled_backend_behaves_like_sharded_for_order_faults() {
        let rt = scheduled_rt(2, 4);
        assert_eq!(rt.backend_label(), "scheduled");
        let al = crate::ResourceAllocator::new(&rt, "res", 2);
        al.request().unwrap();
        let _ = al.request();
        let vs = rt.realtime_violations();
        assert!(
            vs.iter().any(|v| v.rule == rmon_core::RuleId::St8DuplicateRequest),
            "scheduled backend must surface the duplicate request: {vs:?}"
        );
    }

    #[test]
    fn sharded_backend_deny_policy_uses_synchronous_lookahead() {
        let rt = Runtime::builder(DetectorConfig::without_timeouts())
            .backend_with(|cfg, _clock| {
                Arc::new(ShardedBackend::new(cfg, ServiceConfig::new(3)).with_batch(16))
            })
            .order_policy(OrderPolicy::Deny)
            .build();
        let al = crate::ResourceAllocator::new(&rt, "res", 1);
        // Release before any request must be denied even while the
        // batch buffer is far from full (the lookahead flushes it).
        assert!(matches!(al.release(), Err(crate::MonitorError::Denied(_))));
        al.request().unwrap();
        al.release().unwrap();
        assert!(rt.checkpoint_now().is_clean());
    }

    /// Runs a deterministic faulty two-thread script under
    /// [`OrderPolicy::Deny`] and returns each thread's denial trace:
    /// for every call, the rule the lookahead denied it with (if any).
    ///
    /// Two producer threads mean the synchronous `call_would_violate`
    /// races with the *other* thread's in-flight batches — the point
    /// of the satellite test: per-pid order state plus
    /// flush-own-handle-first makes every verdict depend only on the
    /// calling thread's own (already flushed) history, so the traces
    /// are deterministic and backend-independent.
    fn deny_trace(rt: &Runtime) -> Vec<Vec<Option<RuleId>>> {
        let allocators: Vec<_> =
            (0..4).map(|i| crate::ResourceAllocator::new(rt, &format!("r{i}"), 2)).collect();
        let mut joins = Vec::new();
        for _ in 0..2 {
            let als = allocators.clone();
            joins.push(std::thread::spawn(move || {
                let rule_of = |r: Result<(), crate::MonitorError>| match r {
                    Ok(()) => None,
                    Err(crate::MonitorError::Denied(v)) => Some(v.rule),
                    Err(e) => panic!("unexpected error: {e:?}"),
                };
                let mut outcomes = Vec::new();
                for _ in 0..10 {
                    for al in &als {
                        // request, duplicate request (denied), release,
                        // double release (denied).
                        outcomes.push(rule_of(al.request()));
                        outcomes.push(rule_of(al.request()));
                        outcomes.push(rule_of(al.release()));
                        outcomes.push(rule_of(al.release()));
                    }
                }
                outcomes
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn deny_lookahead_with_concurrent_producers_matches_inline() {
        let make = |label: &str| -> Runtime {
            let b = Runtime::builder(DetectorConfig::without_timeouts())
                .order_policy(OrderPolicy::Deny)
                .park_timeout(Duration::from_millis(500));
            match label {
                "inline" => b.build(),
                "sharded" => b
                    .backend_with(|cfg, _clock| {
                        // batch 3: deliberately misaligned with the
                        // 4-call pattern so flush points drift.
                        Arc::new(ShardedBackend::new(cfg, ServiceConfig::new(4)).with_batch(3))
                    })
                    .build(),
                "scheduled" => b
                    .backend_with(|cfg, clock| {
                        Arc::new(
                            ScheduledBackend::with_clock(
                                cfg,
                                ServiceConfig::new(4),
                                SchedulerConfig::new(Duration::from_millis(1)),
                                clock,
                            )
                            .with_batch(3),
                        )
                    })
                    .build(),
                _ => unreachable!(),
            }
        };
        let inline_rt = make("inline");
        let want = deny_trace(&inline_rt);
        assert!(inline_rt.checkpoint_now().is_clean(), "denied calls never execute");
        assert!(
            want.iter().flatten().any(|o| o == &Some(RuleId::St8DuplicateRequest)),
            "the script must exercise denials: {want:?}"
        );
        for label in ["sharded", "scheduled"] {
            let rt = make(label);
            let got = deny_trace(&rt);
            assert_eq!(got, want, "{label} denial trace must match inline");
            let report = rt.checkpoint_now();
            assert!(report.is_clean(), "{label}: {report}");
            assert!(rt.is_clean(), "{label}");
        }
    }

    #[test]
    fn dropping_a_runtime_leaves_a_caller_shared_backend_open() {
        let backend: Arc<dyn DetectionBackend> = Arc::new(ShardedBackend::new(
            DetectorConfig::without_timeouts(),
            ServiceConfig::new(2),
        ));
        let rt = Runtime::builder(DetectorConfig::without_timeouts())
            .backend(Arc::clone(&backend))
            .build();
        let probe = backend.producer();
        drop(rt);
        // The caller still holds the backend: it must not have been
        // shut down under them.
        assert!(!probe.is_closed(), "shared backend must survive the runtime");
        drop(probe);
        drop(backend); // last owner: workers join here
    }

    #[test]
    fn journal_commit_protocol_orders_records() {
        use rmon_core::oplog::Record;
        use rmon_core::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let rt =
            Runtime::builder(DetectorConfig::without_timeouts()).journal(Arc::clone(&sink)).build();
        // Epoch lands at build time, registrations as monitors appear.
        let al = crate::ResourceAllocator::new(&rt, "res", 2);
        al.request().unwrap();
        let _ = al.release(); // ok
        let _ = al.release(); // U1: release without request → realtime verdict
        let _ = rt.checkpoint_now();
        assert_eq!(rt.journal_errors(), 0);

        let records = sink.records();
        assert!(matches!(records[0], Record::Epoch { .. }));
        assert!(matches!(&records[1], Record::Register { name, .. } if name == "res"));
        // The barrier commits Events → Realtime → Checkpoint, in order.
        let tags: Vec<u8> = records[2..].iter().map(Record::tag).collect();
        assert_eq!(tags, vec![3, 4, 5], "commit sequence: {records:?}");
        let Record::Checkpoint { snapshots, report, .. } = records.last().unwrap() else {
            panic!("last record must be the commit marker");
        };
        assert_eq!(snapshots.len(), 1, "one live monitor observed");
        assert!(report.events_checked > 0);

        // An empty barrier elides the empty window and verdict batch
        // but still writes its commit marker.
        let _ = rt.checkpoint_now();
        let records = sink.records();
        assert!(matches!(records.last().unwrap(), Record::Checkpoint { .. }));
        assert_eq!(records.len(), 6);
        assert_eq!(rt.first_journal_error(), None);
    }

    /// A journal whose every append fails the way a full disk does.
    #[derive(Debug)]
    struct FailingSink;

    impl JournalSink for FailingSink {
        fn append_epoch(&self, _: Nanos) -> std::io::Result<()> {
            Err(std::io::Error::other("disk gone"))
        }
        fn append_register(&self, _: MonitorId, _: &str, _: Nanos) -> std::io::Result<()> {
            Err(std::io::Error::other("disk gone"))
        }
        fn append_events(&self, _: &[Event]) -> std::io::Result<()> {
            Err(std::io::Error::other("disk gone"))
        }
        fn append_realtime(&self, _: &[Violation]) -> std::io::Result<()> {
            Err(std::io::Error::other("disk gone"))
        }
        fn append_checkpoint(
            &self,
            _: Nanos,
            _: &HashMap<MonitorId, MonitorState>,
            _: &FaultReport,
        ) -> std::io::Result<()> {
            Err(std::io::Error::other("disk gone"))
        }
    }

    #[test]
    fn a_failing_journal_is_counted_with_its_first_error() {
        let rt = Runtime::builder(DetectorConfig::without_timeouts())
            .journal(Arc::new(FailingSink))
            .build();
        let al = crate::ResourceAllocator::new(&rt, "res", 1);
        let _ = al.release(); // U1: a verdict to journal
        let _ = rt.checkpoint_now();
        assert!(rt.journal_errors() >= 1);
        assert_eq!(rt.first_journal_error(), Some((std::io::ErrorKind::Other, "disk gone".into())));
        // Detection does not depend on the journal.
        assert!(!rt.is_clean());
    }

    /// `commit_window` as it was: every `seq` of the window into a
    /// `HashSet`, every `seq` up to the new frontier probed in it.
    fn commit_window_by_set(journal: &mut JournalState, events: &[Event]) {
        let Some(max) = events.iter().map(|e| e.seq).max() else { return };
        let seen: std::collections::HashSet<u64> = events.iter().map(|e| e.seq).collect();
        for s in &seen {
            journal.gaps.remove(s);
        }
        for s in journal.seq_high + 1..=max {
            if !seen.contains(&s) {
                journal.gaps.insert(s);
            }
        }
        journal.seq_high = journal.seq_high.max(max);
    }

    #[test]
    fn commit_window_scan_equals_the_set_it_replaced() {
        let window = |seqs: &[u64]| -> Vec<Event> {
            seqs.iter()
                .map(|&s| {
                    Event::terminate(
                        s,
                        Nanos::new(s),
                        MonitorId::new(0),
                        Pid::new(1),
                        ProcName::new(0),
                    )
                })
                .collect()
        };
        // Windows with holes, late fills (alone, and ahead of fresh
        // events), an empty window, a fill of a seq that was never a
        // gap, and a first window that does not start at 1.
        let script: [&[u64]; 9] = [
            &[3, 4, 7],
            &[],
            &[1, 8, 9, 12],
            &[2, 5],
            &[6, 10, 11, 13, 14],
            &[4],
            &[20],
            &[15, 16, 17, 18, 19, 21],
            &[],
        ];
        let (mut scan, mut set) = (JournalState::default(), JournalState::default());
        for seqs in script {
            let events = window(seqs);
            scan.commit_window(&events);
            commit_window_by_set(&mut set, &events);
            assert_eq!((scan.seq_high, &scan.gaps), (set.seq_high, &set.gaps), "after {seqs:?}");
        }
        assert_eq!(scan.seq_high, 21);
        assert!(scan.gaps.is_empty(), "every hole was filled: {:?}", scan.gaps);
        // Mid-script the frontier did hold gaps, and verdicts on them
        // were held back.
        let mut j = JournalState::default();
        j.commit_window(&window(&[3, 4, 7]));
        assert_eq!(j.gaps.iter().copied().collect::<Vec<_>>(), [1, 2, 5, 6]);
        assert_eq!(j.seq_high, 7);
    }

    #[test]
    fn the_window_buffer_is_kept_while_used_and_given_back_after_a_one_off() {
        let e =
            Event::terminate(1, Nanos::new(1), MonitorId::new(0), Pid::new(1), ProcName::new(0));
        let mut window = Vec::new();
        make_room(&mut window, 1000);
        let cap = window.capacity();
        assert!(cap >= 2000, "room for a window a little larger next time");
        for used in [1000, 2000, 500, 1000, cap / 8] {
            make_room(&mut window, used);
            window.resize(used, e);
            recycle_window(&mut window);
            assert!(window.is_empty());
            assert_eq!(window.capacity(), cap, "a window of {used} keeps the buffer");
        }
        // One exceptional window, then business as usual: the big
        // buffer goes with the first ordinary window.
        make_room(&mut window, 10 * cap);
        window.resize(10 * cap, e);
        recycle_window(&mut window);
        assert!(window.capacity() >= 10 * cap);
        make_room(&mut window, 1000);
        window.resize(1000, e);
        recycle_window(&mut window);
        assert_eq!(window.capacity(), 0, "the one-off's buffer is not pinned");
        // An idle runtime holds nothing.
        make_room(&mut window, 1000);
        recycle_window(&mut window);
        assert_eq!(window.capacity(), 0);
    }

    #[test]
    fn two_runtimes_on_one_thread_keep_separate_handles() {
        // The per-thread handle registry is keyed by runtime token: the
        // same thread observing into two runtimes must not cross their
        // streams.
        let a = sharded_rt(2, 64);
        let b = sharded_rt(2, 64);
        let al_a = crate::ResourceAllocator::new(&a, "res", 1);
        let al_b = crate::ResourceAllocator::new(&b, "res", 1);
        al_a.request().unwrap();
        // Only runtime B sees a release-without-request.
        let _ = al_b.release();
        assert!(!b.is_clean());
        al_a.release().unwrap();
        assert!(a.checkpoint_now().is_clean());
        assert!(a.is_clean());
    }
}
