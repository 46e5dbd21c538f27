//! The pluggable detection API: [`DetectionBackend`] separates *where
//! checking runs* from *how events get there* ([`ProducerHandle`]).
//!
//! The paper's detector is one observer bolted onto one monitor
//! implementation. Scaling it up surfaced two orthogonal decisions —
//! the instrumentation point (how a monitored thread hands its events
//! to the detection layer) and the checking strategy (inline, sharded
//! workers, scheduled per-shard sweeps) — that were previously fused
//! into the runtime. This module separates them:
//!
//! * [`DetectionBackend`] is the checking side: registration, the
//!   synchronous calling-order lookahead, the periodic checkpoint,
//!   stats, violation collection and shutdown. Implementations differ
//!   only in where the work runs; this crate has two, the
//!   [`InlineBackend`] below and the shard core
//!   ([`crate::detect::shard`]).
//! * [`ProducerHandle`] is the instrumentation side: a cheap
//!   **per-thread** handle that owns its own batch buffer. The hot
//!   path — [`ProducerHandle::observe`] — touches no state shared with
//!   other producers: events accumulate in the handle and leave as one
//!   bounded-channel send per batch per shard. No shared mutex is
//!   acquired per observed event.
//!
//! The provided backends:
//!
//! * [`InlineBackend`] — the paper's shape: one [`Detector`] behind one
//!   lock, checked synchronously on the observing thread. Its handles
//!   are unbuffered (every `observe` is a lock + check).
//! * [`ShardedBackend`](crate::detect::ShardedBackend) — the shard
//!   core: monitors partition across worker shards, each handle owns
//!   per-shard batch buffers plus its own clones of the shard inbox
//!   senders — the multi-producer ingestion front-end.
//!   [`AsyncBackend`](crate::detect::AsyncBackend) is another name of
//!   it.
//! * [`ScheduledBackend`](crate::detect::ScheduledBackend) — the same
//!   core with a ticker (a thread sweeps the shards round-robin, no
//!   global barrier).
//!
//! No backend holds an instrumentation [`Mode`](crate::Mode): how long
//! an observing thread keeps offering an event its handle refused is
//! configuration of the embedding runtime, applied on its record path.
//!
//! # Why per-thread handles are sound
//!
//! Real-time (Algorithm-3) order state is **per-caller**: the
//! Request-List and call-order table states are keyed by [`Pid`],
//! so events of different pids commute. A handle preserves its own
//! thread's event order (its buffer is FIFO, and per-producer channel
//! order is FIFO), which is exactly the per-pid ordering the engine's
//! per-pid watermarks require — batches from different handles may
//! interleave arbitrarily without losing or double-reporting a check.
//! Events still buffered in *some other thread's* handle at checkpoint
//! time are not lost either: the checkpoint replays the full recorded
//! window with per-pid watermark catch-up, and the straggler batch is
//! deduplicated by the same watermark when it eventually arrives.
//!
//! # Examples
//!
//! ```
//! use rmon_core::detect::{DetectionBackend, InlineBackend, ServiceConfig, ShardedBackend};
//! use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, Nanos, Pid};
//! use std::sync::Arc;
//!
//! let al = MonitorSpec::allocator("res", 1);
//! let spec = Arc::new(al.spec.clone());
//! let m = MonitorId::new(0);
//!
//! // The same driver code works against any backend.
//! let backends: Vec<Box<dyn DetectionBackend>> = vec![
//!     Box::new(InlineBackend::new(DetectorConfig::without_timeouts())),
//!     Box::new(ShardedBackend::new(
//!         DetectorConfig::without_timeouts(),
//!         ServiceConfig::new(2),
//!     )),
//! ];
//! for backend in &backends {
//!     backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
//!     let mut producer = backend.producer();
//!     producer.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.release, true));
//!     producer.flush();
//!     let vs = backend.drain_violations();
//!     assert!(!vs.is_empty(), "{}: release without request", backend.label());
//!     backend.shutdown();
//! }
//! ```

use crate::config::DetectorConfig;
use crate::detect::{Detector, ServiceStats, ShardStats};
use crate::event::Event;
use crate::ids::{MonitorId, Pid, ProcName};
use crate::rule::RuleId;
use crate::spec::MonitorSpec;
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::violation::{FaultReport, Violation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What a [`DetectionBackend::checkpoint`] covers: the whole backend,
/// one worker shard, or one monitor.
///
/// Scopes exist so the periodic checking routine no longer has to be a
/// global barrier: a scheduler (or an operator) can sweep one shard at
/// a time, and a suspicious monitor can be checked on demand without
/// touching its neighbours. On the [`InlineBackend`] — one pseudo-shard
/// — `Shard(0)` is equivalent to `All` and any other shard index is an
/// empty no-op, mirroring how [`DetectionBackend::stats`] reports a
/// single pseudo-shard there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointScope {
    /// Checkpoint every registered monitor (the full fan-out).
    All,
    /// Checkpoint the monitors owned by one worker shard.
    Shard(usize),
    /// Checkpoint a single monitor.
    Monitor(MonitorId),
}

/// A source of live monitor-state observations — the paper's `s_t`
/// (§3.3.2) behind a trait, so *any* backend can run the Algorithm-1/2
/// snapshot comparisons without the caller hand-feeding it a snapshot
/// map.
///
/// The embedding runtime implements this by reading each monitor's
/// queues under its existing state lock (`rmon-rt` snapshots under the
/// same per-monitor `FastMutex` its primitives record under); tests and
/// trace drivers use a [`SnapshotTable`]. Register a provider with
/// [`DetectionBackend::set_snapshot_provider`] and every
/// [`DetectionBackend::checkpoint`] — including the scheduled backend's
/// background shard sweeps — upgrades from timer-only checking to the
/// full Algorithm-1/2/timer comparison.
///
/// # Consistency
///
/// A snapshot is only comparable against checking lists that have
/// replayed **exactly** the events recorded up to the moment it was
/// taken. Providers that observe live, concurrently-mutated monitors
/// expose [`SnapshotProvider::events_recorded`] so the checkpoint can
/// *gate* the comparison: the backend reads the counter before and
/// after taking the snapshot (a seqlock — an unchanged count brackets a
/// quiescent observation) and the engine compares only when its replay
/// has caught up to that count. A gated-out monitor keeps its timers
/// checked and its pending events replayed; the comparison simply waits
/// for a quiescent sweep instead of fabricating mismatches from events
/// still in flight. Providers serving fixed, already-consistent
/// snapshots return `None` and are compared unconditionally.
pub trait SnapshotProvider: Send + Sync + std::fmt::Debug {
    /// Observes one monitor's current `⟨EQ, CQ[], Running, R#⟩` state,
    /// or `None` if the provider does not know the monitor (it is then
    /// checked in pure event-stream mode: replay and timers, no
    /// comparison).
    fn snapshot(&self, monitor: MonitorId, now: Nanos) -> Option<MonitorState>;

    /// How many events have been recorded for `monitor` so far, or
    /// `None` if the provider's snapshots are consistent by
    /// construction (fixtures over quiescent traces). See the
    /// [consistency](SnapshotProvider#consistency) contract.
    fn events_recorded(&self, monitor: MonitorId) -> Option<u64> {
        let _ = monitor;
        None
    }
}

/// A [`SnapshotProvider`] over an updatable table — the fixture shape:
/// tests pin the observed states a trace ends in, trace drivers publish
/// the simulator's states as virtual time advances.
///
/// Optional per-monitor expected event counts turn the table into a
/// *gated* provider (see [`SnapshotProvider::events_recorded`]): a
/// backend sweeping mid-ingestion then defers the comparison until its
/// replay has consumed exactly that many events — which is what makes
/// it safe to register a table holding **final** states on a backend
/// that checkpoints **during** the drive.
///
/// # Examples
///
/// ```
/// use rmon_core::detect::SnapshotTable;
/// use rmon_core::{MonitorId, MonitorState};
/// use std::collections::HashMap;
///
/// let table = SnapshotTable::default();
/// table.publish(MonitorId::new(0), MonitorState::with_resources(1, 2));
/// ```
#[derive(Debug, Default)]
pub struct SnapshotTable {
    inner: Mutex<SnapshotTableInner>,
}

#[derive(Debug, Default)]
struct SnapshotTableInner {
    snapshots: HashMap<MonitorId, MonitorState>,
    counts: HashMap<MonitorId, u64>,
}

impl SnapshotTable {
    /// A table pre-filled with `snapshots` and no consistency gates
    /// (every comparison runs unconditionally).
    pub fn from_snapshots(snapshots: HashMap<MonitorId, MonitorState>) -> Self {
        SnapshotTable {
            inner: Mutex::new(SnapshotTableInner { snapshots, counts: HashMap::new() }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SnapshotTableInner> {
        lock(&self.inner)
    }

    /// Publishes (or replaces) one monitor's observed state.
    pub fn publish(&self, monitor: MonitorId, state: MonitorState) {
        self.lock().snapshots.insert(monitor, state);
    }

    /// Publishes (or replaces) a whole batch of observed states.
    pub fn publish_all(&self, snapshots: HashMap<MonitorId, MonitorState>) {
        self.lock().snapshots.extend(snapshots);
    }

    /// Arms the consistency gate for `monitor`: its snapshot is only
    /// compared by a checkpoint whose replay has consumed exactly
    /// `events` events for it.
    pub fn expect_events(&self, monitor: MonitorId, events: u64) {
        self.lock().counts.insert(monitor, events);
    }
}

impl SnapshotProvider for SnapshotTable {
    fn snapshot(&self, monitor: MonitorId, _now: Nanos) -> Option<MonitorState> {
        self.lock().snapshots.get(&monitor).cloned()
    }

    fn events_recorded(&self, monitor: MonitorId) -> Option<u64> {
        self.lock().counts.get(&monitor).copied()
    }
}

/// Outcome of a non-blocking ingestion attempt
/// ([`ProducerHandle::try_observe`] / [`ProducerHandle::try_flush`]).
///
/// `Full` never means the event was lost: the handle keeps it buffered
/// and hands it over on a later (try-)flush. The value is the
/// *backpressure signal* a caller that must not block (an async
/// executor, a latency-critical hot path) reacts to — retry the flush
/// later, or escalate to the blocking [`ProducerHandle::flush`] when
/// giving up is not an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Full result means buffered events still await delivery"]
pub enum Backpressure {
    /// Everything handed over (or buffered below the flush threshold);
    /// nothing awaits a retry.
    Accepted,
    /// At least one shard inbox was full: part of the batch stays
    /// buffered in the handle. Retry with
    /// [`ProducerHandle::try_flush`], or block with
    /// [`ProducerHandle::flush`].
    Full,
}

impl Backpressure {
    /// Whether the backend pushed back (buffered events remain).
    pub fn is_full(self) -> bool {
        matches!(self, Backpressure::Full)
    }
}

/// A per-thread ingestion handle: the instrumentation side of the
/// detection API.
///
/// Handles are created by [`DetectionBackend::producer`], are `Send`
/// (move one into each observing thread) and are **not** shared: all
/// methods take `&mut self`, and the whole point of the type is that
/// `observe` works against handle-local state only.
///
/// A handle buffers events and hands them to the backend in batches;
/// [`ProducerHandle::flush`] forces the hand-off. Violations never
/// surface through the handle — they are collected by the backend
/// ([`DetectionBackend::drain_violations`]).
///
/// Dropping a handle flushes it (while the backend is open), so
/// buffered events are not lost when an observing thread exits.
pub trait ProducerHandle: Send + std::fmt::Debug {
    /// Ingests one event. May buffer; may run the real-time checks
    /// synchronously (the inline backend does). Events observed after
    /// [`DetectionBackend::shutdown`] are silently dropped.
    fn observe(&mut self, event: Event);

    /// Hands any buffered events to the backend. After `flush`, a
    /// subsequent backend barrier ([`DetectionBackend::checkpoint_window`],
    /// [`DetectionBackend::drain_violations`]) reflects everything this
    /// handle observed.
    fn flush(&mut self);

    /// Non-blocking [`Self::observe`]: ingests the event into the
    /// handle's buffer and, if that crosses the flush threshold,
    /// attempts a non-blocking hand-off. Returns
    /// [`Backpressure::Full`] when a shard inbox pushed back — the
    /// event (and the rest of the batch) stays buffered for a later
    /// retry; nothing is ever dropped by backpressure.
    ///
    /// The default forwards to [`Self::observe`] and reports
    /// [`Backpressure::Accepted`] — correct for handles that never
    /// block on a full queue, like the inline backend's synchronous
    /// handle. A handle never waits here: how long to keep retrying
    /// after `Full` is the instrumentation [`Mode`](crate::Mode), which
    /// the caller applies.
    fn try_observe(&mut self, event: Event) -> Backpressure {
        self.observe(event);
        Backpressure::Accepted
    }

    /// Non-blocking [`Self::flush`]: hands over whatever the shard
    /// inboxes will take right now and reports whether anything had to
    /// stay behind. Pairs with [`Self::try_observe`] for bounded-retry
    /// ingestion policies (try, yield, retry, eventually block).
    fn try_flush(&mut self) -> Backpressure {
        self.flush();
        Backpressure::Accepted
    }

    /// Events observed but not yet handed to the backend.
    fn pending(&self) -> usize;

    /// Whether the backend behind this handle has shut down (stale
    /// handles can be pruned by their owners).
    fn is_closed(&self) -> bool;
}

/// A detection engine behind a uniform, shareable interface: the
/// checking side of the detection API.
///
/// Backends are `Send + Sync` and designed to live in an
/// `Arc<dyn DetectionBackend>` shared by a runtime, its monitors and
/// its checker thread, with each observing thread holding its own
/// [`ProducerHandle`].
///
/// # Contract
///
/// * **Ingestion order** — each pid's events must reach the backend in
///   `seq` order (one thread, one handle satisfies this); different
///   pids and different handles may interleave freely.
/// * **Barriers** — `checkpoint_window`, `checkpoint`,
///   `drain_violations` and `stats` see every event previously
///   *flushed* to the backend. Events still buffered in another
///   thread's handle are picked up by the next window checkpoint's
///   replay (per-pid watermarks deduplicate), or by a later scoped
///   checkpoint once they arrive.
/// * **Lookahead** — `call_would_violate` answers from the caller's
///   per-pid order state; flush the calling thread's handle first so
///   the answer reflects that thread's own history.
/// * **Retention** — ingested events are retained for the periodic
///   Algorithm-1/2 replay until *some* checkpoint form consumes them
///   (`checkpoint` or `checkpoint_window`; the scheduled backend's
///   background sweeps do it automatically once a snapshot provider is
///   registered, which an embedding runtime does at build time).
///   Deployments that only ever drain real-time violations must still
///   checkpoint periodically, exactly as the recorded window itself
///   must be drained — otherwise the pending replay window grows with
///   the stream.
/// * **Shutdown** — stops background work and drops subsequent
///   ingestion; every method stays safe to call afterwards.
pub trait DetectionBackend: Send + Sync + std::fmt::Debug {
    /// Registers a monitor with its declaration and initial observed
    /// state. Events for unregistered monitors are ignored.
    fn register(
        &self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    );

    /// Creates a fresh per-thread ingestion handle.
    fn producer(&self) -> Box<dyn ProducerHandle>;

    /// Non-mutating real-time calling-order lookahead (ST-8): would an
    /// `Enter` of `proc_name` by `pid` violate right now? Runtimes
    /// that *prevent* faults (`rmon_rt`'s `OrderPolicy::Deny`) consult
    /// this before executing the call.
    fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId>;

    /// Registers the source of live monitor-state observations that
    /// [`Self::checkpoint`] compares against. Without a provider,
    /// scoped checkpoints run in pure event-stream mode (replay and
    /// timers, no Algorithm-1/2 snapshot comparison) and the scheduled
    /// backend's background sweeps stay timer-only.
    ///
    /// An embedding runtime registers itself here at build time; the
    /// provider must observe the same monitors (same
    /// [`MonitorId`] namespace) this backend was registered with.
    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>);

    /// Runs the periodic checking routine over `scope` **without a
    /// caller-drained window**: each in-scope monitor's pending
    /// real-time events are replayed through Algorithms 1–2, its state
    /// is observed through the registered [`SnapshotProvider`] (gated
    /// for consistency — see the provider's contract) and compared, and
    /// its timers are checked. This is the full §3.3.2 check as a
    /// *backend capability*: inline, sharded and scheduled backends all
    /// honour every scope, so per-shard sweeps and on-demand per-monitor
    /// checks need no global barrier.
    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport;

    /// Runs the periodic checking routine (Algorithms 1–3 plus timers)
    /// over the explicitly drained window `events` and the observed
    /// `snapshots`, returning the merged report in canonical order —
    /// the synchronous-barrier form [`Self::checkpoint`] generalizes.
    /// Events the backend already ingested in real time are
    /// deduplicated against the window by the engine's per-caller
    /// watermarks.
    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport;

    /// Ingestion counters, uniform across backends: per-shard entries
    /// for sharded backends, a single pseudo-shard for inline. The
    /// snapshot is quiescent with respect to everything flushed before
    /// the call.
    fn stats(&self) -> ServiceStats;

    /// Takes all real-time violations collected since the last drain.
    #[must_use = "dropping the return value discards detected violations"]
    fn drain_violations(&self) -> Vec<Violation>;

    /// Stops background threads and drops subsequent ingestion.
    /// Idempotent; implicitly performed on drop.
    fn shutdown(&self);

    /// A short static label for diagnostics (`"inline"`, `"sharded"`,
    /// `"scheduled"`, …).
    fn label(&self) -> &'static str;

    /// The shard a monitor's checking runs on. Backends without
    /// sharding live on a single pseudo-shard `0`; sharded backends
    /// override this with their partition function so callers (e.g. a
    /// scoped-checkpoint barrier resolving
    /// [`CheckpointScope::Shard`] to the monitors it covers) can map
    /// monitors to shards without knowing the backend flavour.
    fn shard_of(&self, monitor: MonitorId) -> usize {
        let _ = monitor;
        0
    }

    /// Registers a monitor starting from the canonical empty state
    /// ([`MonitorSpec::empty_state`]).
    fn register_empty(&self, monitor: MonitorId, spec: Arc<MonitorSpec>, now: Nanos) {
        let initial = spec.empty_state();
        self.register(monitor, spec, &initial, now);
    }
}

/// Gathers gated snapshots for `monitors` from a provider, running the
/// seqlock dance per monitor: read the recorded-event counter, take the
/// snapshot, read the counter again. An unchanged counter brackets a
/// quiescent observation and becomes that monitor's consistency gate;
/// a counter that moved (recording raced the observation) drops the
/// snapshot from this sweep — the monitor is still replayed and
/// timer-checked, and a later sweep picks the comparison up.
///
/// Providers without counters (`events_recorded` → `None`) are trusted:
/// their snapshots are compared ungated.
///
/// Public because remote deployments run the dance on the *worker*
/// side: `rmon-net`'s `RemoteBackend` answers the service's checkpoint
/// fan-out by gathering gated snapshots from its local provider and
/// shipping `(snapshots, gates)` over the wire.
pub fn gather_snapshots(
    provider: Option<&dyn SnapshotProvider>,
    monitors: &[MonitorId],
    now: Nanos,
) -> (HashMap<MonitorId, MonitorState>, HashMap<MonitorId, u64>) {
    let mut snapshots = HashMap::new();
    let mut gates = HashMap::new();
    if let Some(provider) = provider {
        for &monitor in monitors {
            let before = provider.events_recorded(monitor);
            let Some(state) = provider.snapshot(monitor, now) else { continue };
            match (before, provider.events_recorded(monitor)) {
                (Some(a), Some(b)) if a == b => {
                    gates.insert(monitor, a);
                    snapshots.insert(monitor, state);
                }
                (None, None) => {
                    snapshots.insert(monitor, state);
                }
                // The observation raced active recording: skip the
                // comparison this sweep rather than risk a mismatch
                // fabricated from in-flight events.
                _ => {}
            }
        }
    }
    (snapshots, gates)
}

/// Storage for a backend's registered [`SnapshotProvider`].
pub(crate) type ProviderSlot = Mutex<Option<Arc<dyn SnapshotProvider>>>;

/// Poison-tolerant lock: a thread that panicked while holding `mutex`
/// must not wedge the backend for every other thread. Every update made
/// under the backends' locks leaves the data valid at every step.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything behind the inline backend's single lock.
#[derive(Debug)]
struct InlineState {
    det: Detector,
    violations: Vec<Violation>,
    counters: ShardStats,
}

#[derive(Debug)]
struct InlineShared {
    state: Mutex<InlineState>,
    open: AtomicBool,
    provider: ProviderSlot,
}

impl InlineShared {
    fn lock(&self) -> MutexGuard<'_, InlineState> {
        lock(&self.state)
    }
}

/// The paper's shape behind the trait: one [`Detector`] behind one
/// lock, real-time checks running synchronously on the observing
/// thread.
///
/// Its producer handles are unbuffered — each [`ProducerHandle::observe`]
/// acquires the detector lock, which is precisely the contention the
/// sharded backends exist to remove; `InlineBackend` is the baseline
/// they are measured against, and the zero-extra-threads default.
///
/// [`DetectionBackend::stats`] reports one pseudo-shard whose counters
/// track the events actually ingested through handles.
#[derive(Debug)]
pub struct InlineBackend {
    shared: Arc<InlineShared>,
}

impl InlineBackend {
    /// Creates an inline backend with the given timing configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
        InlineBackend {
            shared: Arc::new(InlineShared {
                state: Mutex::new(InlineState {
                    det: Detector::new(cfg),
                    violations: Vec::new(),
                    counters: ShardStats::default(),
                }),
                open: AtomicBool::new(true),
                provider: ProviderSlot::default(),
            }),
        }
    }
}

impl DetectionBackend for InlineBackend {
    fn register(
        &self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) {
        let mut st = self.shared.lock();
        st.det.register(monitor, spec, initial, now);
        st.counters.monitors += 1;
    }

    fn producer(&self) -> Box<dyn ProducerHandle> {
        Box::new(InlineProducer { shared: Arc::clone(&self.shared), scratch: Vec::new() })
    }

    fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId> {
        self.shared.lock().det.call_would_violate(monitor, pid, proc_name)
    }

    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>) {
        *lock(&self.shared.provider) = Some(provider);
    }

    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport {
        // One pseudo-shard: Shard(0) covers everything, other indices
        // cover nothing (mirrors `stats`).
        let (monitors, only) = match scope {
            CheckpointScope::All | CheckpointScope::Shard(0) => {
                (self.shared.lock().det.monitor_ids(), None)
            }
            CheckpointScope::Shard(_) => return FaultReport::default(),
            CheckpointScope::Monitor(m) => (vec![m], Some(m)),
        };
        // Snapshots are gathered *before* taking the detector lock: a
        // live provider reads monitor state under the monitors' own
        // locks, and observing threads acquire those locks before the
        // detector lock (the observe path) — gathering under the
        // detector lock would invert that order.
        let provider = lock(&self.shared.provider).clone();
        let (snapshots, gates) = gather_snapshots(provider.as_deref(), &monitors, now);
        self.shared.lock().det.checkpoint_scoped(now, &snapshots, &gates, only)
    }

    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        self.shared.lock().det.checkpoint(now, events, snapshots)
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats { shards: vec![self.shared.lock().counters] }
    }

    fn drain_violations(&self) -> Vec<Violation> {
        std::mem::take(&mut self.shared.lock().violations)
    }

    fn shutdown(&self) {
        self.shared.open.store(false, Ordering::Release);
    }

    fn label(&self) -> &'static str {
        "inline"
    }
}

/// The inline backend's unbuffered handle.
#[derive(Debug)]
struct InlineProducer {
    shared: Arc<InlineShared>,
    scratch: Vec<Violation>,
}

impl ProducerHandle for InlineProducer {
    fn observe(&mut self, event: Event) {
        if !self.shared.open.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.shared.lock();
        st.det.observe_into(&event, &mut self.scratch);
        st.counters.batches += 1;
        st.counters.events_observed += 1;
        st.counters.violations += self.scratch.len() as u64;
        st.violations.append(&mut self.scratch);
    }

    fn flush(&mut self) {}

    fn pending(&self) -> usize {
        0
    }

    fn is_closed(&self) -> bool {
        !self.shared.open.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{
        AsyncBackend, ScheduledBackend, SchedulerConfig, ServiceConfig, ShardedBackend,
    };
    use crate::spec::AllocatorSpec;

    fn allocator_spec() -> (Arc<MonitorSpec>, AllocatorSpec) {
        let al = MonitorSpec::allocator("res", 1);
        (Arc::new(al.spec.clone()), al)
    }

    /// A deterministic faulty mix for `monitors` allocators: per
    /// monitor, pid 1 double-requests and pid 2 releases unrequested.
    fn faulty_events(monitors: u32) -> Vec<Event> {
        let (_, al) = allocator_spec();
        let mut events = Vec::new();
        let mut seq = 0;
        for id in 0..monitors {
            let m = MonitorId::new(id);
            for (pid, proc_name) in [(1, al.request), (1, al.request), (2, al.release)] {
                seq += 1;
                events.push(Event::enter(
                    seq,
                    Nanos::new(seq * 10),
                    m,
                    Pid::new(pid),
                    proc_name,
                    false,
                ));
            }
        }
        events
    }

    fn drain_after_flush(backend: &dyn DetectionBackend) -> Vec<Violation> {
        let mut vs = backend.drain_violations();
        vs.sort_by_key(|v| (v.monitor, v.event_seq, v.rule));
        vs
    }

    fn backends() -> Vec<Box<dyn DetectionBackend>> {
        let cfg = DetectorConfig::without_timeouts();
        vec![
            Box::new(InlineBackend::new(cfg)),
            Box::new(ShardedBackend::new(cfg, ServiceConfig::new(1))),
            Box::new(ShardedBackend::new(cfg, ServiceConfig::new(4)).with_batch(4)),
            Box::new(ScheduledBackend::new(cfg, ServiceConfig::new(2), SchedulerConfig::default())),
            Box::new(AsyncBackend::new(cfg, ServiceConfig::new(2)).with_batch(4)),
        ]
    }

    #[test]
    fn all_backends_report_the_same_violations_through_one_handle() {
        let (spec, _) = allocator_spec();
        let events = faulty_events(8);
        let mut reference: Option<Vec<Violation>> = None;
        for backend in backends() {
            for id in 0..8 {
                backend.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
            }
            let mut producer = backend.producer();
            for e in &events {
                producer.observe(*e);
            }
            producer.flush();
            let got = drain_after_flush(backend.as_ref());
            assert!(!got.is_empty());
            match &reference {
                Some(want) => assert_eq!(&got, want, "backend {}", backend.label()),
                None => reference = Some(got),
            }
        }
    }

    #[test]
    fn stats_are_uniform_and_count_ingested_events() {
        let (spec, al) = allocator_spec();
        for backend in backends() {
            backend.register_empty(MonitorId::new(0), Arc::clone(&spec), Nanos::ZERO);
            let mut p = backend.producer();
            p.observe(Event::enter(
                1,
                Nanos::new(10),
                MonitorId::new(0),
                Pid::new(1),
                al.request,
                true,
            ));
            p.flush();
            let stats = backend.stats();
            assert!(stats.shard_count() >= 1, "{}", backend.label());
            assert_eq!(stats.total_events(), 1, "{}", backend.label());
            assert_eq!(
                stats.shards.iter().map(|s| s.monitors).sum::<u64>(),
                1,
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn shutdown_drops_subsequent_observes_everywhere() {
        let (spec, al) = allocator_spec();
        for backend in backends() {
            backend.register_empty(MonitorId::new(0), Arc::clone(&spec), Nanos::ZERO);
            let mut p = backend.producer();
            backend.shutdown();
            assert!(p.is_closed(), "{}", backend.label());
            p.observe(Event::enter(
                1,
                Nanos::new(10),
                MonitorId::new(0),
                Pid::new(1),
                al.release,
                true,
            ));
            p.flush();
            assert!(backend.drain_violations().is_empty(), "{}", backend.label());
        }
    }

    #[test]
    fn inline_try_observe_checks_synchronously_and_never_pushes_back() {
        let (spec, al) = allocator_spec();
        let backend = InlineBackend::new(DetectorConfig::without_timeouts());
        backend.register_empty(MonitorId::new(0), Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        let release =
            Event::enter(1, Nanos::new(10), MonitorId::new(0), Pid::new(1), al.release, true);
        assert_eq!(p.try_observe(release), Backpressure::Accepted);
        assert!(!backend.drain_violations().is_empty(), "release without request");
    }

    /// Scoped, provider-backed checkpoints must report exactly what the
    /// caller-drained window form reports on the same trace.
    #[test]
    fn scoped_checkpoint_matches_window_checkpoint() {
        let (spec, _) = allocator_spec();
        let events = faulty_events(8);
        let make = |sharded: Option<usize>| -> Box<dyn DetectionBackend> {
            match sharded {
                None => Box::new(InlineBackend::new(DetectorConfig::without_timeouts())),
                Some(shards) => Box::new(ShardedBackend::new(
                    DetectorConfig::without_timeouts(),
                    ServiceConfig::new(shards),
                )),
            }
        };
        for flavor in [None, Some(1), Some(3)] {
            // Reference: the window form over the same trace.
            let reference = make(flavor);
            for id in 0..8 {
                reference.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
            }
            let mut p = reference.producer();
            for e in &events {
                p.observe(*e);
            }
            p.flush();
            let mut want = reference.checkpoint_window(Nanos::new(1000), &events, &HashMap::new());
            want.violations.extend(reference.drain_violations());
            reference.shutdown();

            let scoped = make(flavor);
            for id in 0..8 {
                scoped.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
            }
            let mut p = scoped.producer();
            for e in &events {
                p.observe(*e);
            }
            p.flush();
            let mut got = scoped.checkpoint(CheckpointScope::All, Nanos::new(1000));
            got.violations.extend(scoped.drain_violations());
            scoped.shutdown();

            let key = |v: &Violation| (v.monitor, v.pid, v.event_seq, v.rule);
            let mut want_v = want.violations;
            let mut got_v = got.violations;
            want_v.sort_by_key(key);
            got_v.sort_by_key(key);
            assert_eq!(got_v, want_v, "flavor {flavor:?}");
            assert_eq!(got.events_checked, want.events_checked, "flavor {flavor:?}");
        }
    }

    #[test]
    fn consistency_gate_defers_comparison_until_replay_catches_up() {
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(0);
        let backend = InlineBackend::new(DetectorConfig::without_timeouts());
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let table = Arc::new(SnapshotTable::default());
        // The observation says "pid 1 is inside, mid-request" and was
        // taken after 1 recorded event — which has not been ingested
        // yet. Compared against the (still empty) replayed lists it
        // would be a mismatch; the gate must hold it back.
        let mut observed = MonitorState::with_resources(0, 0);
        observed.running.push(crate::ids::PidProc::new(Pid::new(1), al.request));
        table.publish(m, observed);
        table.expect_events(m, 1);
        backend.set_snapshot_provider(Arc::clone(&table) as Arc<dyn SnapshotProvider>);
        // Gate closed: 0 events replayed != 1 expected — no comparison,
        // no fabricated mismatch.
        let early = backend.checkpoint(CheckpointScope::All, Nanos::new(50));
        assert!(early.is_clean(), "gated-out comparison must not run: {early}");
        // Ingest the event the observation covers; now the gate opens
        // and the (consistent) comparison runs clean.
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.flush();
        let _ = backend.drain_violations();
        let late = backend.checkpoint(CheckpointScope::All, Nanos::new(100));
        assert_eq!(late.events_checked, 1);
        assert!(late.is_clean(), "{late}");
    }

    #[test]
    fn lookahead_sees_flushed_history() {
        let (spec, al) = allocator_spec();
        for backend in backends() {
            let m = MonitorId::new(5);
            backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
            assert_eq!(
                backend.call_would_violate(m, Pid::new(1), al.release),
                Some(RuleId::St8ReleaseWithoutRequest),
                "{}",
                backend.label()
            );
            let mut p = backend.producer();
            p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
            p.flush();
            assert_eq!(backend.call_would_violate(m, Pid::new(1), al.release), None);
        }
    }
}
