//! The shard core: the one worker pool behind every multi-threaded
//! [`DetectionBackend`], and the configurations built on it.
//!
//! The prototype of §4 runs one data-gathering routine and one checking
//! routine invoked every `T`. That is faithful but serial: every
//! monitor's events funnel through one [`Detector`] behind one lock
//! ([`crate::detect::InlineBackend`]). A deployment watching hundreds
//! of monitors wants the checking work spread across cores and the
//! per-event dispatch cost amortised, and every backend in this module
//! is a choice of *where that same pair of routines runs*:
//!
//! * **Sharding** — registered monitors are partitioned across `N`
//!   worker shards by a stable hash of their [`MonitorId`]
//!   ([`shard_for`]). Each shard owns a private [`Detector`] on its own
//!   thread, so checking for different monitors proceeds in parallel
//!   with no shared checker state. Registration, ingestion and
//!   checkpointing travel on the same **bounded** FIFO inbox per shard,
//!   so a checkpoint enqueued after a batch sees that batch's effects
//!   and the observational behaviour is that of one inline detector,
//!   independent of shard count; every report is canonically re-sorted.
//! * **Ingest** — how an observing thread's events reach the inboxes:
//!   each [`ProducerHandle`] owns per-shard batch buffers and private
//!   clones of the inbox senders, one send per shard per batch, and a
//!   full inbox blocks the producer's `flush` (backpressure) or makes
//!   its `try_flush` report [`Backpressure::Full`] with the batch kept.
//!   How long an observing thread keeps trying is the instrumentation
//!   [`Mode`](crate::Mode), which the embedding runtime applies on its
//!   record path; the handle itself never waits on anything but a full
//!   inbox.
//! * **Checkpoint cadence** — who invokes the checking routine. The
//!   *caller* always can ([`DetectionBackend::checkpoint`],
//!   [`DetectionBackend::checkpoint_window`]); with a *ticker* the core
//!   additionally visits one shard every
//!   [`SchedulerConfig::interval`], round-robin, and what those sweeps
//!   find surfaces through [`DetectionBackend::drain_violations`].
//!
//! One struct, [`ShardCore`], holds the pool with the ticker as an
//! optional member, and implements [`DetectionBackend`] once. The two
//! configurations that exist are named [`ShardedBackend`] (caller
//! checkpoints, also named [`AsyncBackend`]) and [`ScheduledBackend`]
//! (plus the ticker).
//!
//! **Ordering precondition.** The equivalence with one inline detector
//! assumes each *caller's* events (per [`Pid`], per monitor) are
//! ingested in non-decreasing `seq` order. Batches from different
//! producers may interleave freely: the Algorithm-3 order state is
//! keyed by caller, and the engine's watermarks are per-pid, so
//! cross-pid reordering neither loses nor double-reports a check. One
//! thread's events flowing through one [`ProducerHandle`] satisfy the
//! precondition by construction (per-producer channel FIFO). An event
//! at or below its pid's watermark is skipped by the real-time checks
//! (the periodic replay of Algorithms 1–2 is unaffected — the caller
//! passes the full window there).
//!
//! # Examples
//!
//! ```
//! use rmon_core::detect::{DetectionBackend, ServiceConfig, ShardedBackend};
//! use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, Nanos, Pid};
//! use std::collections::HashMap;
//! use std::sync::Arc;
//!
//! let backend = ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(4));
//!
//! // Register 8 allocator monitors; they spread across the 4 shards.
//! let al = MonitorSpec::allocator("res", 1);
//! let spec = Arc::new(al.spec.clone());
//! for i in 0..8 {
//!     backend.register_empty(MonitorId::new(i), Arc::clone(&spec), Nanos::ZERO);
//! }
//!
//! // A duplicate-request fault in monitor 3.
//! let m = MonitorId::new(3);
//! let mut producer = backend.producer();
//! producer.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
//! producer.observe(Event::enter(2, Nanos::new(20), m, Pid::new(1), al.request, false));
//! producer.flush();
//!
//! assert_eq!(backend.stats().total_events(), 2);
//! assert!(!backend.drain_violations().is_empty());
//! // Even with no explicit window, the checkpoint replays the events
//! // the shards ingested in real time (their pending windows).
//! let report = backend.checkpoint_window(Nanos::new(30), &[], &HashMap::new());
//! assert_eq!(report.events_checked, 2);
//! ```

use crate::config::DetectorConfig;
use crate::detect::backend::{
    gather_snapshots, lock, Backpressure, CheckpointScope, DetectionBackend, ProducerHandle,
    ProviderSlot, SnapshotProvider,
};
use crate::detect::Detector;
use crate::event::Event;
use crate::ids::{MonitorId, Pid, ProcName};
use crate::rule::RuleId;
use crate::spec::MonitorSpec;
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::violation::{FaultReport, Violation};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

/// Stable shard assignment: hashes the raw [`MonitorId`] through a
/// SplitMix64 finalizer and reduces modulo `shards`.
///
/// The function is pure — the same `(monitor, shards)` pair maps to the
/// same shard on every call, every instance, every process — so shard
/// routing never needs a directory lookup.
///
/// # Examples
///
/// ```
/// use rmon_core::detect::shard::shard_for;
/// use rmon_core::MonitorId;
///
/// let m = MonitorId::new(42);
/// assert_eq!(shard_for(m, 4), shard_for(m, 4));
/// assert!(shard_for(m, 4) < 4);
/// ```
pub fn shard_for(monitor: MonitorId, shards: usize) -> usize {
    let mut x = (monitor.index() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

/// Configuration of the sharded service: how many worker shards to
/// spawn and how deep each shard's bounded inbox is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Bounded per-shard inbox depth, in messages (batches count as one
    /// message each). When a shard's inbox is full, a handle's flush
    /// blocks — backpressure instead of unbounded memory growth.
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// A configuration with `shards` workers and the default inbox
    /// depth (64 messages).
    pub fn new(shards: usize) -> Self {
        ServiceConfig { shards: shards.max(1), queue_capacity: 64 }
    }

    /// Overrides the bounded inbox depth.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(4)
    }
}

/// Per-shard ingestion counters, snapshotted by
/// [`DetectionBackend::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Monitors registered on this shard.
    pub monitors: u64,
    /// Batches the shard has finished processing.
    pub batches: u64,
    /// Events observed (across all processed batches).
    pub events_observed: u64,
    /// Real-time violations the shard has reported.
    pub violations: u64,
}

/// A point-in-time snapshot of the whole service's counters.
///
/// Produced by [`DetectionBackend::stats`], which first waits for every
/// shard to drain its inbox: the snapshot counts everything handed
/// over before the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// One entry per shard, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total events observed across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events_observed).sum()
    }

    /// Total batches processed across all shards.
    pub fn total_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Shards that have observed at least one event — a quick load-
    /// balance indicator.
    pub fn active_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.events_observed > 0).count()
    }
}

/// The violation collector shared by all shard workers: per-shard
/// counters plus the accumulated real-time violations.
#[derive(Debug)]
struct Collector {
    state: Mutex<CollectorState>,
}

#[derive(Debug)]
struct CollectorState {
    shards: Vec<ShardStats>,
    violations: Vec<Violation>,
}

impl Collector {
    fn new(shards: usize) -> Self {
        Collector {
            state: Mutex::new(CollectorState {
                shards: vec![ShardStats::default(); shards],
                violations: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CollectorState> {
        lock(&self.state)
    }

    fn note_monitor(&self, shard: usize) {
        self.lock().shards[shard].monitors += 1;
    }

    /// Absorbs one processed batch: bumps the shard's counters and
    /// moves any violations out of the worker's scratch buffer.
    fn absorb(&self, shard: usize, events: u64, scratch: &mut Vec<Violation>) {
        let mut state = self.lock();
        let stats = &mut state.shards[shard];
        stats.batches += 1;
        stats.events_observed += events;
        stats.violations += scratch.len() as u64;
        state.violations.append(scratch);
    }
}

/// One checkpoint round-trip through a shard worker: everything the
/// worker's detector needs to run the periodic checking routine, plus
/// the reply channel the merged report travels back on.
///
/// Three shapes share the message:
///
/// * **window** — `events` non-empty: the caller drained a recorded
///   window and split it per shard (the synchronous barrier path);
/// * **scoped** — `events` empty, `timers_only` false: the shard
///   replays its own pending real-time window against the supplied
///   `snapshots`, guarded by the consistency `gates` (the
///   [`DetectionBackend::checkpoint`] / [`SnapshotProvider`] path);
/// * **timer sweep** — `timers_only` true: the shard checks its timers
///   against its shard-local lists and touches nothing else (the
///   ticker's no-provider fallback).
#[derive(Debug)]
struct CheckpointReq {
    now: Nanos,
    events: Vec<Event>,
    snapshots: HashMap<MonitorId, MonitorState>,
    /// Snapshot consistency gates, per monitor (see
    /// [`Detector::checkpoint_scoped`]).
    gates: HashMap<MonitorId, u64>,
    /// Restrict the checkpoint to one monitor
    /// ([`CheckpointScope::Monitor`]).
    only: Option<MonitorId>,
    /// Check timers only; replay nothing, compare nothing.
    timers_only: bool,
    reply: Sender<FaultReport>,
}

/// Messages on a shard's bounded inbox. Registration, ingestion and
/// checkpointing all travel on the same FIFO channel, which is what
/// makes the service sequentially consistent per monitor without any
/// cross-shard synchronisation.
#[derive(Debug)]
enum ShardMsg {
    Register {
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: MonitorState,
        now: Nanos,
    },
    Batch(Vec<Event>),
    Checkpoint(CheckpointReq),
    WouldViolate {
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        reply: Sender<Option<RuleId>>,
    },
    Flush {
        reply: Sender<()>,
    },
    /// Explicit worker termination: unlike channel disconnection (which
    /// requires every cloned sender — including those held by
    /// outstanding producer handles — to drop first), a `Shutdown`
    /// message ends the worker as soon as its inbox drains to it.
    Shutdown,
}

/// Pending-replay events a shard tolerates across timer-only sweeps
/// before a sweep force-drains them (see the `Checkpoint` arm of
/// [`shard_worker`]). High enough that deterministic tests and any
/// deployment running real checkpoints never trip it; low enough to
/// bound a drain-less shard to a few MiB of retained events.
const PENDING_REPLAY_HIGH_WATER: usize = 1 << 16;

/// One shard worker: owns a private [`Detector`] and drains its inbox
/// until the service handle is dropped.
fn shard_worker(
    shard: usize,
    cfg: DetectorConfig,
    rx: Receiver<ShardMsg>,
    collector: Arc<Collector>,
) {
    let mut det = Detector::new(cfg);
    let mut scratch: Vec<Violation> = Vec::new();
    while let Ok(msg) = rx.recv() {
        if matches!(msg, ShardMsg::Shutdown) {
            // Drain before exit: messages already enqueued behind the
            // shutdown marker — a scoped checkpoint, a lookahead or a
            // flush racing teardown — still get a real answer instead
            // of having their reply sender dropped with the inbox.
            // Only messages in the queue *now* are in-flight; anything
            // sent after the inbox disconnects degrades at the caller
            // (`recv().unwrap_or_default()`).
            while let Ok(msg) = rx.try_recv() {
                handle_shard_msg(shard, &mut det, &mut scratch, &collector, msg);
            }
            break;
        }
        handle_shard_msg(shard, &mut det, &mut scratch, &collector, msg);
    }
}

/// Processes one inbox message against the shard's detector. A nested
/// `Shutdown` (possible during the drain pass) is a no-op — the worker
/// loop owns termination.
fn handle_shard_msg(
    shard: usize,
    det: &mut Detector,
    scratch: &mut Vec<Violation>,
    collector: &Collector,
    msg: ShardMsg,
) {
    match msg {
        ShardMsg::Register { monitor, spec, initial, now } => {
            det.register(monitor, spec, &initial, now);
            collector.note_monitor(shard);
        }
        ShardMsg::Batch(events) => {
            for event in &events {
                det.observe_into(event, scratch);
            }
            collector.absorb(shard, events.len() as u64, scratch);
        }
        ShardMsg::Checkpoint(req) => {
            let report = if req.timers_only {
                let mut report = det.checkpoint_timers(req.now, req.only);
                // Memory backstop: timer-only sweeps deliberately
                // leave the pending replay window alone, but a
                // backend that only ever sees timer sweeps (a
                // standalone scheduled backend with no snapshot
                // provider and no caller checkpoints) must not
                // grow without bound. Past the high-water mark the
                // sweep drains it in pure event-stream mode —
                // replaying exactly what the next window
                // checkpoint would have replayed anyway (watermark
                // dedup keeps later windows exact).
                if det.pending_total() > PENDING_REPLAY_HIGH_WATER {
                    report.merge(det.checkpoint_scoped(
                        req.now,
                        &HashMap::new(),
                        &HashMap::new(),
                        req.only,
                    ));
                    report.sort_canonical();
                }
                report
            } else if req.events.is_empty() {
                det.checkpoint_scoped(req.now, &req.snapshots, &req.gates, req.only)
            } else {
                det.checkpoint(req.now, &req.events, &req.snapshots)
            };
            let _ = req.reply.send(report);
        }
        ShardMsg::WouldViolate { monitor, pid, proc_name, reply } => {
            let _ = reply.send(det.call_would_violate(monitor, pid, proc_name));
        }
        ShardMsg::Flush { reply } => {
            let _ = reply.send(());
        }
        ShardMsg::Shutdown => {}
    }
}

// ---------------------------------------------------------------------
// Bounded blocking ingest: buffered per-thread handles
// ---------------------------------------------------------------------

/// The sharded backends' buffered handle: per-shard buffers drained by
/// one channel send per shard per batch.
#[derive(Debug)]
struct ShardedProducer {
    senders: Vec<Sender<ShardMsg>>,
    bufs: Vec<Vec<Event>>,
    buffered: usize,
    batch: usize,
    /// A previous `try_flush` left a retained batch behind. While set,
    /// every `try_observe` re-attempts delivery regardless of the
    /// flush threshold — a handle whose retained batch dropped
    /// `buffered` back below `batch` must not sit on those events
    /// until new arrivals refill the threshold (retained-event
    /// starvation).
    pressured: bool,
    open: Arc<AtomicBool>,
}

impl ProducerHandle for ShardedProducer {
    fn observe(&mut self, event: Event) {
        if !self.open.load(Ordering::Acquire) {
            return;
        }
        let shard = shard_for(event.monitor, self.senders.len());
        self.bufs[shard].push(event);
        self.buffered += 1;
        if self.buffered >= self.batch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        for (shard, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                // A full inbox blocks here: backpressure. A
                // disconnected channel means the worker shut down; the
                // events are dropped exactly like post-shutdown
                // observes.
                let _ = self.senders[shard].send(ShardMsg::Batch(std::mem::take(buf)));
            }
        }
        self.buffered = 0;
        self.pressured = false;
    }

    fn try_observe(&mut self, event: Event) -> Backpressure {
        if !self.open.load(Ordering::Acquire) {
            // Post-shutdown observes are dropped, like observe();
            // nothing awaits a retry.
            return Backpressure::Accepted;
        }
        let shard = shard_for(event.monitor, self.senders.len());
        self.bufs[shard].push(event);
        self.buffered += 1;
        // A pressured handle retries on *every* observe, not only at
        // the flush threshold: a retained batch may have left
        // `buffered < batch`, and waiting for new arrivals to refill
        // the threshold would starve the retained events if the stream
        // goes quiet (see the `pressured` field).
        if self.buffered >= self.batch || self.pressured {
            self.try_flush()
        } else {
            Backpressure::Accepted
        }
    }

    fn try_flush(&mut self) -> Backpressure {
        if self.buffered == 0 {
            return Backpressure::Accepted;
        }
        let mut pressured = false;
        for (shard, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                match self.senders[shard].try_send(ShardMsg::Batch(std::mem::take(buf))) {
                    Ok(()) => {}
                    Err(TrySendError::Full(msg)) => {
                        // The inbox pushed back: keep the batch in the
                        // handle for a later retry (never dropped).
                        if let ShardMsg::Batch(batch) = msg {
                            *buf = batch;
                        }
                        pressured = true;
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
        }
        self.buffered = self.bufs.iter().map(Vec::len).sum();
        self.pressured = pressured;
        if pressured {
            Backpressure::Full
        } else {
            Backpressure::Accepted
        }
    }

    fn pending(&self) -> usize {
        self.buffered
    }

    fn is_closed(&self) -> bool {
        !self.open.load(Ordering::Acquire)
    }
}

impl Drop for ShardedProducer {
    fn drop(&mut self) {
        if self.open.load(Ordering::Acquire) {
            self.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Ticker cadence
// ---------------------------------------------------------------------

/// A shared monotonic time source (nanoseconds on the event clock).
pub type ClockFn = Arc<dyn Fn() -> Nanos + Send + Sync>;

/// Configuration of the per-shard checkpoint ticker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Wall-clock pause between shard visits. Each tick checkpoints
    /// one shard (round-robin), so every shard is swept once per
    /// `shards × interval`.
    pub interval: Duration,
}

impl SchedulerConfig {
    /// A scheduler visiting one shard every `interval`.
    pub fn new(interval: Duration) -> Self {
        SchedulerConfig { interval: interval.max(Duration::from_micros(1)) }
    }
}

impl Default for SchedulerConfig {
    /// 5 ms between shard visits — frequent enough that the default
    /// detector timeouts (tens of milliseconds and up) are observed
    /// promptly, cheap enough to be unmeasurable next to the checking
    /// work itself.
    fn default() -> Self {
        SchedulerConfig::new(Duration::from_millis(5))
    }
}

/// What the ticker's sweeps leave for the caller.
#[derive(Debug, Default)]
struct Sweeps {
    /// Violations the sweeps found, until
    /// [`DetectionBackend::drain_violations`] takes them.
    found: Mutex<Vec<Violation>>,
    /// Completed shard visits.
    ticks: AtomicU64,
}

// ---------------------------------------------------------------------
// The core
// ---------------------------------------------------------------------

/// Default events per hand-off: a producer handle's flush threshold.
pub const DEFAULT_INGEST_BATCH: usize = 64;

/// Everything the core's ticker shares with the handle the caller
/// holds.
#[derive(Debug)]
struct Shared {
    senders: Vec<Sender<ShardMsg>>,
    collector: Arc<Collector>,
    /// Registered monitors, in registration order — the directory a
    /// scoped checkpoint or a ticker sweep walks to know which monitors
    /// live on which shard.
    directory: Mutex<Vec<MonitorId>>,
    provider: ProviderSlot,
    /// Cleared by shutdown; every handle reads it before ingesting.
    open: Arc<AtomicBool>,
    /// The ticker cadence's findings, when the core was built with it.
    sweeps: Option<Sweeps>,
}

impl Shared {
    fn send(&self, shard: usize, msg: ShardMsg) {
        // A send can only fail if the worker died (panicked or shut
        // down); the service degrades to dropping that shard's traffic
        // rather than poisoning every caller.
        let _ = self.senders[shard].send(msg);
    }

    /// The registered monitors owned by `shard` (see [`shard_for`]).
    fn monitors_on(&self, shard: usize) -> Vec<MonitorId> {
        let n = self.senders.len();
        let directory = lock(&self.directory);
        directory.iter().copied().filter(|&m| shard_for(m, n) == shard).collect()
    }

    /// Barrier: returns once every shard has drained its inbox up to
    /// this call, so the collector reflects everything previously
    /// handed over.
    fn flush(&self) {
        let replies: Vec<Receiver<()>> = (0..self.senders.len())
            .map(|shard| {
                let (tx, rx) = bounded(1);
                self.send(shard, ShardMsg::Flush { reply: tx });
                rx
            })
            .collect();
        for rx in replies {
            let _ = rx.recv();
        }
    }

    /// The checking routine over `scope` without a caller-drained
    /// window: each in-scope shard replays its pending real-time window
    /// against gated snapshots from the registered provider.
    ///
    /// A `background` sweep (the ticker's) that finds no provider
    /// degrades to a timer-only visit: snapshots need a state source,
    /// and the pending window is left for a checkpoint that has one or
    /// brings its own.
    fn checkpoint(&self, scope: CheckpointScope, now: Nanos, background: bool) -> FaultReport {
        let n = self.senders.len();
        let (shards, only) = match scope {
            CheckpointScope::All => ((0..n).collect::<Vec<_>>(), None),
            CheckpointScope::Shard(s) if s < n => (vec![s], None),
            CheckpointScope::Shard(_) => return FaultReport::default(),
            CheckpointScope::Monitor(m) => (vec![shard_for(m, n)], Some(m)),
        };
        let provider = lock(&self.provider).clone();
        let timers_only = background && provider.is_none();
        // Request every in-scope shard first, then collect: the shards
        // check concurrently, so the checkpoint costs the slowest
        // shard's latency rather than the sum.
        let replies: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let monitors = match only {
                    Some(m) => vec![m],
                    None => self.monitors_on(shard),
                };
                let (snapshots, gates) = gather_snapshots(provider.as_deref(), &monitors, now);
                let (tx, rx) = bounded(1);
                self.send(
                    shard,
                    ShardMsg::Checkpoint(CheckpointReq {
                        now,
                        events: Vec::new(),
                        snapshots,
                        gates,
                        only,
                        timers_only,
                        reply: tx,
                    }),
                );
                rx
            })
            .collect();
        FaultReport::merged(replies.into_iter().map(|rx| rx.recv().unwrap_or_default()))
    }

    /// The ticker thread: wakes every `interval` and runs a shard-local
    /// checkpoint on exactly one shard, round-robin — a full sweep takes
    /// `shards × interval`, and at no point do two shards pause
    /// together. The sweeps buy **detection latency**: a process stuck
    /// past a timer bound — or, with a provider, a monitor whose
    /// observed state disagrees with its replayed lists — is flagged
    /// after at most one sweep, instead of waiting for the next
    /// caller-driven checkpoint.
    fn tick(&self, interval: Duration, clock: ClockFn, stop: Receiver<()>) {
        let Some(sweeps) = &self.sweeps else { return };
        let shards = self.senders.len();
        let mut cursor = 0usize;
        // Per-shard dedup: a timer or snapshot-mismatch violation
        // persists across sweeps (the engine re-reports it while the
        // condition holds), so only the *edge* — a violation absent
        // from the shard's previous sweep — is recorded. A fault that
        // clears and recurs is reported again; a fault that persists
        // costs one entry, not one per tick. One-shot replay violations
        // carry distinct event seqs and are never suppressed.
        type SweepKey = (MonitorId, RuleId, Option<Pid>, Option<u64>);
        let mut last: Vec<HashSet<SweepKey>> = vec![HashSet::new(); shards];
        let key = |v: &Violation| (v.monitor, v.rule, v.pid, v.event_seq);
        // recv_timeout doubles as the sleep and the stop signal: a
        // message (or disconnection) ends the loop.
        while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
            let report = self.checkpoint(CheckpointScope::Shard(cursor), clock(), true);
            let seen: HashSet<_> = report.violations.iter().map(key).collect();
            let fresh: Vec<Violation> =
                report.violations.into_iter().filter(|v| !last[cursor].contains(&key(v))).collect();
            last[cursor] = seen;
            if !fresh.is_empty() {
                lock(&sweeps.found).extend(fresh);
            }
            sweeps.ticks.fetch_add(1, Ordering::Relaxed);
            cursor = (cursor + 1) % shards;
        }
    }
}

/// The threads a core owns, in the order shutdown stops them.
#[derive(Debug, Default)]
struct Threads {
    ticker: Option<(Sender<()>, thread::JoinHandle<()>)>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// The sharded detection core (see the [module docs](self)): a pool of
/// shard workers, each owning a private [`Detector`], with an optional
/// ticker beside it, and the one [`DetectionBackend`] implementation of
/// the family.
///
/// Functionally equivalent to one inline [`Detector`] — same
/// registrations, same violations — but the checking work for
/// different monitors runs on different threads, and ingestion costs
/// one channel send per *batch* per shard instead of one lock per
/// event.
///
/// `FLAVOR` only names the configuration a value was constructed in,
/// so that [`ShardedBackend`] and [`ScheduledBackend`] each have their
/// own `new`; construct through those names. Dropping the core shuts
/// it down.
#[derive(Debug)]
pub struct ShardCore<const FLAVOR: u8> {
    /// Events per hand-off: a handle created by
    /// [`DetectionBackend::producer`] flushes at this many.
    batch: usize,
    shared: Arc<Shared>,
    threads: Mutex<Threads>,
}

const SHARDED: u8 = 0;
const SCHEDULED: u8 = 1;
const LABELS: [&str; 2] = ["sharded", "scheduled"];

/// The core with bounded blocking ingest and caller-driven checkpoints:
/// the multi-producer ingestion front-end. Every producer handle owns
/// its own per-shard batch buffers plus private clones of the shard
/// inbox senders — the caller-side hot path shares nothing with other
/// producers. Compare [`crate::detect::InlineBackend`], where each
/// observation contends on one detector lock.
pub type ShardedBackend = ShardCore<SHARDED>;

/// [`ShardedBackend`] plus the ticker: timer checks (and, once a
/// [`SnapshotProvider`] is registered, full §3.3.2 snapshot
/// comparisons) run *per shard, periodically, without a global barrier*
/// and without anybody calling a checkpoint.
///
/// The ticker needs a notion of *now* that agrees with the event
/// timestamps it is judging. By default that is nanoseconds since the
/// backend was created; an embedding runtime whose recorder has its own
/// epoch injects its clock via [`ScheduledBackend::with_clock`].
pub type ScheduledBackend = ShardCore<SCHEDULED>;

/// Another name of the sharded core, [`ShardedBackend`]. Its
/// `DetectorConfig::mode` is read by no handle: an instrumentation
/// mode is the embedding runtime's configuration, applied on its
/// record path.
pub type AsyncBackend = ShardedBackend;

impl<const FLAVOR: u8> ShardCore<FLAVOR> {
    /// Spawns `service.shards` worker threads, each owning a private
    /// [`Detector`] built from `cfg`, then the ticker if a `schedule` is
    /// given.
    fn spawn(
        cfg: DetectorConfig,
        service: ServiceConfig,
        schedule: Option<(SchedulerConfig, ClockFn)>,
    ) -> Self {
        let shards = service.shards.max(1);
        let collector = Arc::new(Collector::new(shards));
        let mut threads = Threads::default();
        let mut senders = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded(service.queue_capacity.max(1));
            let coll = Arc::clone(&collector);
            let handle = thread::Builder::new()
                .name(format!("rmon-shard-{shard}"))
                .spawn(move || shard_worker(shard, cfg, rx, coll))
                .expect("spawn shard worker");
            senders.push(tx);
            threads.workers.push(handle);
        }
        let shared = Arc::new(Shared {
            senders,
            collector,
            directory: Mutex::new(Vec::new()),
            provider: ProviderSlot::default(),
            open: Arc::new(AtomicBool::new(true)),
            sweeps: schedule.is_some().then(Sweeps::default),
        });
        if let Some((scheduler, clock)) = schedule {
            let (stop, stop_rx) = bounded::<()>(1);
            let ticking = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name("rmon-sched".into())
                .spawn(move || ticking.tick(scheduler.interval, clock, stop_rx))
                .expect("spawn scheduler ticker");
            threads.ticker = Some((stop, handle));
        }
        ShardCore { batch: DEFAULT_INGEST_BATCH, shared, threads: Mutex::new(threads) }
    }

    /// Overrides the events per hand-off (clamped to at least 1): how
    /// many events a producer handle buffers before flushing a batch to
    /// the shards.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl ShardedBackend {
    /// Spawns the shard workers, with the default per-handle ingest
    /// batch ([`DEFAULT_INGEST_BATCH`]).
    pub fn new(cfg: DetectorConfig, service: ServiceConfig) -> Self {
        Self::spawn(cfg, service, None)
    }
}

impl ScheduledBackend {
    /// Spawns the shard workers and the ticker thread, timing sweeps on
    /// an internal clock that starts now.
    pub fn new(cfg: DetectorConfig, service: ServiceConfig, scheduler: SchedulerConfig) -> Self {
        let origin = Instant::now();
        let clock: ClockFn =
            Arc::new(move || Nanos::new(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64));
        Self::with_clock(cfg, service, scheduler, clock)
    }

    /// Like [`Self::new`], but sweeps are timestamped by `clock` — use
    /// this when event times come from an epoch the backend did not
    /// create (e.g. a runtime recorder), so timer ages are computed on
    /// the same axis the events were stamped on.
    pub fn with_clock(
        cfg: DetectorConfig,
        service: ServiceConfig,
        scheduler: SchedulerConfig,
        clock: ClockFn,
    ) -> Self {
        Self::spawn(cfg, service, Some((scheduler, clock)))
    }

    /// Completed scheduler ticks (shard visits) so far.
    pub fn ticks(&self) -> u64 {
        self.shared.sweeps.as_ref().map_or(0, |sweeps| sweeps.ticks.load(Ordering::Relaxed))
    }
}

impl<const FLAVOR: u8> DetectionBackend for ShardCore<FLAVOR> {
    /// Registers a monitor on its shard. Like [`Detector::register`],
    /// events for unregistered monitors are ignored.
    fn register(
        &self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) {
        {
            let mut directory = lock(&self.shared.directory);
            if !directory.contains(&monitor) {
                directory.push(monitor);
            }
        }
        let shard = self.shard_of(monitor);
        self.shared
            .send(shard, ShardMsg::Register { monitor, spec, initial: initial.clone(), now });
    }

    fn producer(&self) -> Box<dyn ProducerHandle> {
        let senders = self.shared.senders.clone();
        let bufs = senders.iter().map(|_| Vec::new()).collect();
        Box::new(ShardedProducer {
            senders,
            bufs,
            buffered: 0,
            batch: self.batch,
            pressured: false,
            open: Arc::clone(&self.shared.open),
        })
    }

    /// Answered synchronously by the owning shard. Pending batches for
    /// that shard are processed first — FIFO — so the answer reflects
    /// every event already handed over.
    fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId> {
        let (tx, rx) = bounded(1);
        self.shared.send(
            self.shard_of(monitor),
            ShardMsg::WouldViolate { monitor, pid, proc_name, reply: tx },
        );
        rx.recv().ok().flatten()
    }

    /// The slot is shared with the ticker: from its next tick on, the
    /// background sweeps are full snapshot sweeps.
    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>) {
        *lock(&self.shared.provider) = Some(provider);
    }

    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport {
        self.shared.checkpoint(scope, now, false)
    }

    /// Splits the window and the snapshots per shard and merges the
    /// per-shard reports into one, with violations re-sorted into the
    /// same canonical `(event, rule)` order [`Detector::checkpoint`]
    /// uses. Per-shard FIFO ordering guarantees that all batches handed
    /// over before this call are processed before the shard checks.
    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        let n = self.shared.senders.len();
        let mut per_events: Vec<Vec<Event>> = vec![Vec::new(); n];
        for event in events {
            per_events[shard_for(event.monitor, n)].push(*event);
        }
        let mut per_snaps: Vec<HashMap<MonitorId, MonitorState>> = vec![HashMap::new(); n];
        for (&monitor, state) in snapshots {
            per_snaps[shard_for(monitor, n)].insert(monitor, state.clone());
        }
        let replies: Vec<Receiver<FaultReport>> = per_events
            .into_iter()
            .zip(per_snaps)
            .enumerate()
            .map(|(shard, (events, snapshots))| {
                let (tx, rx) = bounded(1);
                self.shared.send(
                    shard,
                    ShardMsg::Checkpoint(CheckpointReq {
                        now,
                        events,
                        snapshots,
                        gates: HashMap::new(),
                        only: None,
                        timers_only: false,
                        reply: tx,
                    }),
                );
                rx
            })
            .collect();
        FaultReport::merged(replies.into_iter().filter_map(|rx| rx.recv().ok()))
    }

    fn stats(&self) -> ServiceStats {
        self.shared.flush();
        ServiceStats { shards: self.shared.collector.lock().shards.clone() }
    }

    fn drain_violations(&self) -> Vec<Violation> {
        self.shared.flush();
        let mut violations = std::mem::take(&mut self.shared.collector.lock().violations);
        if let Some(sweeps) = &self.shared.sweeps {
            violations.append(&mut lock(&sweeps.found));
        }
        violations
    }

    /// Closes the intake, stops the ticker, then sends every shard an explicit
    /// shutdown message (processed after all previously ingested
    /// batches — FIFO again) and joins every thread. Subsequent
    /// ingestion is silently dropped, including sends from producer
    /// handles still holding cloned inbox senders.
    fn shutdown(&self) {
        self.shared.open.store(false, Ordering::Release);
        // The threads lock is held across stop + join so a concurrent
        // second caller blocks until the threads are actually gone —
        // "returned from shutdown" must mean "stopped", not "somebody
        // is stopping it". (None of the threads takes this lock, so
        // blocking on a full inbox while holding it is plain
        // backpressure, not a cycle.)
        let mut threads = lock(&self.threads);
        if threads.workers.is_empty() {
            return;
        }
        // Joins ignore panics: a dead thread already surfaced as
        // dropped traffic.
        if let Some((stop, handle)) = threads.ticker.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        for shard in 0..self.shared.senders.len() {
            self.shared.send(shard, ShardMsg::Shutdown);
        }
        for handle in threads.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn label(&self) -> &'static str {
        LABELS[FLAVOR as usize]
    }

    fn shard_of(&self, monitor: MonitorId) -> usize {
        shard_for(monitor, self.shared.senders.len())
    }
}

impl<const FLAVOR: u8> Drop for ShardCore<FLAVOR> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::detect::backend::SnapshotTable;
    use crate::spec::AllocatorSpec;

    fn allocator_spec() -> (Arc<MonitorSpec>, AllocatorSpec) {
        let al = MonitorSpec::allocator("res", 1);
        (Arc::new(al.spec.clone()), al)
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::without_timeouts()
    }

    fn sharded(shards: usize) -> ShardedBackend {
        ShardedBackend::new(cfg(), ServiceConfig::new(shards))
    }

    fn scheduled(shards: usize) -> ScheduledBackend {
        let every = SchedulerConfig::new(Duration::from_millis(1));
        ScheduledBackend::new(cfg(), ServiceConfig::new(shards), every)
    }

    fn async_core(mode: Mode, shards: usize) -> AsyncBackend {
        AsyncBackend::new(DetectorConfig { mode, ..cfg() }, ServiceConfig::new(shards))
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

    /// Registers `monitors` allocators and hands `events` over through
    /// one flushed handle.
    fn ingest(backend: &dyn DetectionBackend, monitors: u32, events: &[Event]) {
        let (spec, _) = allocator_spec();
        for id in 0..monitors {
            backend.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
        }
        let mut p = backend.producer();
        for e in events {
            p.observe(*e);
        }
        p.flush();
    }

    /// Parks `shard`'s worker deterministically: a lookahead whose
    /// reply channel is pre-filled blocks the worker's reply send until
    /// the returned receiver is drained, so everything sent meanwhile
    /// queues behind it.
    fn park_worker<const F: u8>(
        backend: &ShardCore<F>,
        shard: usize,
        monitor: MonitorId,
        proc_name: ProcName,
    ) -> Receiver<Option<RuleId>> {
        let (park_tx, park_rx) = bounded(1);
        park_tx.send(None).unwrap();
        backend.shared.senders[shard]
            .send(ShardMsg::WouldViolate { monitor, pid: Pid::new(1), proc_name, reply: park_tx })
            .unwrap();
        park_rx
    }

    // -- the worker pool ---------------------------------------------

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8] {
            for id in 0..256u32 {
                let m = MonitorId::new(id);
                let s = shard_for(m, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(m, shards), "same id must map to same shard");
            }
        }
        // And the backend's answer agrees with the free function.
        let backend = sharded(4);
        for id in 0..32 {
            let m = MonitorId::new(id);
            assert_eq!(backend.shard_of(m), shard_for(m, 4));
        }
    }

    #[test]
    fn shard_assignment_spreads_across_shards() {
        let shards = 4;
        let mut seen = vec![0u32; shards];
        for id in 0..64 {
            seen[shard_for(MonitorId::new(id), shards)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "64 ids must touch all 4 shards: {seen:?}");
    }

    #[test]
    fn batch_matches_single_event_ingestion() {
        // Same faulty fleet through (a) a handle that hands every event
        // over on its own and (b) one big batch: identical violation
        // multisets.
        let events = faulty_events(8);
        let singles = sharded(4).with_batch(1);
        let batched = sharded(4).with_batch(1000);
        ingest(&singles, 8, &events);
        ingest(&batched, 8, &events);
        assert_eq!(singles.stats().total_batches(), events.len() as u64);
        assert!(batched.stats().total_batches() <= 4, "one message per shard");
        let a = drain_after_flush(&singles);
        assert_eq!(a, drain_after_flush(&batched));
        assert!(!a.is_empty());
    }

    #[test]
    fn sharded_matches_inline_detector() {
        // The core at any shard count reports exactly what one inline
        // Detector reports.
        let (spec, al) = allocator_spec();
        let mut inline = Detector::new(cfg());
        let mut events = Vec::new();
        let mut seq = 0;
        for id in 0..8u32 {
            let m = MonitorId::new(id);
            inline.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
            seq += 1;
            events.push(Event::enter(seq, Nanos::new(seq * 10), m, Pid::new(1), al.release, true));
        }
        let mut want = inline.observe_batch(&events);
        want.sort_by_key(|v| (v.monitor, v.event_seq, v.rule));
        for shards in [1usize, 2, 4] {
            let backend = sharded(shards);
            ingest(&backend, 8, &events);
            assert_eq!(drain_after_flush(&backend), want, "shards={shards}");
        }
    }

    #[test]
    fn checkpoint_merges_per_shard_reports() {
        let (spec, al) = allocator_spec();
        let backend = sharded(4);
        let mut events = Vec::new();
        for id in 0..8u32 {
            let m = MonitorId::new(id);
            backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
            events.push(Event::enter(
                u64::from(id) + 1,
                Nanos::new(10),
                m,
                Pid::new(1),
                al.request,
                true,
            ));
        }
        let report = backend.checkpoint_window(Nanos::new(100), &events, &HashMap::new());
        assert_eq!(report.events_checked, 8);
        let seqs: Vec<_> = report.violations.iter().map(|v| v.event_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        assert_eq!(seqs, sorted, "merged report must be canonically ordered");
    }

    fn one_request_per_monitor(monitors: u32) -> Vec<Event> {
        let (_, al) = allocator_spec();
        (0..monitors)
            .map(|id| {
                Event::enter(
                    u64::from(id) + 1,
                    Nanos::new(10),
                    MonitorId::new(id),
                    Pid::new(1),
                    al.request,
                    true,
                )
            })
            .collect()
    }

    #[test]
    fn stats_count_batches_events_and_monitors() {
        let backend = sharded(2);
        ingest(&backend, 6, &one_request_per_monitor(6));
        let stats = backend.stats();
        assert_eq!(stats.shard_count(), 2);
        assert_eq!(stats.total_events(), 6);
        assert_eq!(stats.shards.iter().map(|s| s.monitors).sum::<u64>(), 6);
        assert!(stats.total_batches() >= 1);
        assert!(stats.active_shards() >= 1);
    }

    #[test]
    fn call_would_violate_sees_pending_batches() {
        let (spec, al) = allocator_spec();
        let backend = sharded(3);
        let m = MonitorId::new(5);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        // Before any request, releasing would violate ST-8b.
        assert_eq!(
            backend.call_would_violate(m, Pid::new(1), al.release),
            Some(RuleId::St8ReleaseWithoutRequest)
        );
        // Hand a request over without waiting for the shard — the
        // lookahead is FIFO-ordered behind it, so it must see the
        // granted right.
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.flush();
        assert_eq!(backend.call_would_violate(m, Pid::new(1), al.release), None);
        assert_eq!(
            backend.call_would_violate(m, Pid::new(1), al.request),
            Some(RuleId::St8DuplicateRequest)
        );
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let backend = sharded(4);
        ingest(&backend, 16, &one_request_per_monitor(16));
        drop(backend); // must not hang or panic
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let backend = sharded(2);
        let mut p = backend.producer();
        p.flush();
        assert_eq!(p.try_flush(), Backpressure::Accepted);
        assert_eq!(backend.stats().total_batches(), 0);
    }

    #[test]
    fn directory_tracks_registered_monitors_per_shard() {
        let (spec, _) = allocator_spec();
        let backend = sharded(4);
        for id in 0..12u32 {
            backend.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
        }
        // Duplicate registration does not duplicate the directory entry.
        backend.register_empty(MonitorId::new(3), Arc::clone(&spec), Nanos::ZERO);
        assert_eq!(backend.shared.directory.lock().unwrap().len(), 12);
        let mut union: Vec<MonitorId> =
            (0..4).flat_map(|s| backend.shared.monitors_on(s)).collect();
        union.sort();
        let mut want: Vec<MonitorId> = (0..12u32).map(MonitorId::new).collect();
        want.sort();
        assert_eq!(union, want, "shard partitions must cover every monitor exactly once");
        for s in 0..4 {
            for m in backend.shared.monitors_on(s) {
                assert_eq!(backend.shard_of(m), s);
            }
        }
    }

    #[test]
    fn timer_sweep_checks_only_the_addressed_shard() {
        // A background sweep without a provider — the ticker's per-tick
        // primitive — is timer-only: only the shard owning the monitor
        // reports its expired hold, and the pending window stays.
        let (spec, al) = allocator_spec();
        let cfg = DetectorConfig::builder()
            .t_max(Nanos::from_secs(100))
            .t_io(Nanos::from_secs(100))
            .t_limit(Nanos::from_millis(1))
            .build();
        let backend = ShardedBackend::new(cfg, ServiceConfig::new(4));
        let m = MonitorId::new(3);
        let shard = backend.shard_of(m);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.flush();
        let late = Nanos::from_secs(1);
        let sweep = |s: usize| backend.shared.checkpoint(CheckpointScope::Shard(s), late, true);
        let other = sweep((shard + 1) % 4);
        assert!(other.is_clean(), "{other}");
        let owner = sweep(shard);
        assert!(owner.violates_any(&[RuleId::St8HoldTimeout]), "{owner}");
        assert_eq!(owner.events_checked, 0, "a timer sweep replays nothing");
        let replay = backend.checkpoint(CheckpointScope::Shard(shard), late);
        assert_eq!(replay.events_checked, 1, "the pending window was left for a real checkpoint");
    }

    // -- every configuration of the core -----------------------------

    fn shutdown_is_idempotent<const F: u8>(backend: ShardCore<F>) {
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(1);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.release, true));
        p.flush();
        backend.shutdown();
        backend.shutdown(); // second call must be a no-op
        assert!(p.is_closed(), "{}", backend.label());
        // The batch handed over before shutdown was processed (FIFO).
        assert!(!backend.drain_violations().is_empty(), "{}", backend.label());
        // Ingestion after shutdown is dropped, not a panic or a hang.
        p.observe(Event::enter(2, Nanos::new(20), m, Pid::new(1), al.release, true));
        p.flush();
        assert!(backend.drain_violations().is_empty(), "{}", backend.label());
    }

    #[test]
    fn shutdown_is_idempotent_and_processes_prior_batches() {
        shutdown_is_idempotent(sharded(2));
        shutdown_is_idempotent(scheduled(2));
        for mode in [Mode::Sync, Mode::Async] {
            shutdown_is_idempotent(async_core(mode, 2));
        }
    }

    fn shutdown_answers_in_flight_checkpoint<const F: u8>(backend: ShardCore<F>) {
        // A scoped checkpoint racing shutdown: the checkpoint request is
        // already in the shard's inbox *behind* the shutdown marker.
        // The worker must answer it (with a real report) before exiting
        // instead of dropping the reply channel.
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(1);
        let shard = backend.shard_of(m);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.flush();
        let _ = backend.stats(); // the event has reached the shard
        let park_rx = park_worker(&backend, shard, m, al.request);
        let inbox = &backend.shared.senders[shard];
        inbox.send(ShardMsg::Shutdown).unwrap();
        let (tx, reply) = bounded(1);
        inbox
            .send(ShardMsg::Checkpoint(CheckpointReq {
                now: Nanos::new(100),
                events: Vec::new(),
                snapshots: HashMap::new(),
                gates: HashMap::new(),
                only: None,
                timers_only: false,
                reply: tx,
            }))
            .unwrap();
        // Unblock the worker; it then sees Shutdown and must drain the
        // checkpoint behind it.
        assert_eq!(park_rx.recv().unwrap(), None);
        let report = reply
            .recv_timeout(Duration::from_secs(10))
            .expect("in-flight checkpoint must be answered during shutdown");
        assert_eq!(
            report.events_checked,
            1,
            "{}: drain must run the real checkpoint: {report}",
            backend.label()
        );
        backend.shutdown();
        // After the workers are gone, a late checkpoint degrades to a
        // disconnected reply (default at the caller) — never a hang.
        let late = backend.checkpoint(CheckpointScope::Shard(shard), Nanos::new(200));
        assert_eq!(late, FaultReport::default(), "{}", backend.label());
    }

    #[test]
    fn shutdown_drains_in_flight_checkpoint_round_trips() {
        shutdown_answers_in_flight_checkpoint(sharded(2));
        shutdown_answers_in_flight_checkpoint(scheduled(2));
        shutdown_answers_in_flight_checkpoint(async_core(Mode::Sync, 2));
    }

    fn dropped_handle_loses_nothing<const F: u8>(backend: ShardCore<F>) {
        let (spec, al) = allocator_spec();
        backend.register_empty(MonitorId::new(0), Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        p.observe(Event::enter(
            1,
            Nanos::new(10),
            MonitorId::new(0),
            Pid::new(1),
            al.release,
            true,
        ));
        assert_eq!(p.pending(), 1, "{}: the handle still holds the event", backend.label());
        drop(p);
        assert!(!backend.drain_violations().is_empty(), "{}", backend.label());
    }

    #[test]
    fn dropping_a_handle_flushes_buffered_events() {
        dropped_handle_loses_nothing(sharded(2).with_batch(1000));
        dropped_handle_loses_nothing(scheduled(2).with_batch(1000));
        dropped_handle_loses_nothing(async_core(Mode::Async, 2).with_batch(1000));
    }

    // -- bounded blocking ingest -------------------------------------

    #[test]
    fn two_handles_split_by_pid_match_single_handle_results() {
        // The multi-producer shape: each pid's stream flows through its
        // own handle, handles flush at different times (batch 1 vs
        // batch 1000), so batches interleave at the shards.
        let (spec, _) = allocator_spec();
        let events = faulty_events(6);
        let single = ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(3));
        let split = ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(3));
        for id in 0..6 {
            single.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
            split.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
        }
        let mut p = single.producer();
        for e in &events {
            p.observe(*e);
        }
        p.flush();
        let want = drain_after_flush(&single);

        let mut eager = split.producer(); // flushed after every event
        let mut lazy = split.producer(); // flushed only at the end
        for e in &events {
            if e.pid == Pid::new(1) {
                lazy.observe(*e);
            } else {
                eager.observe(*e);
                eager.flush();
            }
        }
        lazy.flush();
        let got = drain_after_flush(&split);
        assert_eq!(got, want);
    }

    /// A handle wired to a 1-deep inbox nobody drains: the
    /// deterministic way to hit real channel backpressure.
    fn stalled_producer() -> (ShardedProducer, crossbeam::channel::Receiver<ShardMsg>) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let producer = ShardedProducer {
            senders: vec![tx],
            bufs: vec![Vec::new()],
            buffered: 0,
            batch: 1,
            pressured: false,
            open: Arc::new(AtomicBool::new(true)),
        };
        (producer, rx)
    }

    fn event_for(seq: u64, proc_name: crate::ids::ProcName) -> Event {
        Event::enter(seq, Nanos::new(seq * 10), MonitorId::new(0), Pid::new(1), proc_name, true)
    }

    #[test]
    fn try_observe_reports_full_on_a_full_inbox_and_keeps_the_events() {
        let (_, al) = allocator_spec();
        let (mut p, rx) = stalled_producer();
        // First batch fills the 1-deep inbox.
        assert_eq!(p.try_observe(event_for(1, al.request)), Backpressure::Accepted);
        assert_eq!(p.pending(), 0);
        // Second batch has nowhere to go: Full, and the event stays
        // buffered in the handle — backpressure never drops.
        assert_eq!(p.try_observe(event_for(2, al.release)), Backpressure::Full);
        assert_eq!(p.pending(), 1);
        // Retrying without draining stays Full.
        assert_eq!(p.try_flush(), Backpressure::Full);
        assert_eq!(p.pending(), 1);
        // Drain the inbox: the retry now delivers the retained batch.
        assert!(matches!(rx.recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1));
        assert_eq!(p.try_flush(), Backpressure::Accepted);
        assert_eq!(p.pending(), 0);
        assert!(matches!(rx.recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1 && b[0].seq == 2));
    }

    #[test]
    fn try_flush_on_an_empty_handle_is_accepted() {
        let (mut p, _rx) = stalled_producer();
        assert_eq!(p.try_flush(), Backpressure::Accepted);
    }

    /// The retained-event starvation regression: a `try_flush` that
    /// delivers some shards while one shard's inbox refuses its batch
    /// leaves `buffered < batch`. Such a handle must keep re-offering
    /// the retained batch on subsequent `try_observe`s — waiting for
    /// new arrivals to refill the flush threshold would park the
    /// retained events forever on a quiet stream, even after the shard
    /// drains.
    #[test]
    fn retained_events_are_reoffered_below_the_flush_threshold() {
        let (_, al) = allocator_spec();
        // Two 1-deep shard inboxes; shard 0's is full before the run.
        let (tx0, rx0) = crossbeam::channel::bounded(1);
        let (tx1, rx1) = crossbeam::channel::bounded(1);
        tx0.try_send(ShardMsg::Batch(Vec::new())).unwrap();
        let mut p = ShardedProducer {
            senders: vec![tx0, tx1],
            bufs: vec![Vec::new(), Vec::new()],
            buffered: 0,
            batch: 8,
            pressured: false,
            open: Arc::new(AtomicBool::new(true)),
        };
        let m0 = (0u32..).map(MonitorId::new).find(|&m| shard_for(m, 2) == 0).unwrap();
        let m1 = (0u32..).map(MonitorId::new).find(|&m| shard_for(m, 2) == 1).unwrap();
        let ev = |seq: u64, m: MonitorId| {
            Event::enter(seq, Nanos::new(seq * 10), m, Pid::new(1), al.request, seq == 1)
        };
        // Reach the threshold: 7 events for the parked shard, 1 for the
        // live one. The flush delivers shard 1 and retains shard 0's
        // batch — Full, with 7 events left and the threshold no longer
        // reachable from them alone.
        for seq in 1..=7 {
            assert_eq!(p.try_observe(ev(seq, m0)), Backpressure::Accepted);
        }
        assert_eq!(p.try_observe(ev(8, m1)), Backpressure::Full);
        assert!(matches!(rx1.try_recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1));
        assert_eq!(p.pending(), 7);
        // The parked shard drains.
        assert!(matches!(rx0.try_recv(), Ok(ShardMsg::Batch(b)) if b.is_empty()));
        // One new event — far below the threshold of 8. A pressured
        // handle must re-offer anyway and deliver everything.
        assert_eq!(p.try_observe(ev(9, m1)), Backpressure::Accepted);
        assert_eq!(p.pending(), 0, "retained events must not starve below the threshold");
        assert!(matches!(rx0.try_recv(), Ok(ShardMsg::Batch(b)) if b.len() == 7));
        assert!(matches!(rx1.try_recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1 && b[0].seq == 9));
        assert!(!p.pressured, "a fully delivered flush clears the pressure flag");
    }

    /// The ISSUE's literal shape: park a full inbox, drain the shard,
    /// and assert a bare `try_flush` (no new events at all) delivers
    /// the retained batch.
    #[test]
    fn a_bare_try_flush_delivers_retained_events_after_the_shard_drains() {
        let (_, al) = allocator_spec();
        let (mut p, rx) = stalled_producer();
        assert_eq!(p.try_observe(event_for(1, al.request)), Backpressure::Accepted);
        assert_eq!(p.try_observe(event_for(2, al.request)), Backpressure::Full);
        assert_eq!(p.pending(), 1);
        assert!(p.pressured);
        // Drain the shard; no new events arrive.
        assert!(matches!(rx.recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1));
        assert_eq!(p.try_flush(), Backpressure::Accepted);
        assert_eq!(p.pending(), 0);
        assert!(matches!(rx.recv(), Ok(ShardMsg::Batch(b)) if b.len() == 1 && b[0].seq == 2));
    }

    #[test]
    fn a_blocking_flush_clears_the_pressure_flag() {
        let (_, al) = allocator_spec();
        let (mut p, rx) = stalled_producer();
        let _ = p.try_observe(event_for(1, al.request));
        assert_eq!(p.try_observe(event_for(2, al.request)), Backpressure::Full);
        assert!(p.pressured);
        assert!(matches!(rx.recv(), Ok(ShardMsg::Batch(_))));
        p.flush();
        assert!(!p.pressured);
        assert_eq!(p.pending(), 0);
    }

    // -- scoped checkpoints ------------------------------------------

    #[test]
    fn shard_scopes_partition_the_full_checkpoint() {
        let (spec, _) = allocator_spec();
        let events = faulty_events(10);
        let drive = |backend: &ShardedBackend| {
            for id in 0..10 {
                backend.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
            }
            let mut p = backend.producer();
            for e in &events {
                p.observe(*e);
            }
            p.flush();
        };
        let all = ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(4));
        drive(&all);
        let want = all.checkpoint(CheckpointScope::All, Nanos::new(1000));
        let _ = all.drain_violations();

        let by_shard =
            ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(4));
        drive(&by_shard);
        let mut merged = FaultReport::default();
        for shard in 0..4 {
            merged.merge(by_shard.checkpoint(CheckpointScope::Shard(shard), Nanos::new(1000)));
        }
        merged.sort_canonical();
        let _ = by_shard.drain_violations();
        assert_eq!(merged.violations, want.violations);
        assert_eq!(merged.events_checked, want.events_checked);
        // Out-of-range shard scope is an empty no-op.
        assert!(by_shard.checkpoint(CheckpointScope::Shard(9), Nanos::new(2000)).is_clean());
        all.shutdown();
        by_shard.shutdown();
    }

    #[test]
    fn monitor_scope_checks_one_monitor_only() {
        let (spec, al) = allocator_spec();
        let backend =
            ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(2));
        for id in 0..4 {
            backend.register_empty(MonitorId::new(id), Arc::clone(&spec), Nanos::ZERO);
        }
        // A bare exit on monitor 2 (flagged by Algorithm-1 replay) and
        // one on monitor 3.
        let mut p = backend.producer();
        for id in [2u32, 3] {
            p.observe(Event::signal_exit(
                u64::from(id),
                Nanos::new(10),
                MonitorId::new(id),
                Pid::new(1),
                al.request,
                None,
                false,
            ));
        }
        p.flush();
        let _ = backend.drain_violations();
        let report =
            backend.checkpoint(CheckpointScope::Monitor(MonitorId::new(2)), Nanos::new(100));
        assert_eq!(report.events_checked, 1, "{report}");
        assert!(report.violations.iter().all(|v| v.monitor == MonitorId::new(2)), "{report}");
        assert!(!report.is_clean(), "exit without enter must be flagged");
        // Monitor 3's pending window is untouched: a later full scoped
        // checkpoint still finds it.
        let rest = backend.checkpoint(CheckpointScope::All, Nanos::new(200));
        assert!(rest.violations.iter().any(|v| v.monitor == MonitorId::new(3)), "{rest}");
        backend.shutdown();
    }

    #[test]
    fn provider_snapshots_feed_scoped_comparisons() {
        // A tampered observation (a phantom process running inside the
        // monitor) must be caught by the scoped checkpoint through the
        // provider, exactly like the window form catches it through
        // the snapshot map.
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(0);
        let backend =
            ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(2));
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        // One clean request/release cycle: the true final state has
        // nobody running.
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.observe(Event::signal_exit(2, Nanos::new(20), m, Pid::new(1), al.request, None, false));
        p.observe(Event::enter(3, Nanos::new(30), m, Pid::new(1), al.release, true));
        p.observe(Event::signal_exit(4, Nanos::new(40), m, Pid::new(1), al.release, None, false));
        p.flush();
        let table = Arc::new(SnapshotTable::default());
        let mut tampered = MonitorState::with_resources(0, 1);
        tampered.running.push(crate::ids::PidProc::new(Pid::new(9), al.request));
        table.publish(m, tampered);
        table.expect_events(m, 4);
        backend.set_snapshot_provider(Arc::clone(&table) as Arc<dyn SnapshotProvider>);
        let report = backend.checkpoint(CheckpointScope::All, Nanos::new(100));
        assert!(
            report.violates_any(&[RuleId::St1EntrySnapshot]),
            "phantom running process must be flagged: {report}"
        );
        let _ = backend.drain_violations();
        backend.shutdown();
    }

    // -- ticker cadence ----------------------------------------------

    #[test]
    fn ticker_sweeps_and_shuts_down_cleanly() {
        let backend = ScheduledBackend::new(
            DetectorConfig::without_timeouts(),
            ServiceConfig::new(2),
            SchedulerConfig::new(Duration::from_millis(1)),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while backend.ticks() < 4 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(backend.ticks() >= 4, "ticker must make progress");
        backend.shutdown();
        let after = backend.ticks();
        thread::sleep(Duration::from_millis(5));
        assert_eq!(backend.ticks(), after, "no ticks after shutdown");
    }

    #[test]
    fn scheduled_sweep_detects_hold_timeout_without_a_caller_checkpoint() {
        // Tlimit = 1 ms on the event clock; a right acquired at t=0 and
        // never released must be flagged by the background sweeps alone.
        let cfg = DetectorConfig::builder()
            .t_max(Nanos::from_secs(100))
            .t_io(Nanos::from_secs(100))
            .t_limit(Nanos::from_millis(1))
            .build();
        let backend = ScheduledBackend::new(
            cfg,
            ServiceConfig::new(2),
            SchedulerConfig::new(Duration::from_millis(1)),
        );
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(0);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(1), m, Pid::new(1), al.request, true));
        p.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut found = Vec::new();
        while found.is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
            found = backend.drain_violations();
        }
        assert!(
            found.iter().any(|v| v.rule == RuleId::St8HoldTimeout),
            "sweeps must flag the expired hold: {found:?}"
        );
        // The fault persists, but the sweeps dedup against the previous
        // visit: give the ticker many more sweeps and verify it does
        // not flood the collector with one report per tick.
        let ticks_before = backend.ticks();
        let deadline = Instant::now() + Duration::from_secs(5);
        while backend.ticks() < ticks_before + 20 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        let rereported = backend.drain_violations();
        assert!(
            rereported.iter().filter(|v| v.rule == RuleId::St8HoldTimeout).count() <= 1,
            "persisting fault must not be re-reported per tick: {} entries",
            rereported.len()
        );
        backend.shutdown();
    }

    #[test]
    fn provider_upgrades_sweeps_to_snapshot_checks() {
        use crate::detect::backend::{SnapshotProvider, SnapshotTable};
        use crate::ids::PidProc;
        use crate::state::MonitorState;

        // No timers could fire here: whatever the sweeps find must come
        // from the Algorithm-1 snapshot comparison.
        let backend = ScheduledBackend::new(
            DetectorConfig::without_timeouts(),
            ServiceConfig::new(2),
            SchedulerConfig::new(Duration::from_millis(1)),
        );
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(0);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        // Observed state disagrees with the replayed truth: a phantom
        // process is inside the monitor. Gated on the 2 events below.
        let mut tampered = MonitorState::with_resources(0, 1);
        tampered.running.push(PidProc::new(Pid::new(9), al.request));
        let table = Arc::new(SnapshotTable::default());
        table.publish(m, tampered);
        table.expect_events(m, 2);
        backend.set_snapshot_provider(Arc::clone(&table) as Arc<dyn SnapshotProvider>);
        let mut p = backend.producer();
        p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true));
        p.observe(Event::signal_exit(2, Nanos::new(20), m, Pid::new(1), al.request, None, false));
        p.flush();
        // The background sweeps alone — no caller checkpoint — must
        // flag the mismatch once the shard's replay catches up.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut found = Vec::new();
        while found.is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
            found = backend.drain_violations();
        }
        assert!(
            found.iter().any(|v| v.rule == RuleId::St1EntrySnapshot),
            "sweeps must compare against the provider's snapshot: {found:?}"
        );
        backend.shutdown();
    }

    #[test]
    fn clean_traffic_stays_clean_under_sweeps() {
        let backend = ScheduledBackend::new(
            DetectorConfig::without_timeouts(),
            ServiceConfig::new(2),
            SchedulerConfig::new(Duration::from_millis(1)),
        );
        let (spec, al) = allocator_spec();
        let m = MonitorId::new(0);
        backend.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
        let mut p = backend.producer();
        let mut seq = 0;
        for _ in 0..50 {
            for proc_name in [al.request, al.release] {
                seq += 1;
                p.observe(Event::enter(seq, Nanos::new(seq), m, Pid::new(1), proc_name, true));
                seq += 1;
                p.observe(Event::signal_exit(
                    seq,
                    Nanos::new(seq),
                    m,
                    Pid::new(1),
                    proc_name,
                    None,
                    false,
                ));
            }
        }
        p.flush();
        thread::sleep(Duration::from_millis(10));
        let report = backend.checkpoint_window(Nanos::new(seq + 1), &[], &HashMap::new());
        assert!(report.is_clean(), "{report}");
        assert!(backend.drain_violations().is_empty());
        backend.shutdown();
    }

    // -- configured modes --------------------------------------------

    type VerdictKeys = Vec<(Option<Pid>, Option<u64>, RuleId)>;

    #[test]
    fn every_mode_detects_the_same_violations() {
        let (spec, al) = allocator_spec();
        let mut reference: Option<VerdictKeys> = None;
        for mode in [Mode::Sync, Mode::Async, Mode::Hybrid(Nanos::from_millis(50))] {
            let b = async_core(mode, 2);
            let m = MonitorId::new(0);
            b.register_empty(m, Arc::clone(&spec), Nanos::ZERO);
            let mut p = b.producer();
            // Release without request: real-time violations.
            p.observe(Event::enter(1, Nanos::new(10), m, Pid::new(1), al.release, true));
            p.flush();
            let mut got: Vec<_> =
                b.drain_violations().iter().map(|v| (v.pid, v.event_seq, v.rule)).collect();
            got.sort();
            assert!(got.iter().any(|&(_, _, r)| r == RuleId::St8ReleaseWithoutRequest), "{mode:?}");
            match &reference {
                Some(want) => assert_eq!(&got, want, "{mode:?}"),
                None => reference = Some(got),
            }
            b.shutdown();
        }
    }
}
