//! The service side of distributed detection: one logical
//! monitor-fleet checker that N worker sessions stream into.
//!
//! [`DetectionService`] owns an ordinary [`DetectionBackend`]
//! (inline or sharded — the service is backend-agnostic) and a thread
//! per attached worker session. Each session thread:
//!
//! * allocates **global monitor ids** for the worker's `Register`
//!   frames (two workers may both call their first monitor id 0; the
//!   service renames them into one fleet namespace and keeps the
//!   remote↔global maps);
//! * feeds remapped event batches into its own
//!   [`ProducerHandle`](rmon_core::detect::ProducerHandle) — sound
//!   because real-time checking state is per-`Pid` and the session
//!   layer already delivers each worker's frames exactly once in
//!   order;
//! * answers worker-initiated checkpoints: the request carries the
//!   worker's locally gathered `(snapshots, gates)` (see
//!   [`crate::proto`]), so the service never has to call back into the
//!   worker mid-request;
//! * pushes real-time verdicts back to whichever worker owns the
//!   violating monitor, as `Verdicts` frames.
//!
//! Cross-worker order comes from the hybrid logical clock: every
//! session folds arriving stamps into the service's [`NodeClock`], so
//! checkpoint `now` values chosen from [`DetectionService::clock`]
//! dominate everything already received.
//!
//! ## Fleet checkpoints and quarantine
//!
//! [`DetectionService::checkpoint_fleet`] is the paper's Algorithm-1/2
//! consistency check lifted to the fleet: it fans `CheckpointReq`
//! frames to every live session, waits under **one shared deadline**
//! ([`ServiceConfig::checkpoint_timeout`]), installs the returned
//! snapshots into the service-side [`SnapshotProvider`] cache, and
//! runs the backend checkpoint per healthy monitor. A worker that
//! misses the deadline is **quarantined**: its session is marked dead
//! and its monitors are reported in
//! [`FleetReport::quarantined`] instead of stalling the sweep — the
//! distributed analogue of the sharded backend's degraded-shard rule.

use crate::proto::{Msg, PROTO_VERSION};
use crate::session::{NodeClock, Polled, SessionRx, SessionTx};
use crate::transport::Endpoint;
use crossbeam::channel::{bounded, Sender};
use rmon_core::detect::{CheckpointScope, DetectionBackend, SnapshotProvider};
use rmon_core::oplog::Record;
use rmon_core::{
    Event, EventSink, FaultReport, MonitorId, MonitorSpec, MonitorState, Nanos, Violation,
    ViolationSink,
};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps a worker-announced monitor name to its spec, the service-side
/// analogue of `rmon_storage`'s replay resolver.
pub type NameResolver = dyn Fn(&str) -> Option<Arc<MonitorSpec>> + Send + Sync;

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shared deadline for one [`DetectionService::checkpoint_fleet`]
    /// fan-out; a worker that has not answered by then is quarantined.
    pub checkpoint_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { checkpoint_timeout: Duration::from_secs(2) }
    }
}

/// What one fleet checkpoint sweep produced.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Merged verdicts over every healthy monitor, in global ids.
    pub report: FaultReport,
    /// Global ids of monitors whose worker missed the deadline and was
    /// quarantined (their state was *not* checked this sweep).
    pub quarantined: Vec<MonitorId>,
}

/// One attached session as the operator sees it.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// Worker name from its `Hello` frame (empty until it arrives).
    pub name: String,
    /// False once the session closed, errored or was quarantined.
    pub alive: bool,
    /// Events ingested from this worker so far.
    pub events: u64,
    /// Monitors this worker registered.
    pub monitors: usize,
}

type SnapshotReply = (Vec<(MonitorId, MonitorState)>, Vec<(MonitorId, u64)>);

/// Per-session shared state (the session thread and the service API
/// both touch it).
struct SessionState {
    name: Mutex<String>,
    alive: AtomicBool,
    tx: Mutex<SessionTx>,
    /// remote id → global id.
    to_global: Mutex<HashMap<MonitorId, MonitorId>>,
    /// global id → remote id.
    from_global: Mutex<HashMap<MonitorId, MonitorId>>,
    events: AtomicU64,
    unresolved: Mutex<Vec<String>>,
    pending: Mutex<HashMap<u64, Sender<SnapshotReply>>>,
    next_req: AtomicU64,
}

impl fmt::Debug for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionState")
            .field("name", &*self.name.lock().unwrap_or_else(|e| e.into_inner()))
            .field("alive", &self.alive.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl SessionState {
    fn new(tx: SessionTx) -> Self {
        SessionState {
            name: Mutex::new(String::new()),
            alive: AtomicBool::new(true),
            tx: Mutex::new(tx),
            to_global: Mutex::new(HashMap::new()),
            from_global: Mutex::new(HashMap::new()),
            events: AtomicU64::new(0),
            unresolved: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(0),
        }
    }

    fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
        let pending: Vec<Sender<SnapshotReply>> = {
            let mut map = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            map.drain().map(|(_, tx)| tx).collect()
        };
        drop(pending); // dropping the senders wakes blocked receivers
    }

    fn send(&self, msg: &Msg, now: Nanos) -> io::Result<()> {
        let mut tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        tx.send(msg, now).map(|_| ())
    }

    fn globals(&self) -> Vec<MonitorId> {
        let mut out: Vec<MonitorId> =
            self.from_global.lock().unwrap_or_else(|e| e.into_inner()).keys().copied().collect();
        out.sort();
        out
    }

    fn to_remote(&self, global: MonitorId) -> Option<MonitorId> {
        self.from_global.lock().unwrap_or_else(|e| e.into_inner()).get(&global).copied()
    }
}

/// The [`SnapshotProvider`] the service registers on its backend: a
/// cache of the latest fleet snapshots, populated from whichever
/// checkpoint direction supplied them (worker-attached or fan-out
/// replies). `events_recorded` serves the cached gate so the backend's
/// consistency gating works across the wire exactly as in-process.
#[derive(Debug, Default)]
struct FleetCache {
    inner: Mutex<HashMap<MonitorId, (MonitorState, Option<u64>)>>,
}

impl FleetCache {
    fn publish(&self, monitor: MonitorId, state: MonitorState, gate: Option<u64>) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).insert(monitor, (state, gate));
    }

    fn retract(&self, monitors: &[MonitorId]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for m in monitors {
            inner.remove(m);
        }
    }
}

impl SnapshotProvider for FleetCache {
    fn snapshot(&self, monitor: MonitorId, _now: Nanos) -> Option<MonitorState> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&monitor)
            .map(|(state, _)| state.clone())
    }

    fn snapshot_all(&self, _now: Nanos) -> HashMap<MonitorId, MonitorState> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(m, (state, _))| (*m, state.clone()))
            .collect()
    }

    fn events_recorded(&self, monitor: MonitorId) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&monitor)
            .and_then(|(_, gate)| *gate)
    }
}

/// The service-side durable tee (see [`DetectionService::journal`]):
/// worker event frames append as `Events` records the moment they are
/// remapped to global ids, verdicts stage in `pending`, and every fleet
/// checkpoint commits the window with the `Realtime → Checkpoint`
/// sequence the `rmon-storage` replayer's commit protocol expects.
#[derive(Debug)]
struct JournalTee {
    events: Arc<dyn EventSink>,
    verdicts: Arc<dyn ViolationSink>,
    /// Verdicts produced since the last committing fleet checkpoint
    /// (real-time routes and worker-initiated checkpoint reports), in
    /// global ids.
    pending: Vec<Violation>,
}

#[derive(Debug)]
struct ServiceShared {
    clock: NodeClock,
    cache: Arc<FleetCache>,
    registry: Mutex<Vec<Arc<SessionState>>>,
    next_global: AtomicU32,
    /// Every verdict the service has produced, in global ids (the
    /// durable ground truth for equivalence checks and operators).
    verdicts: Mutex<Vec<Violation>>,
    /// Optional durable tee; `None` until
    /// [`DetectionService::journal`] installs one.
    journal: Mutex<Option<JournalTee>>,
    /// Journal appends that failed (disk errors). Detection never
    /// blocks or panics on a failing journal; operators watch
    /// [`DetectionService::journal_errors`].
    journal_errors: AtomicU64,
    /// The first failed append's kind and message
    /// ([`DetectionService::first_journal_error`]).
    first_journal_error: OnceLock<(io::ErrorKind, String)>,
    /// Every registration the fleet has seen, post-renaming: the
    /// worker-announced name and the spec it resolved to (`None` for
    /// unresolved names). Input to [`DetectionService::lint_fleet`].
    registered: Mutex<Vec<(String, Option<Arc<MonitorSpec>>)>>,
    shutdown: AtomicBool,
}

impl ServiceShared {
    /// Folds an append result into the error counter, keeping the
    /// first error — the journal is an observer, never a gate on
    /// detection.
    fn journal_try(&self, result: io::Result<()>) {
        if let Err(e) = result {
            self.journal_errors.fetch_add(1, Ordering::Relaxed);
            self.first_journal_error.get_or_init(|| (e.kind(), e.to_string()));
        }
    }

    /// Journals one monitor registration (global id + declared name).
    fn journal_register(&self, monitor: MonitorId, name: &str, now: Nanos) {
        let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tee) = journal.as_ref() {
            self.journal_try(tee.events.append_register(monitor, name, now));
        }
    }

    /// Journals one remapped worker event frame.
    fn journal_events(&self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tee) = journal.as_ref() {
            self.journal_try(tee.events.append_events(events));
        }
    }

    /// Stages verdicts for the next committing fleet checkpoint.
    fn journal_pending(&self, verdicts: &[Violation]) {
        if verdicts.is_empty() {
            return;
        }
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tee) = journal.as_mut() {
            tee.pending.extend_from_slice(verdicts);
        }
    }

    /// Commits the window at a fleet checkpoint: staged verdicts as a
    /// `Realtime` record, then the `Checkpoint` marker with the
    /// snapshots this sweep compared against, then a sync.
    fn journal_commit(
        &self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) {
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tee) = journal.as_mut() {
            let pending = std::mem::take(&mut tee.pending);
            if !pending.is_empty() {
                self.journal_try(tee.verdicts.append_realtime(&pending));
            }
            self.journal_try(tee.verdicts.append_checkpoint(now, snapshots, report));
            self.journal_try(tee.events.sync());
        }
    }
}

/// One logical detection service for a fleet of worker processes — see
/// the [module docs](self).
pub struct DetectionService {
    backend: Arc<dyn DetectionBackend>,
    resolve: Arc<NameResolver>,
    cfg: ServiceConfig,
    shared: Arc<ServiceShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for DetectionService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectionService")
            .field("backend", &self.backend.label())
            .field(
                "sessions",
                &self.shared.registry.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish_non_exhaustive()
    }
}

impl DetectionService {
    /// Wraps `backend` as the fleet's checker. `resolve` maps
    /// worker-announced monitor names to specs (workers ship names, not
    /// spec bodies). Installs the fleet snapshot cache as the backend's
    /// [`SnapshotProvider`].
    pub fn new(
        backend: Arc<dyn DetectionBackend>,
        resolve: Arc<NameResolver>,
        cfg: ServiceConfig,
    ) -> Self {
        let cache = Arc::new(FleetCache::default());
        backend.set_snapshot_provider(Arc::clone(&cache) as Arc<dyn SnapshotProvider>);
        DetectionService {
            backend,
            resolve,
            cfg,
            shared: Arc::new(ServiceShared {
                clock: NodeClock::new(),
                cache,
                registry: Mutex::new(Vec::new()),
                next_global: AtomicU32::new(0),
                verdicts: Mutex::new(Vec::new()),
                journal: Mutex::new(None),
                journal_errors: AtomicU64::new(0),
                first_journal_error: OnceLock::new(),
                registered: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Accepts one worker session over `endpoint` and spawns its
    /// session thread. Returns the session's index (stable for
    /// [`Self::sessions`]).
    pub fn attach(&self, endpoint: Endpoint) -> usize {
        let tx = SessionTx::new(endpoint.tx, self.shared.clock.clone());
        let session = Arc::new(SessionState::new(tx));
        let index = {
            let mut registry = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
            registry.push(Arc::clone(&session));
            registry.len() - 1
        };
        let rx = SessionRx::new(endpoint.rx, self.shared.clock.clone());
        let shared = Arc::clone(&self.shared);
        let backend = Arc::clone(&self.backend);
        let resolve = Arc::clone(&self.resolve);
        let handle = std::thread::Builder::new()
            .name(format!("rmon-net-session-{index}"))
            .spawn(move || session_loop(rx, session, shared, backend, resolve))
            .expect("spawn session thread");
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        index
    }

    /// Installs a durable journal tee (typically an `rmon-storage`
    /// `DurableSink`): incoming worker `Events` frames are appended —
    /// remapped to **global ids** — as they arrive, registrations as
    /// `Register` records, and every [`Self::checkpoint_fleet`] sweep
    /// commits the window with the replayer's `Realtime → Checkpoint`
    /// sequence. An `Epoch` record is appended now, so install the tee
    /// **before attaching workers** — the replayer needs the epoch
    /// ahead of every registration.
    ///
    /// Replay equivalence holds for fleet-barrier-paced operation over
    /// event-deterministic verdicts (the same guarantee the
    /// single-process journal gives): a window's events are all
    /// journaled before the barrier that commits their verdicts, so a
    /// fresh detector driven over the log reproduces the recorded
    /// verdict sequence. Frames still in flight *during* a commit land
    /// in the next window; end a run with a final
    /// [`Self::checkpoint_fleet`] so nothing is left staged.
    pub fn journal<S: EventSink + ViolationSink + 'static>(&self, sink: Arc<S>) {
        let now = self.shared.clock.last().physical;
        self.shared.journal_try(sink.append_epoch(now));
        let tee = JournalTee {
            events: Arc::clone(&sink) as Arc<dyn EventSink>,
            verdicts: sink as Arc<dyn ViolationSink>,
            pending: Vec::new(),
        };
        *self.shared.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(tee);
    }

    /// Lints the fleet as registered so far: full static analysis
    /// ([`rmon_core::spec::analyze`](rmon_core::analyze)) of every
    /// distinct resolved declaration, plus the cross-monitor `RML04x`
    /// checks over the post-renaming namespace — name collisions
    /// (`RML040`), capacity drift between paired coordinator specs
    /// (`RML041`), names the resolver could not resolve (`RML042`,
    /// those monitors are not being checked), and duplicate
    /// registrations of one name (`RML043`).
    ///
    /// Cheap and read-only: computed on demand from the registration
    /// log, so operators can poll it while the fleet runs.
    pub fn lint_fleet(&self) -> rmon_core::LintReport {
        let entries = self.shared.registered.lock().unwrap_or_else(|e| e.into_inner()).clone();
        rmon_core::analyze_all(entries)
    }

    /// Journal appends that have failed so far (disk errors on the
    /// installed tee). A nonzero counter means the durable log is
    /// missing records and replay from it is incomplete.
    pub fn journal_errors(&self) -> u64 {
        self.shared.journal_errors.load(Ordering::Relaxed)
    }

    /// The kind and message of the first journal append that failed,
    /// `None` while [`Self::journal_errors`] is zero. `InvalidInput` is
    /// a record the sink refused as past its size cap; any other kind
    /// is an OS append or fsync failure.
    pub fn first_journal_error(&self) -> Option<(io::ErrorKind, String)> {
        self.shared.first_journal_error.get().cloned()
    }

    /// The service's hybrid logical clock; `last().physical` is a
    /// checkpoint `now` that dominates every event already received.
    pub fn clock(&self) -> &NodeClock {
        &self.shared.clock
    }

    /// The backend doing the actual checking.
    pub fn backend(&self) -> &Arc<dyn DetectionBackend> {
        &self.backend
    }

    /// Operator view of every attached session, in attach order.
    pub fn sessions(&self) -> Vec<SessionSummary> {
        self.shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|s| SessionSummary {
                name: s.name.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                alive: s.alive.load(Ordering::Acquire),
                events: s.events.load(Ordering::Acquire),
                monitors: s.from_global.lock().unwrap_or_else(|e| e.into_inner()).len(),
            })
            .collect()
    }

    /// Which worker session (by name) and remote id a global monitor id
    /// belongs to.
    pub fn describe(&self, global: MonitorId) -> Option<(String, MonitorId)> {
        let registry = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        for session in registry.iter() {
            if let Some(remote) = session.to_remote(global) {
                let name = session.name.lock().unwrap_or_else(|e| e.into_inner()).clone();
                return Some((name, remote));
            }
        }
        None
    }

    /// Monitor names workers announced that `resolve` could not map to
    /// a spec (those monitors are not checked).
    pub fn unresolved(&self) -> Vec<String> {
        let registry = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for session in registry.iter() {
            out.extend(session.unresolved.lock().unwrap_or_else(|e| e.into_inner()).clone());
        }
        out
    }

    /// Every verdict produced so far (real-time and checkpoint), in
    /// global ids — the service-side ground truth.
    pub fn verdict_log(&self) -> Vec<Violation> {
        self.shared.verdicts.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// One Algorithm-1/2 sweep over the whole fleet: snapshot fan-out
    /// under a shared deadline, quarantine of non-answering workers,
    /// backend checkpoint over every healthy monitor. See the
    /// [module docs](self).
    pub fn checkpoint_fleet(&self, now: Nanos) -> FleetReport {
        let sessions: Vec<Arc<SessionState>> = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.alive.load(Ordering::Acquire))
            .cloned()
            .collect();

        // Fan out: one request per live session, reply channels kept.
        let mut waiting = Vec::new();
        for session in sessions {
            let monitors: Vec<MonitorId> = {
                let map = session.to_global.lock().unwrap_or_else(|e| e.into_inner());
                let mut remote: Vec<MonitorId> = map.keys().copied().collect();
                remote.sort();
                remote
            };
            let id = session.next_req.fetch_add(1, Ordering::Relaxed);
            let (reply_tx, reply_rx) = bounded(1);
            session.pending.lock().unwrap_or_else(|e| e.into_inner()).insert(id, reply_tx);
            let req =
                Msg::CheckpointReq { id, now, monitors, snapshots: Vec::new(), gates: Vec::new() };
            if session.send(&req, now).is_err() {
                session.mark_dead();
                continue;
            }
            waiting.push((session, id, reply_rx));
        }

        // Collect under one shared deadline; a missed deadline
        // quarantines the worker rather than stalling the sweep.
        let deadline = Instant::now() + self.cfg.checkpoint_timeout;
        let mut quarantined = Vec::new();
        let mut published = Vec::new();
        let mut snap_map: HashMap<MonitorId, MonitorState> = HashMap::new();
        for (session, id, reply_rx) in waiting {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match reply_rx.recv_timeout(remaining) {
                Ok((snapshots, gates)) => {
                    let gates: HashMap<MonitorId, u64> = gates.into_iter().collect();
                    let to_global = session.to_global.lock().unwrap_or_else(|e| e.into_inner());
                    for (remote, state) in snapshots {
                        if let Some(&global) = to_global.get(&remote) {
                            snap_map.insert(global, state.clone());
                            self.shared.cache.publish(global, state, gates.get(&remote).copied());
                            published.push(global);
                        }
                    }
                }
                Err(_) => {
                    session.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    session.mark_dead();
                    quarantined.extend(session.globals());
                }
            }
        }

        // Check every monitor still owned by a live worker.
        let healthy: Vec<MonitorId> = {
            let registry = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
            let mut out = Vec::new();
            for session in registry.iter() {
                if session.alive.load(Ordering::Acquire) {
                    out.extend(session.globals());
                }
            }
            out.sort();
            out
        };
        let report = FaultReport::merged(
            healthy.iter().map(|&m| self.backend.checkpoint(CheckpointScope::Monitor(m), now)),
        );
        self.shared.cache.retract(&published);

        self.shared.verdicts.lock().unwrap_or_else(|e| e.into_inner()).extend(
            report.violations.iter().chain(report.predicted.iter().map(|p| &p.violation)).cloned(),
        );
        push_verdicts(
            &self.shared,
            report.violations.iter().chain(report.predicted.iter().map(|p| &p.violation)),
            now,
        );
        route_realtime(&self.shared, self.backend.as_ref());
        // Commit after the drain above, so real-time verdicts of
        // already-journaled events land in this window, not the next.
        self.shared.journal_commit(now, &snap_map, &report);

        quarantined.sort();
        FleetReport { report, quarantined }
    }

    /// Stops every session thread (best-effort `Shutdown` frame to each
    /// live worker first) and shuts the backend down.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let now = self.shared.clock.last().physical;
        {
            let registry = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
            for session in registry.iter() {
                if session.alive.load(Ordering::Acquire) {
                    let _ = session.send(&Msg::Shutdown, now);
                }
                session.mark_dead();
            }
        }
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in threads {
            let _ = handle.join();
        }
        self.backend.shutdown();
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains the backend's real-time verdicts, logs them, and pushes each
/// back to the worker session that owns the violating monitor
/// (translated into that worker's id namespace).
fn route_realtime(shared: &ServiceShared, backend: &dyn DetectionBackend) {
    let verdicts = backend.drain_violations();
    if verdicts.is_empty() {
        return;
    }
    shared.verdicts.lock().unwrap_or_else(|e| e.into_inner()).extend(verdicts.iter().cloned());
    shared.journal_pending(&verdicts);
    let now = shared.clock.last().physical;
    push_verdicts(shared, verdicts.iter(), now);
}

/// Pushes verdicts (given in global ids) to their owning sessions.
fn push_verdicts<'a>(
    shared: &ServiceShared,
    verdicts: impl Iterator<Item = &'a Violation>,
    now: Nanos,
) {
    let registry: Vec<Arc<SessionState>> = {
        let lock = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        lock.clone()
    };
    let mut by_session: HashMap<usize, Vec<Violation>> = HashMap::new();
    for v in verdicts {
        for (i, session) in registry.iter().enumerate() {
            if let Some(remote) = session.to_remote(v.monitor) {
                let mut v = v.clone();
                v.monitor = remote;
                by_session.entry(i).or_default().push(v);
                break;
            }
        }
    }
    for (i, batch) in by_session {
        let session = &registry[i];
        if session.alive.load(Ordering::Acquire)
            && session.send(&Msg::Verdicts(batch), now).is_err()
        {
            session.mark_dead();
        }
    }
}

fn session_loop(
    mut rx: SessionRx,
    session: Arc<SessionState>,
    shared: Arc<ServiceShared>,
    backend: Arc<dyn DetectionBackend>,
    resolve: Arc<NameResolver>,
) {
    // Each session gets its own producer handle: per-worker events stay
    // in worker order (exactly-once from the session layer), and
    // real-time state is per-`Pid`, so cross-session interleaving at
    // the backend is harmless.
    let mut producer = backend.producer();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let now = shared.clock.last().physical;
        match rx.poll(now) {
            Ok(Polled::Msg(env)) => match env.msg {
                Msg::Hello { proto, name } => {
                    if proto != PROTO_VERSION {
                        session.mark_dead();
                        break;
                    }
                    *session.name.lock().unwrap_or_else(|e| e.into_inner()) = name;
                }
                Msg::Register { monitor, name, now, initial } => {
                    let global = MonitorId::new(shared.next_global.fetch_add(1, Ordering::Relaxed));
                    session
                        .to_global
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(monitor, global);
                    session
                        .from_global
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(global, monitor);
                    let spec = resolve(&name);
                    shared
                        .registered
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((name.clone(), spec.clone()));
                    match spec {
                        Some(spec) => {
                            backend.register(global, spec, &initial, now);
                            // Journal in the global namespace, like the
                            // event frames — the replayer then resolves
                            // and checks exactly what the service did.
                            shared.journal_register(global, &name, now);
                        }
                        None => {
                            session.unresolved.lock().unwrap_or_else(|e| e.into_inner()).push(name)
                        }
                    }
                }
                Msg::Record(Record::Events(events)) => {
                    let remapped: Vec<Event> = {
                        let to_global = session.to_global.lock().unwrap_or_else(|e| e.into_inner());
                        events
                            .into_iter()
                            .filter_map(|mut event| {
                                // Unregistered monitor: drop.
                                let &global = to_global.get(&event.monitor)?;
                                event.monitor = global;
                                Some(event)
                            })
                            .collect()
                    };
                    // Tee the frame to the journal before ingestion, so
                    // every verdict's cause precedes it in the log.
                    shared.journal_events(&remapped);
                    for event in &remapped {
                        producer.observe(*event);
                    }
                    producer.flush();
                    session.events.fetch_add(remapped.len() as u64, Ordering::Release);
                    route_realtime(&shared, backend.as_ref());
                }
                Msg::Record(_) => {}
                Msg::CheckpointReq { id, now, monitors, snapshots, gates } => {
                    // Worker-initiated: the request carries the
                    // worker's own snapshots, so no call-back needed.
                    let report = worker_checkpoint(
                        &shared,
                        backend.as_ref(),
                        &session,
                        now,
                        monitors,
                        snapshots,
                        gates,
                    );
                    let resp = Msg::CheckpointResp {
                        id,
                        snapshots: Vec::new(),
                        gates: Vec::new(),
                        report,
                    };
                    if session.send(&resp, now).is_err() {
                        session.mark_dead();
                        break;
                    }
                }
                Msg::CheckpointResp { id, snapshots, gates, .. } => {
                    let reply =
                        session.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    if let Some(reply) = reply {
                        let _ = reply.send((snapshots, gates));
                    }
                }
                Msg::Verdicts(_) => {}
                Msg::Shutdown => {
                    producer.flush();
                    route_realtime(&shared, backend.as_ref());
                    session.mark_dead();
                    break;
                }
            },
            Ok(Polled::Idle) => {
                if !session.alive.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(Polled::Closed) | Err(_) => {
                producer.flush();
                route_realtime(&shared, backend.as_ref());
                session.mark_dead();
                break;
            }
        }
    }
    session.mark_dead();
}

/// Serves one worker-initiated checkpoint: installs the attached
/// snapshots under global ids, runs the backend checkpoint per
/// requested monitor, and returns the report translated back into the
/// worker's id namespace.
fn worker_checkpoint(
    shared: &ServiceShared,
    backend: &dyn DetectionBackend,
    session: &SessionState,
    now: Nanos,
    monitors: Vec<MonitorId>,
    snapshots: Vec<(MonitorId, MonitorState)>,
    gates: Vec<(MonitorId, u64)>,
) -> FaultReport {
    let (globals, published) = {
        let to_global = session.to_global.lock().unwrap_or_else(|e| e.into_inner());
        let requested: Vec<MonitorId> = if monitors.is_empty() {
            let mut all: Vec<MonitorId> = to_global.values().copied().collect();
            all.sort();
            all
        } else {
            monitors.iter().filter_map(|m| to_global.get(m).copied()).collect()
        };
        let gates: HashMap<MonitorId, u64> = gates.into_iter().collect();
        let mut published = Vec::new();
        for (remote, state) in snapshots {
            if let Some(&global) = to_global.get(&remote) {
                shared.cache.publish(global, state, gates.get(&remote).copied());
                published.push(global);
            }
        }
        (requested, published)
    };

    // Per-monitor scope keeps the sweep inside this worker's slice of
    // the fleet (CheckpointScope::All would drag other workers'
    // monitors into a request they never made).
    let report = FaultReport::merged(
        globals.iter().map(|&m| backend.checkpoint(CheckpointScope::Monitor(m), now)),
    );
    shared.cache.retract(&published);

    shared.verdicts.lock().unwrap_or_else(|e| e.into_inner()).extend(
        report.violations.iter().chain(report.predicted.iter().map(|p| &p.violation)).cloned(),
    );
    // Stage for the next committing fleet barrier (violations only:
    // the replayer recomputes violations, never predictions).
    shared.journal_pending(&report.violations);

    // Translate back into the worker's namespace.
    let mut translated = report;
    let from_global = session.from_global.lock().unwrap_or_else(|e| e.into_inner());
    for v in translated
        .violations
        .iter_mut()
        .chain(translated.predicted.iter_mut().map(|p| &mut p.violation))
    {
        if let Some(&remote) = from_global.get(&v.monitor) {
            v.monitor = remote;
        }
    }
    translated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{RemoteBackend, RemoteConfig};
    use crate::transport::duplex;
    use rmon_core::detect::{DetectionBackend, InlineBackend};
    use rmon_core::{DetectorConfig, Event, Pid};
    use std::time::Instant;

    fn resolver() -> Arc<NameResolver> {
        Arc::new(|name: &str| {
            (name == "res").then(|| Arc::new(MonitorSpec::allocator("res", 1).spec))
        })
    }

    fn inline_service(timeout: Duration) -> DetectionService {
        DetectionService::new(
            Arc::new(InlineBackend::new(DetectorConfig::without_timeouts())),
            resolver(),
            ServiceConfig { checkpoint_timeout: timeout },
        )
    }

    fn wait_until(mut pred: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Pid 2 releasing a never-requested unit: a deterministic FD-1
    /// real-time violation on the allocator spec.
    fn faulty_release(monitor: MonitorId, seq: u64) -> Event {
        let al = MonitorSpec::allocator("res", 1);
        Event::enter(seq, Nanos::new(seq * 10), monitor, Pid::new(2), al.release, false)
    }

    #[test]
    fn worker_events_reach_the_service_and_verdicts_come_back() {
        let service = inline_service(Duration::from_secs(2));
        let (worker_end, service_end) = duplex(1024);
        service.attach(service_end);
        let worker =
            RemoteBackend::connect(worker_end, RemoteConfig::named("w0"), Nanos::ZERO).unwrap();

        let m = MonitorId::new(0);
        let spec = Arc::new(MonitorSpec::allocator("res", 1).spec);
        worker.register(m, Arc::clone(&spec), &spec.empty_state(), Nanos::ZERO);
        let mut producer = worker.producer();
        producer.observe(faulty_release(m, 1));
        producer.flush();

        wait_until(|| !service.verdict_log().is_empty(), "service verdict");
        let logged = service.verdict_log();
        for v in &logged {
            assert_eq!(service.describe(v.monitor), Some(("w0".into(), m)));
        }

        // The verdict is pushed back to the owning worker, translated
        // into its own id namespace.
        wait_until(|| !worker.is_connected() || worker.stats().total_events() > 0, "ingest");
        let mut got = Vec::new();
        wait_until(
            || {
                got.extend(worker.drain_violations());
                !got.is_empty()
            },
            "verdict push-back",
        );
        assert_eq!(got[0].monitor, m);
        worker.shutdown();
        service.shutdown();
    }

    #[test]
    fn two_workers_get_disjoint_global_ids_and_their_own_verdicts() {
        let service = inline_service(Duration::from_secs(2));
        let mut workers = Vec::new();
        for name in ["w0", "w1"] {
            let (worker_end, service_end) = duplex(1024);
            service.attach(service_end);
            let worker =
                RemoteBackend::connect(worker_end, RemoteConfig::named(name), Nanos::ZERO).unwrap();
            // Both workers call their monitor id 0 — the service must
            // rename them apart.
            let spec = Arc::new(MonitorSpec::allocator("res", 1).spec);
            worker.register(MonitorId::new(0), Arc::clone(&spec), &spec.empty_state(), Nanos::ZERO);
            workers.push(worker);
        }
        // Only worker 1 misbehaves.
        let mut producer = workers[1].producer();
        producer.observe(faulty_release(MonitorId::new(0), 1));
        producer.flush();

        wait_until(|| !service.verdict_log().is_empty(), "service verdict");
        let logged = service.verdict_log();
        assert_eq!(service.describe(logged[0].monitor), Some(("w1".into(), MonitorId::new(0))));

        let mut got = Vec::new();
        wait_until(
            || {
                got.extend(workers[1].drain_violations());
                !got.is_empty()
            },
            "verdict routed to w1",
        );
        assert!(workers[0].drain_violations().is_empty(), "w0 must not receive w1's verdicts");
        for w in &workers {
            w.shutdown();
        }
        service.shutdown();
    }

    #[test]
    fn lint_fleet_reports_duplicates_and_unresolved_names() {
        use rmon_core::DiagCode;
        let service = inline_service(Duration::from_secs(2));
        let mut workers = Vec::new();
        for name in ["w0", "w1"] {
            let (worker_end, service_end) = duplex(1024);
            service.attach(service_end);
            let worker =
                RemoteBackend::connect(worker_end, RemoteConfig::named(name), Nanos::ZERO).unwrap();
            // Both workers announce "res" (identical spec — lint-level
            // duplicate), and w1 also announces a name the resolver
            // does not know (warn: that monitor is unchecked).
            let spec = Arc::new(MonitorSpec::allocator("res", 1).spec);
            worker.register(MonitorId::new(0), Arc::clone(&spec), &spec.empty_state(), Nanos::ZERO);
            if name == "w1" {
                let ghost = Arc::new(MonitorSpec::allocator("ghost", 1).spec);
                worker.register(
                    MonitorId::new(1),
                    ghost.clone(),
                    &ghost.empty_state(),
                    Nanos::ZERO,
                );
            }
            workers.push(worker);
        }
        wait_until(|| service.lint_fleet().diagnostics.len() >= 2, "registrations recorded");

        let report = service.lint_fleet();
        let codes: Vec<DiagCode> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&DiagCode::FleetDuplicateRegistration), "{report}");
        assert!(codes.contains(&DiagCode::FleetUnresolved), "{report}");
        assert!(!report.has_errors(), "{report}");
        for w in &workers {
            w.shutdown();
        }
        service.shutdown();
    }

    #[test]
    fn worker_initiated_checkpoint_round_trips() {
        let service = inline_service(Duration::from_secs(2));
        let (worker_end, service_end) = duplex(1024);
        service.attach(service_end);
        let worker =
            RemoteBackend::connect(worker_end, RemoteConfig::named("w0"), Nanos::ZERO).unwrap();
        let spec = Arc::new(MonitorSpec::allocator("res", 1).spec);
        worker.register(MonitorId::new(0), Arc::clone(&spec), &spec.empty_state(), Nanos::ZERO);

        let report = worker.checkpoint(CheckpointScope::All, Nanos::new(1_000));
        assert!(report.is_clean());
        worker.shutdown();
        service.shutdown();
    }

    #[test]
    fn fleet_checkpoint_quarantines_a_silent_worker_without_stalling() {
        let service = inline_service(Duration::from_millis(100));

        // Worker 0: a real backend that answers fan-outs.
        let (worker_end, service_end) = duplex(1024);
        service.attach(service_end);
        let live =
            RemoteBackend::connect(worker_end, RemoteConfig::named("live"), Nanos::ZERO).unwrap();
        let spec = Arc::new(MonitorSpec::allocator("res", 1).spec);
        live.register(MonitorId::new(0), Arc::clone(&spec), &spec.empty_state(), Nanos::ZERO);

        // Worker 1: registers a monitor, then never answers anything.
        let (silent_end, service_end) = duplex(1024);
        service.attach(service_end);
        let mut silent_tx = SessionTx::new(silent_end.tx, NodeClock::new());
        silent_tx
            .send(&Msg::Hello { proto: PROTO_VERSION, name: "silent".into() }, Nanos::ZERO)
            .unwrap();
        silent_tx
            .send(
                &Msg::Register {
                    monitor: MonitorId::new(0),
                    name: "res".into(),
                    now: Nanos::ZERO,
                    initial: spec.empty_state(),
                },
                Nanos::ZERO,
            )
            .unwrap();
        wait_until(
            || service.sessions().iter().map(|s| s.monitors).sum::<usize>() == 2,
            "both registrations",
        );

        let started = Instant::now();
        let fleet = service.checkpoint_fleet(Nanos::new(1_000));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the sweep must degrade, not stall, on a dead worker"
        );
        assert_eq!(fleet.quarantined.len(), 1);
        assert_eq!(service.describe(fleet.quarantined[0]).unwrap().0, "silent");
        assert!(fleet.report.is_clean());

        let sessions = service.sessions();
        assert!(sessions[0].alive, "the healthy worker stays attached");
        assert!(!sessions[1].alive, "the silent worker is quarantined");

        // A second sweep skips the quarantined worker entirely (fast).
        let started = Instant::now();
        let again = service.checkpoint_fleet(Nanos::new(2_000));
        assert!(again.quarantined.is_empty());
        assert!(started.elapsed() < Duration::from_millis(100) + Duration::from_secs(1));

        live.shutdown();
        service.shutdown();
    }

    /// A journal whose every append fails the way a full disk does.
    #[derive(Debug)]
    struct FailingSink;

    impl EventSink for FailingSink {
        fn append_epoch(&self, _: Nanos) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
        fn append_register(&self, _: MonitorId, _: &str, _: Nanos) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
        fn append_events(&self, _: &[Event]) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
    }

    impl ViolationSink for FailingSink {
        fn append_realtime(&self, _: &[Violation]) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
        fn append_checkpoint(
            &self,
            _: Nanos,
            _: &HashMap<MonitorId, MonitorState>,
            _: &FaultReport,
        ) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
    }

    #[test]
    fn a_failing_journal_is_counted_with_its_first_error() {
        let service = inline_service(Duration::from_secs(2));
        assert_eq!(service.first_journal_error(), None);
        service.journal(Arc::new(FailingSink));
        let fleet = service.checkpoint_fleet(Nanos::new(1_000));
        assert!(fleet.report.is_clean());
        assert!(service.journal_errors() >= 1);
        assert_eq!(service.first_journal_error(), Some((io::ErrorKind::Other, "disk gone".into())));
        service.shutdown();
    }
}
