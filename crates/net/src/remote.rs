//! The worker side of distributed detection: a
//! [`DetectionBackend`] that streams everything to a remote
//! [`crate::service::DetectionService`] instead of checking locally.
//!
//! `RemoteBackend` implements the same trait the inline/sharded
//! backends do, so an embedding runtime (e.g. `rmon-rt`'s
//! `RuntimeBuilder::backend`) plugs it in unchanged: registrations,
//! event batches and checkpoint requests travel over a
//! [`crate::transport::Endpoint`]; the runtime's
//! [`SnapshotProvider`] registration works too — the backend answers
//! the service's checkpoint fan-out by running the
//! [`gather_snapshots`] seqlock dance against the local provider and
//! shipping `(snapshots, gates)` back, so Algorithm-1/2 comparisons
//! stay consistency-gated end to end.
//!
//! ## What stays local, what moves
//!
//! * **Local**: event batching (the [`ProducerHandle`] shape and its
//!   flush threshold), snapshot observation, the violation inbox
//!   (verdicts the service pushes back via `Verdicts` frames).
//! * **Remote**: all detection state — checking lists, call-order states,
//!   watermarks, timers. Consequently
//!   [`DetectionBackend::call_would_violate`] answers `None` here: the
//!   synchronous ST-8 lookahead would cost a network round-trip on the
//!   caller's hot path, so remote deployments run prevention-free
//!   (detection still reports the violation; `rmon-rt`'s
//!   `OrderPolicy::Deny` simply never denies on a remote backend).
//!
//! Checkpoints are synchronous round-trips with a bounded wait:
//! [`DetectionBackend::checkpoint`] returns the service's verdicts, or
//! an empty report once [`RemoteConfig::checkpoint_timeout`] expires
//! (degraded, never stalled — the distributed mirror of a dead shard).

use crate::proto::{Msg, PROTO_VERSION};
use crate::session::{NodeClock, Polled, SessionRx, SessionTx};
use crate::transport::Endpoint;
use crossbeam::channel::{bounded, Sender};
use rmon_core::detect::{
    gather_snapshots, CheckpointScope, DetectionBackend, ProducerHandle, ServiceStats, ShardStats,
    SnapshotProvider,
};
use rmon_core::oplog::Record;
use rmon_core::{
    Event, FaultReport, MonitorId, MonitorSpec, MonitorState, Nanos, Pid, ProcName, RuleId,
    Violation,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for one worker's connection to the detection service.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Worker display name, sent in the `Hello` frame and used by the
    /// service in quarantine reports.
    pub name: String,
    /// Events a producer handle buffers before shipping one
    /// `Record::Events` frame.
    pub batch: usize,
    /// How long a synchronous checkpoint waits for the service's
    /// verdicts before degrading to an empty report.
    pub checkpoint_timeout: Duration,
}

impl RemoteConfig {
    /// Defaults: 64-event batches, 5 s checkpoint wait.
    pub fn named(name: impl Into<String>) -> Self {
        RemoteConfig { name: name.into(), batch: 64, checkpoint_timeout: Duration::from_secs(5) }
    }
}

#[derive(Debug, Default)]
struct RemoteShared {
    violations: Mutex<Vec<Violation>>,
    pending: Mutex<HashMap<u64, Sender<FaultReport>>>,
    provider: Mutex<Option<Arc<dyn SnapshotProvider>>>,
    monitors: Mutex<Vec<MonitorId>>,
    counters: Mutex<ShardStats>,
}

impl RemoteShared {
    fn fail_all_pending(&self) {
        let pending: Vec<Sender<FaultReport>> = {
            let mut map = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            map.drain().map(|(_, tx)| tx).collect()
        };
        for tx in pending {
            let _ = tx.send(FaultReport::default());
        }
    }
}

/// A [`DetectionBackend`] whose engine lives across a transport — see
/// the [module docs](self) for the division of labour.
#[derive(Debug)]
pub struct RemoteBackend {
    tx: Arc<Mutex<SessionTx>>,
    shared: Arc<RemoteShared>,
    open: Arc<AtomicBool>,
    reader: Mutex<Option<JoinHandle<()>>>,
    next_req: AtomicU64,
    clock: NodeClock,
    cfg: RemoteConfig,
}

impl RemoteBackend {
    /// Opens a session over `endpoint`: sends the `Hello` frame and
    /// spawns the reader thread that serves checkpoint fan-outs and
    /// collects pushed verdicts.
    pub fn connect(endpoint: Endpoint, cfg: RemoteConfig, now: Nanos) -> io::Result<Self> {
        let clock = NodeClock::new();
        let mut session_tx = SessionTx::new(endpoint.tx, clock.clone());
        session_tx.send(&Msg::Hello { proto: PROTO_VERSION, name: cfg.name.clone() }, now)?;
        let tx = Arc::new(Mutex::new(session_tx));
        let shared = Arc::new(RemoteShared::default());
        let open = Arc::new(AtomicBool::new(true));
        let reader = {
            let rx = SessionRx::new(endpoint.rx, clock.clone());
            let tx = Arc::clone(&tx);
            let shared = Arc::clone(&shared);
            let open = Arc::clone(&open);
            let clock = clock.clone();
            std::thread::Builder::new()
                .name(format!("rmon-net-{}", cfg.name))
                .spawn(move || reader_loop(rx, tx, shared, open, clock))
                .map_err(io::Error::other)?
        };
        Ok(RemoteBackend {
            tx,
            shared,
            open,
            reader: Mutex::new(Some(reader)),
            next_req: AtomicU64::new(0),
            clock,
            cfg,
        })
    }

    /// The worker's hybrid logical clock (ticked by every send, merged
    /// on every receive).
    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    /// Whether the session is still up (false after [`Self::shutdown`]
    /// or a transport close).
    pub fn is_connected(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    fn send(&self, msg: &Msg, now: Nanos) -> io::Result<()> {
        let mut tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        tx.send(msg, now).map(|_| ())
    }

    /// One synchronous checkpoint round-trip; `monitors` are in this
    /// worker's id namespace.
    fn checkpoint_round_trip(
        &self,
        now: Nanos,
        monitors: Vec<MonitorId>,
        snapshots: Vec<(MonitorId, MonitorState)>,
        gates: Vec<(MonitorId, u64)>,
    ) -> FaultReport {
        if !self.open.load(Ordering::Acquire) {
            return FaultReport::default();
        }
        let id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).insert(id, reply_tx);
        let req = Msg::CheckpointReq { id, now, monitors, snapshots, gates };
        if self.send(&req, now).is_err() {
            self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
            return FaultReport::default();
        }
        match reply_rx.recv_timeout(self.cfg.checkpoint_timeout) {
            Ok(report) => report,
            Err(_) => {
                // Degrade, never stall: forget the request and answer
                // empty. A late reply finds no pending entry and is
                // dropped by the reader.
                self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                FaultReport::default()
            }
        }
    }

    fn local_monitors(&self) -> Vec<MonitorId> {
        self.shared.monitors.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

fn reader_loop(
    mut rx: SessionRx,
    tx: Arc<Mutex<SessionTx>>,
    shared: Arc<RemoteShared>,
    open: Arc<AtomicBool>,
    clock: NodeClock,
) {
    loop {
        let now = clock.last().physical;
        match rx.poll(now) {
            Ok(Polled::Msg(env)) => match env.msg {
                Msg::CheckpointReq { id, now, monitors, .. } => {
                    // Service-initiated fan-out: observe and answer.
                    let monitors = if monitors.is_empty() {
                        shared.monitors.lock().unwrap_or_else(|e| e.into_inner()).clone()
                    } else {
                        monitors
                    };
                    let provider =
                        shared.provider.lock().unwrap_or_else(|e| e.into_inner()).clone();
                    let (snapshots, gates) = gather_snapshots(provider.as_deref(), &monitors, now);
                    let mut snapshots: Vec<_> = snapshots.into_iter().collect();
                    snapshots.sort_by_key(|(m, _)| *m);
                    let mut gates: Vec<_> = gates.into_iter().collect();
                    gates.sort_by_key(|(m, _)| *m);
                    let resp = Msg::CheckpointResp {
                        id,
                        snapshots,
                        gates,
                        report: FaultReport::default(),
                    };
                    let mut tx = tx.lock().unwrap_or_else(|e| e.into_inner());
                    if tx.send(&resp, now).is_err() {
                        open.store(false, Ordering::Release);
                    }
                }
                Msg::CheckpointResp { id, report, .. } => {
                    let reply =
                        shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    if let Some(reply) = reply {
                        let _ = reply.send(report);
                    }
                }
                Msg::Verdicts(mut vs) => {
                    shared.violations.lock().unwrap_or_else(|e| e.into_inner()).append(&mut vs);
                }
                Msg::Shutdown => {
                    open.store(false, Ordering::Release);
                    break;
                }
                _ => {}
            },
            Ok(Polled::Idle) => {
                if !open.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(Polled::Closed) | Err(_) => {
                open.store(false, Ordering::Release);
                break;
            }
        }
    }
    // Whatever ended the session, no checkpoint may hang on it.
    shared.fail_all_pending();
}

impl DetectionBackend for RemoteBackend {
    fn register(
        &self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) {
        {
            let mut shared = self.shared.monitors.lock().unwrap_or_else(|e| e.into_inner());
            if !shared.contains(&monitor) {
                shared.push(monitor);
            }
        }
        self.shared.counters.lock().unwrap_or_else(|e| e.into_inner()).monitors += 1;
        let msg = Msg::Register { monitor, name: spec.name.clone(), now, initial: initial.clone() };
        let _ = self.send(&msg, now);
    }

    fn producer(&self) -> Box<dyn ProducerHandle> {
        Box::new(RemoteProducer {
            tx: Arc::clone(&self.tx),
            shared: Arc::clone(&self.shared),
            open: Arc::clone(&self.open),
            buf: Vec::new(),
            batch: self.cfg.batch.max(1),
        })
    }

    /// Always `None`: the ST-8 lookahead would be a network round-trip
    /// on the caller's hot path (see the [module docs](self)).
    fn call_would_violate(
        &self,
        _monitor: MonitorId,
        _pid: Pid,
        _proc_name: ProcName,
    ) -> Option<RuleId> {
        None
    }

    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>) {
        *self.shared.provider.lock().unwrap_or_else(|e| e.into_inner()) = Some(provider);
    }

    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport {
        let monitors = match scope {
            CheckpointScope::All | CheckpointScope::Shard(0) => self.local_monitors(),
            CheckpointScope::Shard(_) => return FaultReport::default(),
            CheckpointScope::Monitor(m) => vec![m],
        };
        let provider = self.shared.provider.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let (snapshots, gates) = gather_snapshots(provider.as_deref(), &monitors, now);
        let mut snapshots: Vec<_> = snapshots.into_iter().collect();
        snapshots.sort_by_key(|(m, _)| *m);
        let mut gates: Vec<_> = gates.into_iter().collect();
        gates.sort_by_key(|(m, _)| *m);
        self.checkpoint_round_trip(now, monitors, snapshots, gates)
    }

    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        // The explicitly drained window travels as one event frame
        // ahead of the request (same-session FIFO: it arrives first).
        if !events.is_empty() {
            let _ = self.send(&Msg::Record(Record::Events(events.to_vec())), now);
        }
        let mut snaps: Vec<_> = snapshots.clone().into_iter().collect();
        snaps.sort_by_key(|(m, _)| *m);
        self.checkpoint_round_trip(now, self.local_monitors(), snaps, Vec::new())
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: vec![*self.shared.counters.lock().unwrap_or_else(|e| e.into_inner())],
        }
    }

    fn drain_violations(&self) -> Vec<Violation> {
        std::mem::take(&mut self.shared.violations.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn shutdown(&self) {
        if self.open.swap(false, Ordering::AcqRel) {
            let now = self.clock.last().physical;
            let _ = self.send(&Msg::Shutdown, now);
        }
        self.shared.fail_all_pending();
        if let Some(reader) = self.reader.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = reader.join();
        }
    }

    fn label(&self) -> &'static str {
        "remote"
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The remote backend's buffered handle: ships one `Record::Events`
/// frame per flush, exactly the bytes a single-process runtime would
/// journal for the same batch.
#[derive(Debug)]
struct RemoteProducer {
    tx: Arc<Mutex<SessionTx>>,
    shared: Arc<RemoteShared>,
    open: Arc<AtomicBool>,
    buf: Vec<Event>,
    batch: usize,
}

impl ProducerHandle for RemoteProducer {
    fn observe(&mut self, event: Event) {
        if !self.open.load(Ordering::Acquire) {
            return;
        }
        self.buf.push(event);
        if self.buf.len() >= self.batch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() || !self.open.load(Ordering::Acquire) {
            return;
        }
        let now = self.buf.last().map(|e| e.time).unwrap_or(Nanos::ZERO);
        let events = std::mem::take(&mut self.buf);
        let count = events.len() as u64;
        let sent = {
            let mut tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
            tx.send(&Msg::Record(Record::Events(events)), now)
        };
        match sent {
            Ok(_) => {
                let mut counters = self.shared.counters.lock().unwrap_or_else(|e| e.into_inner());
                counters.batches += 1;
                counters.events_observed += count;
            }
            Err(_) => self.open.store(false, Ordering::Release),
        }
    }

    fn pending(&self) -> usize {
        self.buf.len()
    }

    fn is_closed(&self) -> bool {
        !self.open.load(Ordering::Acquire)
    }
}

impl Drop for RemoteProducer {
    fn drop(&mut self) {
        if self.open.load(Ordering::Acquire) {
            self.flush();
        }
    }
}
