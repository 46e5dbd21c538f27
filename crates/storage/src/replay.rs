//! Differential replay: re-running detection over a persisted journal
//! and checking that it reproduces the recorded verdict sequence.
//!
//! The journal stores the complete detection *inputs* — registration
//! order, every drained event window, the observed snapshots each
//! checkpoint compared against, and the checking times — so a fresh
//! [`Detector`] driven over them must reach exactly the verdicts the
//! live run reached (detection is deterministic given its inputs; only
//! the wall-clock `detected_at` stamps differ). [`ReplayOutcome`]
//! carries both verdict sets and compares them on the repo's canonical
//! violation key `(monitor, pid, event_seq, rule)`.
//!
//! ## Commit protocol
//!
//! `Events` and `Realtime` records are *staged* until the following
//! `Checkpoint` record commits them (see `rmon_core::oplog`). Staged
//! records with no committing checkpoint — the tail a crash leaves, or
//! records orphaned by a restart's `Epoch` — are discarded and counted
//! in [`ReplayOutcome::uncommitted_records`]. Each `Epoch` starts a
//! fresh detector: monitor ids and event sequence numbers restart
//! behind it.
//!
//! ## Replaying a committed window
//!
//! At its `Checkpoint` a staged window is pushed through
//! [`Detector::observe_into`] in log order (the live real-time path,
//! Algorithm 3), then checked by the window-less
//! [`Detector::checkpoint_scoped`] against the journaled snapshots at
//! the journaled `now`. Passing the window again, as
//! `Detector::checkpoint(now, window, ..)` would, cannot change a
//! verdict. The watermark argument: `observe_into` raises each pid's
//! mark to the `seq` of every fresh event and queues it in its
//! monitor's pending window, and skips only events already at or below
//! the mark. After the loop every staged event is therefore at or below
//! its pid's mark, and the explicit-window pass replays exactly the
//! events above it — none. (Events of unregistered monitors are
//! ignored by both paths.) Both forms then replay the same pending
//! windows and compare the same snapshots, so they report the same
//! verdicts. The window-less form skips the explicit pass's cost: a
//! scan of the whole window once per registered monitor, quadratic in
//! a fleet's size. Replay costs O(events) per checkpoint.
//!
//! ## What replay needs from the caller
//!
//! Monitor *declarations* are code, not data: the journal records only
//! each monitor's name, and the caller resolves names back to
//! [`MonitorSpec`]s. Names that do not resolve are collected in
//! [`ReplayOutcome::unresolved`] (and fail [`ReplayOutcome::matches`]).
//! The [`DetectorConfig`] must be the live run's — timer verdicts
//! depend on it.
//!
//! Exact reproduction additionally requires the log to be complete from
//! its first epoch: a retention policy that deleted old segments has
//! discarded inputs (see [`crate::oplog::ReadReport::first_lsn`]).

use crate::oplog::{walk_dir, ReadReport};
use rmon_core::detect::Detector;
use rmon_core::oplog::{decode_record, Record};
use rmon_core::{DetectorConfig, Event, MonitorId, MonitorSpec, Pid, RuleId, Violation};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Resolves a journaled monitor registration back to its declaration.
/// Invoked once per `Register` record with the id the live runtime
/// assigned and the declared name.
pub type SpecResolver<'a> = dyn Fn(MonitorId, &str) -> Option<Arc<MonitorSpec>> + 'a;

/// The canonical identity of a violation across runs: wall-clock
/// stamps and message text vary, these four fields do not.
pub type VerdictKey = (MonitorId, Option<Pid>, Option<u64>, RuleId);

/// Sorts violations into their canonical key sequence.
pub fn verdict_keys(violations: &[Violation]) -> Vec<VerdictKey> {
    let mut keys: Vec<VerdictKey> =
        violations.iter().map(|v| (v.monitor, v.pid, v.event_seq, v.rule)).collect();
    keys.sort_unstable();
    keys
}

/// What a differential replay produced. Built by [`replay_records`] /
/// [`replay_dir`]; [`ReplayOutcome::matches`] is the acceptance check.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Every committed verdict the journal recorded: realtime records
    /// plus checkpoint-report violations, in log order.
    pub recorded: Vec<Violation>,
    /// Every verdict the fresh detector produced over the same inputs.
    pub recomputed: Vec<Violation>,
    /// Events replayed through the detector (committed windows only).
    pub events_replayed: u64,
    /// Committed checkpoints replayed.
    pub checkpoints: u64,
    /// Epoch (runtime attach) records seen.
    pub epochs: u64,
    /// Staged `Events`/`Realtime` records discarded for lack of a
    /// committing checkpoint (crash tails, restart orphans).
    pub uncommitted_records: u64,
    /// Records appearing before the first `Epoch` — a log whose head
    /// was retired by retention; replay of the remainder is best-effort.
    pub pre_epoch_records: u64,
    /// Monitor names the resolver could not map to a spec.
    pub unresolved: Vec<String>,
}

impl ReplayOutcome {
    /// Whether replay reproduced the recorded verdict sequence exactly:
    /// every spec resolved and the canonical key sets are equal.
    pub fn matches(&self) -> bool {
        self.unresolved.is_empty() && verdict_keys(&self.recorded) == verdict_keys(&self.recomputed)
    }

    /// A diagnostic for the first divergence, if any.
    pub fn mismatch(&self) -> Option<String> {
        if let Some(name) = self.unresolved.first() {
            return Some(format!("unresolved monitor spec {name:?}"));
        }
        let recorded = verdict_keys(&self.recorded);
        let recomputed = verdict_keys(&self.recomputed);
        if recorded == recomputed {
            return None;
        }
        let i = recorded.iter().zip(&recomputed).take_while(|(a, b)| a == b).count();
        Some(format!(
            "verdicts diverge at index {i}: recorded {:?} vs recomputed {:?} \
             ({} recorded, {} recomputed)",
            recorded.get(i),
            recomputed.get(i),
            recorded.len(),
            recomputed.len(),
        ))
    }
}

/// Replays a decoded record stream through a fresh detector per epoch.
/// See the module docs for the protocol.
pub fn replay_records(
    records: &[Record],
    cfg: DetectorConfig,
    resolve: &SpecResolver<'_>,
) -> ReplayOutcome {
    let mut replay = Replay::new(cfg, resolve);
    for record in records {
        replay.feed(record);
    }
    replay.finish()
}

/// Replays a journal directory record by record: the frames of one
/// segment at a time (the walk behind
/// [`crate::Oplog::read_dir_records`]), each decoded from the borrowed
/// segment bytes and fed straight to the state machine
/// [`replay_records`] runs. Memory is one segment plus the staged
/// window, not the log. Undecodable payloads end the stream
/// (a CRC-valid frame that does not parse is a format mismatch) —
/// everything up to that point replays, and the [`ReadReport`] still
/// covers the whole directory.
pub fn replay_dir(
    dir: &Path,
    max_record_bytes: u32,
    cfg: DetectorConfig,
    resolve: &SpecResolver<'_>,
) -> io::Result<(ReplayOutcome, ReadReport)> {
    let mut replay = Replay::new(cfg, resolve);
    let mut decoding = true;
    let report = walk_dir(dir, max_record_bytes, |payload| {
        if !decoding {
            return;
        }
        match decode_record(payload) {
            Ok(record) => replay.feed(&record),
            Err(_) => decoding = false,
        }
    })?;
    Ok((replay.finish(), report))
}

/// The replay state machine: one detector per epoch, the current
/// window staged until its `Checkpoint` commits it.
struct Replay<'r> {
    cfg: DetectorConfig,
    resolve: &'r SpecResolver<'r>,
    out: ReplayOutcome,
    det: Option<Detector>,
    staged_events: Vec<Event>,
    staged_realtime: Vec<Violation>,
    /// Staged records, counted as uncommitted if no checkpoint comes.
    staged: u64,
}

impl<'r> Replay<'r> {
    fn new(cfg: DetectorConfig, resolve: &'r SpecResolver<'r>) -> Self {
        Replay {
            cfg,
            resolve,
            out: ReplayOutcome::default(),
            det: None,
            staged_events: Vec::new(),
            staged_realtime: Vec::new(),
            staged: 0,
        }
    }

    fn feed(&mut self, record: &Record) {
        let out = &mut self.out;
        if !matches!(record, Record::Epoch { .. }) && self.det.is_none() {
            out.pre_epoch_records += 1;
            return;
        }
        match record {
            Record::Epoch { .. } => {
                out.uncommitted_records += self.staged;
                self.staged = 0;
                self.staged_events.clear();
                self.staged_realtime.clear();
                self.det = Some(Detector::new(self.cfg));
                out.epochs += 1;
            }
            Record::Register { monitor, name, time } => {
                let det = self.det.as_mut().expect("checked above");
                match (self.resolve)(*monitor, name) {
                    Some(spec) => det.register_empty(*monitor, spec, *time),
                    None => out.unresolved.push(name.clone()),
                }
            }
            Record::Events(events) => {
                self.staged_events.extend_from_slice(events);
                self.staged += 1;
            }
            Record::Realtime(violations) => {
                self.staged_realtime.extend_from_slice(violations);
                self.staged += 1;
            }
            Record::Checkpoint { now, snapshots, report } => {
                let det = self.det.as_mut().expect("checked above");
                // Mirror the live ingestion order: events stream through
                // the real-time path first (Algorithm 3), then the
                // barrier replays each monitor's pending window and
                // compares against the journaled snapshots.
                for event in &self.staged_events {
                    det.observe_into(event, &mut out.recomputed);
                }
                out.events_replayed += self.staged_events.len() as u64;
                let snaps: HashMap<_, _> = snapshots.iter().cloned().collect();
                // Window-less: every staged event is now at or below its
                // pid's watermark (see the module docs).
                let recomputed = det.checkpoint_scoped(*now, &snaps, &HashMap::new(), None);
                out.recomputed.extend(recomputed.violations);
                out.recorded.append(&mut self.staged_realtime);
                out.recorded.extend(report.violations.iter().cloned());
                self.staged_events.clear();
                self.staged = 0;
                out.checkpoints += 1;
            }
        }
    }

    fn finish(mut self) -> ReplayOutcome {
        self.out.uncommitted_records += self.staged;
        self.out
    }
}
