//! `remote_durable`: `fleet_clean`'s trace through one `rmon-net`
//! worker session into a detection service over the inline backend,
//! teed into a durable journal in a fresh directory, then replayed
//! from that journal. Storage is exercised as writes beside reads:
//! the append side shows in `events_per_s`, the read side in
//! `replay_events_per_s`, and both in `overhead_ratio`.
//!
//! `rmon-net` is reached through
//! [`drive_fleet_distributed`], the repo's own distributed driver.

use crate::check::Checks;
use crate::fleet::{reference_verdicts, Kind};
use crate::span::{SpanId, Tracer};
use crate::workload::{Repetition, Scale, Workload};
use rmon_core::detect::InlineBackend;
use rmon_core::{DetectorConfig, MonitorSpec};
use rmon_storage::replay::VerdictKey;
use rmon_storage::{replay_dir, DurableSink, FsyncPolicy, OplogConfig};
use rmon_workloads::distributed::{drive_fleet_distributed, DistributedConfig, DistributedOutcome};
use rmon_workloads::sweep::{drive_fleet_backend, FleetTrace};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Worker sessions. One: two workers plus their session threads on two
/// hardware threads make the rate wander run to run.
pub const WORKERS: usize = 1;
/// Events per wire frame and per journaled `Events` record.
pub const BATCH: usize = 64;
/// Record size cap. `rmon-rt` journals a drained window as one record,
/// and one 25 ms window of a single fast thread (some 550 k events)
/// already exceeds the 16 MiB default — the append is then refused and
/// counted in `journal_errors` (see the README's cliff register).
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// The journal configuration: enough segments to retain the whole log
/// (retention would discard replay inputs) and room for a window-sized
/// record.
pub fn journal_config(fsync: FsyncPolicy) -> OplogConfig {
    OplogConfig {
        max_segments: 1024,
        max_record_bytes: MAX_RECORD_BYTES,
        fsync,
        ..OplogConfig::default()
    }
}

/// What the journal of one run looks like on disk and replayed.
#[derive(Debug)]
pub struct Journal {
    /// Bytes in the journal directory after the run.
    pub bytes: u64,
    /// Segment files on disk.
    pub segments: usize,
    /// Rotations performed.
    pub rotations: u64,
    /// Wall of `replay_dir` over it.
    pub replay: Duration,
    /// Events the replay pushed through a fresh detector.
    pub events_replayed: u64,
    /// `replay.matches()`, no unresolved spec, no mid-log stop, and no
    /// record left uncommitted.
    pub sound: bool,
}

/// One distributed run and, when journaled, its replay.
#[derive(Debug)]
pub struct Run {
    /// What the distributed driver reports.
    pub outcome: DistributedOutcome,
    /// Present when the run was journaled.
    pub journal: Option<Journal>,
}

/// Drives `fleet` through `workers` sessions, journaling into `dir`
/// when given one (created here, removed again once replayed).
pub fn run(
    fleet: &FleetTrace,
    workers: usize,
    dir: Option<&Path>,
    tracer: &Tracer,
    parent: SpanId,
    n: u32,
) -> std::io::Result<Run> {
    let sink = match dir {
        Some(dir) => Some(Arc::new(
            tracer
                .time("storage.open", parent, n, |_| {
                    DurableSink::open(dir, journal_config(FsyncPolicy::OnRotate))
                })
                .0?,
        )),
        None => None,
    };
    let cfg =
        DistributedConfig { workers, batch: BATCH, journal: sink.clone(), ..Default::default() };
    let (outcome, _) = tracer.time("net.drive_fleet_distributed", parent, n, |_| {
        let backend = Arc::new(InlineBackend::new(DetectorConfig::without_timeouts()));
        drive_fleet_distributed(fleet, backend, &cfg)
    });
    // `cfg` holds the other handle on the sink; the journal's files
    // are final once both are gone.
    drop(cfg);
    let journal = match (dir, sink) {
        (Some(dir), Some(sink)) => {
            let (segments, rotations) = (sink.segment_count(), sink.rotated());
            drop(sink);
            let mut bytes = 0;
            for entry in std::fs::read_dir(dir)? {
                bytes += entry?.metadata()?.len();
            }
            let by_name: HashMap<&str, &Arc<MonitorSpec>> =
                fleet.specs.values().map(|s| (s.name.as_str(), s)).collect();
            let (replayed, replay) = tracer.time("storage.replay_dir", parent, n, |_| {
                replay_dir(dir, MAX_RECORD_BYTES, DetectorConfig::without_timeouts(), &|_, name| {
                    by_name.get(name).map(|s| Arc::clone(s))
                })
            });
            let (outcome, read) = replayed?;
            std::fs::remove_dir_all(dir)?;
            Some(Journal {
                bytes,
                segments,
                rotations,
                replay,
                events_replayed: outcome.events_replayed,
                sound: outcome.matches()
                    && !read.stopped_mid_log
                    && read.torn_bytes == 0
                    && outcome.uncommitted_records == 0,
            })
        }
        _ => None,
    };
    Ok(Run { outcome, journal })
}

/// Checks one journaled run of `fleet` against `reference`.
pub fn check(fleet: &FleetTrace, reference: &[VerdictKey], run: &Run) -> Checks {
    let events = fleet.events.len() as u64;
    let mut checks = Checks::default();
    let ingested = run.outcome.sessions.iter().map(|s| s.events).sum();
    checks.lossless("events offered and ingested by the service", events, ingested);
    checks.verdicts("service verdicts", reference, &run.outcome.verdicts);
    let quarantined = run.outcome.quarantined.len() as u64;
    checks.operations("monitors not quarantined", fleet.monitors() as u64, quarantined);
    if let Some(journal) = &run.journal {
        checks.lossless("events offered and replayed", events, journal.events_replayed);
        checks.require("journal whole and replay matching", journal.sound);
    }
    checks
}

/// The `remote_durable` workload.
#[derive(Debug)]
pub struct Remote {
    fleet: FleetTrace,
    reference: Vec<VerdictKey>,
    dir: PathBuf,
    /// Checks of the untimed faulty-trace repetition made in set-up.
    faulty: Checks,
}

impl Workload for Remote {
    type Input = ();

    fn prepare((): (), seed: u64, scale: Scale) -> Self {
        let dir = crate::scratch_dir("journal");
        // Verdict equality through wire + journal + replay needs
        // verdicts: one untimed repetition over the faulty fleet.
        let faulty_fleet = Kind::Faulty.trace(seed, scale);
        let expected = reference_verdicts(&faulty_fleet, faulty_fleet.events.len());
        let quiet = Tracer::new(false);
        let faulty_run = run(&faulty_fleet, WORKERS, Some(&dir), &quiet, None, 0)
            .expect("journal in the benchmark's scratch directory");
        let faulty = check(&faulty_fleet, &expected, &faulty_run);

        let fleet = Kind::Clean.trace(seed, scale);
        let reference = reference_verdicts(&fleet, fleet.events.len());
        Remote { fleet, reference, dir, faulty }
    }

    /// `wall` and `producer` are the driver's `total` and `ingest`;
    /// the one checkpoint is `total − ingest`; `whole` adds the replay;
    /// the reference is the same trace through the inline backend in
    /// this process, closed by the same single checkpoint.
    fn repetition(&mut self, tracer: &Tracer, root: SpanId, n: u32) -> Repetition {
        let ((_, _, reference), _) = tracer.time("engine.reference.drive", root, n, |_| {
            drive_fleet_backend(
                &self.fleet,
                &InlineBackend::new(DetectorConfig::without_timeouts()),
            )
        });
        let run = run(&self.fleet, WORKERS, Some(&self.dir), tracer, root, n)
            .expect("journal in the benchmark's scratch directory");
        let mut checks = check(&self.fleet, &self.reference, &run);
        checks.absorb(std::mem::take(&mut self.faulty));
        let journal = run.journal.as_ref().expect("the repetition journals");
        let events = self.fleet.events.len() as u64;
        Repetition {
            events,
            wall: run.outcome.total,
            producer: run.outcome.ingest,
            checkpoints_us: vec![(run.outcome.total - run.outcome.ingest).as_secs_f64() * 1e6],
            checkpointing: run.outcome.total - run.outcome.ingest,
            whole: run.outcome.total + journal.replay,
            reference: reference.total,
            own: vec![
                ("replay_events_per_s", "1/s", events as f64 / journal.replay.as_secs_f64()),
                ("journal_bytes_per_event", "B", journal.bytes as f64 / events as f64),
            ],
            checks,
        }
    }
}
