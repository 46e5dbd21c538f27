//! Soak/chaos driver: a long-running multi-phase workload over the
//! durable oplog, with monitor churn, backpressure storms, injected
//! user-process faults and crash injection between phases — closed by
//! a differential replay of the persisted journal.
//!
//! Each **phase** is one runtime epoch journaling into the same oplog
//! directory: a fresh [`Runtime`] attaches (its `Epoch` record models a
//! process restart), worker threads hammer a shared allocator fleet
//! with the deny-trace fault script (correct cycles interleaved with U1
//! release-without-request and U3 duplicate-request), a churner thread
//! registers and drops short-lived monitors, and the main thread runs
//! [`Runtime::checkpoint_now`] barriers on a fixed cadence while
//! sampling RSS. Backpressure comes from a deliberately undersized
//! sharded backend (tiny ingestion batches), so the producer handles'
//! `try_observe` pushback path runs constantly.
//!
//! Between phases the driver optionally **injects a crash**: it tears
//! the active segment's tail (truncating into, or appending garbage
//! after, the last frames), exactly what a power cut mid-write leaves.
//! The next phase's [`DurableSink::open`] must recover to the last
//! whole record, and the final differential replay must still
//! reproduce every *committed* verdict — torn barriers simply
//! disappear from both sides of the comparison.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmon_core::detect::{ServiceConfig, ShardedBackend};
use rmon_core::{DetectorConfig, MonitorSpec};
use rmon_rt::{OrderPolicy, ResourceAllocator, Runtime};
use rmon_storage::replay::{replay_dir, ReplayOutcome};
use rmon_storage::{DurableSink, OplogConfig, ReadReport};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one soak run. Start from [`SoakConfig::from_env`] (the CI
/// smoke entry point) or [`SoakConfig::default`] and override fields.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Total wall-clock budget, split evenly across phases. The
    /// `RMON_SOAK_SECS` environment variable overrides it in
    /// [`SoakConfig::from_env`].
    pub duration: Duration,
    /// Runtime epochs (process lifetimes) journaling into one log.
    pub phases: usize,
    /// Worker threads per phase running the fault script.
    pub threads: usize,
    /// Long-lived allocators in the shared fleet.
    pub allocators: usize,
    /// Units per allocator (shared by the churner's monitors).
    pub units: u64,
    /// Checkpoint-barrier cadence.
    pub checkpoint_every: Duration,
    /// Oplog segment size — small, so rotation happens within the run.
    pub segment_bytes: u64,
    /// Whether to tear the journal tail between phases.
    pub inject_crashes: bool,
    /// Seed for the crash-injection choices.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            duration: Duration::from_secs(10),
            phases: 3,
            threads: 4,
            allocators: 8,
            units: 4,
            checkpoint_every: Duration::from_millis(25),
            segment_bytes: 64 << 10,
            inject_crashes: true,
            seed: 0xC0FFEE,
        }
    }
}

impl SoakConfig {
    /// The CI smoke configuration: defaults with the duration taken
    /// from `RMON_SOAK_SECS` (seconds) when set.
    pub fn from_env() -> Self {
        let mut cfg = SoakConfig::default();
        if let Some(secs) = std::env::var("RMON_SOAK_SECS").ok().and_then(|v| v.parse().ok()) {
            cfg.duration = Duration::from_secs(secs);
        }
        cfg
    }
}

/// What a soak run did and whether the journal survived it.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Phases (runtime epochs) completed.
    pub phases: u64,
    /// Checkpoint barriers run across all phases.
    pub checkpoints: u64,
    /// Events recorded across all phases.
    pub events_recorded: u64,
    /// Crash injections performed between phases.
    pub crash_injections: u64,
    /// Torn bytes the per-phase opens truncated (crash recovery work).
    pub recovered_truncated_bytes: u64,
    /// Segment rotations across all phases.
    pub rotated: u64,
    /// Segment files on disk at the end.
    pub segments: usize,
    /// Journal append failures across all phases (should be zero).
    pub journal_errors: u64,
    /// The kind and message of the first of them.
    pub first_journal_error: Option<(io::ErrorKind, String)>,
    /// RSS at the first sample, in KiB (0 where `/proc` is absent).
    pub first_rss_kb: u64,
    /// Peak sampled RSS, in KiB (0 where `/proc` is absent).
    pub max_rss_kb: u64,
    /// The closing differential replay over the persisted journal.
    pub replay: ReplayOutcome,
    /// What the replay's segment scan saw.
    pub read: ReadReport,
}

impl SoakReport {
    /// Whether the run passed: no journal errors, no mid-log
    /// corruption, and the replay reproduced the recorded verdicts.
    pub fn passed(&self) -> bool {
        self.journal_errors == 0 && !self.read.stopped_mid_log && self.replay.matches()
    }
}

/// Resident-set size in KiB from `/proc/self/status`; `None` where the
/// proc filesystem is unavailable (non-Linux hosts).
pub fn rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Tears the newest segment's tail like a crash mid-write would: either
/// truncates into the last frames or appends a partial garbage frame.
/// Returns the bytes torn (negative growth reported as appended bytes).
fn inject_crash(dir: &Path, rng: &mut StdRng) -> io::Result<u64> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let Some(path) = segments.pop() else { return Ok(0) };
    let len = fs::metadata(&path)?.len();
    if rng.gen_bool(0.5) && len > 16 {
        // Tear into committed frames: the recovery scan must walk back
        // to the last whole record.
        let cut = rng.gen_range(1..=len.min(96) - 8);
        let file = fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len - cut)?;
        Ok(cut)
    } else {
        // A frame that never finished: garbage after the valid prefix.
        let garbage: Vec<u8> =
            (0..rng.gen_range(1u8..48)).map(|_| rng.gen_range(0u8..=255)).collect();
        let mut bytes = fs::read(&path)?;
        bytes.extend_from_slice(&garbage);
        fs::write(&path, &bytes)?;
        Ok(garbage.len() as u64)
    }
}

/// One phase: a fresh runtime epoch over the shared journal directory.
/// Returns (checkpoints run, events recorded, journal errors).
fn run_phase(
    dir: &Path,
    cfg: &SoakConfig,
    phase: usize,
    deadline: Instant,
    report: &mut SoakReport,
) -> io::Result<()> {
    let oplog_cfg = OplogConfig {
        segment_bytes: cfg.segment_bytes,
        // Retention stays out of the way: the closing replay needs the
        // full log (a retired head discards detection inputs).
        max_segments: usize::MAX,
        ..OplogConfig::default()
    };
    let sink = Arc::new(DurableSink::open(dir, oplog_cfg)?);
    report.recovered_truncated_bytes += sink.recovery().truncated_bytes;
    let rt = Runtime::builder(DetectorConfig::without_timeouts())
        .journal(Arc::clone(&sink))
        .order_policy(OrderPolicy::Report)
        .park_timeout(Duration::from_millis(500))
        // Undersized ingestion: 2 shards × 4-event batches keeps the
        // producer handles' try_observe pushback path hot.
        .backend_with(|det_cfg, _clock| {
            Arc::new(ShardedBackend::new(det_cfg, ServiceConfig::new(2)).with_batch(4))
        })
        .build();

    let fleet: Vec<ResourceAllocator> = (0..cfg.allocators)
        .map(|i| ResourceAllocator::new(&rt, &format!("soak-{i}"), cfg.units))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for _ in 0..cfg.threads {
        let fleet = fleet.clone();
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for al in &fleet {
                    // The deny-trace fault script: correct cycle plus a
                    // U3 duplicate request and a U1 double release.
                    // Report policy lets the faulty calls run; timeouts
                    // under contention are the park safety net.
                    let _ = al.request();
                    let _ = al.request();
                    let _ = al.release();
                    let _ = al.release();
                }
            }
        }));
    }
    // Churner: short-lived monitors register (journaled) and drop,
    // exercising registration under concurrent barriers.
    {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        let units = cfg.units;
        joins.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let al = ResourceAllocator::new(&rt, &format!("churn-{phase}-{i}"), units);
                let _ = al.request();
                let _ = al.release();
                drop(al);
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    while Instant::now() < deadline {
        std::thread::sleep(cfg.checkpoint_every);
        let _ = rt.checkpoint_now();
        report.checkpoints += 1;
        if let Some(rss) = rss_kb() {
            if report.first_rss_kb == 0 {
                report.first_rss_kb = rss;
            }
            report.max_rss_kb = report.max_rss_kb.max(rss);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for j in joins {
        let _ = j.join();
    }
    // Closing barrier: commits every event the workers recorded.
    let _ = rt.checkpoint_now();
    report.checkpoints += 1;
    report.events_recorded += rt.events_recorded();
    report.journal_errors += rt.journal_errors();
    if report.first_journal_error.is_none() {
        report.first_journal_error = rt.first_journal_error();
    }
    report.rotated += sink.rotated();
    report.segments = sink.segment_count();
    report.phases += 1;
    Ok(())
}

/// Runs the full soak: `cfg.phases` epochs into `dir`, optional crash
/// injection between them, then the closing differential replay.
pub fn run_soak(dir: &Path, cfg: &SoakConfig) -> io::Result<SoakReport> {
    fs::create_dir_all(dir)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = SoakReport {
        phases: 0,
        checkpoints: 0,
        events_recorded: 0,
        crash_injections: 0,
        recovered_truncated_bytes: 0,
        rotated: 0,
        segments: 0,
        journal_errors: 0,
        first_journal_error: None,
        first_rss_kb: 0,
        max_rss_kb: 0,
        replay: ReplayOutcome::default(),
        read: ReadReport::default(),
    };
    let start = Instant::now();
    let slice = cfg.duration / cfg.phases.max(1) as u32;
    for phase in 0..cfg.phases.max(1) {
        let deadline = start + slice * (phase as u32 + 1);
        run_phase(dir, cfg, phase, deadline, &mut report)?;
        if cfg.inject_crashes {
            // The torn bytes come back through the next open's recovery
            // report (or the closing replay's scan, for the last phase).
            inject_crash(dir, &mut rng)?;
            report.crash_injections += 1;
        }
    }
    // The journal must now reproduce the live verdicts: every monitor
    // in the soak is an allocator with `cfg.units` units, so the spec
    // resolver rebuilds any name from the declaration.
    let units = cfg.units;
    let resolve = move |_id, name: &str| Some(Arc::new(MonitorSpec::allocator(name, units).spec));
    let (replay, read) = replay_dir(
        dir,
        OplogConfig::default().max_record_bytes,
        DetectorConfig::without_timeouts(),
        &resolve,
    )?;
    report.replay = replay;
    report.read = read;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rmon-soak-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn short_soak_survives_crashes_and_replays_exactly() {
        let dir = tmp_dir("short");
        let cfg = SoakConfig {
            duration: Duration::from_millis(900),
            phases: 3,
            threads: 2,
            allocators: 4,
            checkpoint_every: Duration::from_millis(10),
            // Tiny segments force rotation inside a sub-second run.
            segment_bytes: 4 << 10,
            ..SoakConfig::default()
        };
        let report = run_soak(&dir, &cfg).unwrap();
        assert_eq!(report.phases, 3);
        assert_eq!(report.journal_errors, 0, "first error: {:?}", report.first_journal_error);
        assert_eq!(report.crash_injections, 3);
        assert!(report.rotated > 0, "4 KiB segments must rotate: {report:?}");
        assert_eq!(report.replay.epochs, 3, "one epoch per phase: {:?}", report.replay);
        assert!(report.replay.checkpoints > 0);
        assert!(report.replay.events_replayed > 0);
        assert!(
            !report.replay.recorded.is_empty(),
            "the fault script must produce verdicts: {report:?}"
        );
        assert!(report.passed(), "mismatch: {:?}", report.replay.mismatch());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_reads_soak_secs() {
        // Avoid cross-test env races: set, read, restore.
        std::env::set_var("RMON_SOAK_SECS", "3");
        let cfg = SoakConfig::from_env();
        std::env::remove_var("RMON_SOAK_SECS");
        assert_eq!(cfg.duration, Duration::from_secs(3));
    }
}
