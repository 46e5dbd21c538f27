//! Soak/chaos smoke driver: runs the durable-oplog soak
//! ([`rmon_workloads::soak`]) — monitor churn, backpressure storms,
//! crash injection between runtime epochs — and closes with the
//! differential replay. Exits nonzero when the replay does not
//! reproduce the recorded verdicts or the journal reported errors.
//!
//! Run with: `cargo run --release -p rmon-bench --bin soak`
//!
//! Usage: `soak [DIR]` (default: a fresh directory under the system
//! temp dir, removed on success). `RMON_SOAK_SECS` sets the wall-clock
//! budget (default 10); CI's `soak-smoke` step runs it at 10 s on every
//! push.

use rmon_workloads::soak::{run_soak, SoakConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = SoakConfig::from_env();
    let (dir, ephemeral) = match std::env::args().nth(1) {
        Some(dir) => (PathBuf::from(dir), false),
        None => (std::env::temp_dir().join(format!("rmon-soak-{}", std::process::id())), true),
    };
    println!(
        "soak: {:?} over {} phases into {} (threads={}, allocators={}, segment={} KiB)",
        cfg.duration,
        cfg.phases,
        dir.display(),
        cfg.threads,
        cfg.allocators,
        cfg.segment_bytes >> 10,
    );
    let report = match run_soak(&dir, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("soak: driver error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "soak: {} checkpoints, {} events, {} crash injections, {} B recovered, \
         {} rotations, {} segments, rss {} KiB -> {} KiB",
        report.checkpoints,
        report.events_recorded,
        report.crash_injections,
        report.recovered_truncated_bytes,
        report.rotated,
        report.segments,
        report.first_rss_kb,
        report.max_rss_kb,
    );
    println!(
        "replay: {} epochs, {} checkpoints, {} events, {} recorded vs {} recomputed verdicts, \
         {} uncommitted records",
        report.replay.epochs,
        report.replay.checkpoints,
        report.replay.events_replayed,
        report.replay.recorded.len(),
        report.replay.recomputed.len(),
        report.replay.uncommitted_records,
    );
    if report.journal_errors > 0 {
        eprintln!(
            "soak: FAIL — {} journal errors, the first: {:?}",
            report.journal_errors, report.first_journal_error
        );
        return ExitCode::FAILURE;
    }
    if report.rotated == 0 {
        eprintln!("soak: FAIL — no segment rotation (segment_bytes too large for the run?)");
        return ExitCode::FAILURE;
    }
    // RSS bound: a leaky pipeline shows up as runaway growth across
    // phases. Allow generous slack over the first sample for arena and
    // backend warm-up; skip where /proc is unavailable.
    if report.first_rss_kb > 0 && report.max_rss_kb > report.first_rss_kb * 4 + 262_144 {
        eprintln!("soak: FAIL — RSS grew {} KiB -> {} KiB", report.first_rss_kb, report.max_rss_kb);
        return ExitCode::FAILURE;
    }
    if let Some(why) = report.replay.mismatch() {
        eprintln!("soak: FAIL — differential replay diverged: {why}");
        return ExitCode::FAILURE;
    }
    println!("soak: PASS — replay reproduced the recorded verdict sequence exactly");
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    ExitCode::SUCCESS
}
