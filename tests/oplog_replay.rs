//! End-to-end differential replay: a real [`Runtime`] journals events
//! and verdicts through a [`DurableSink`] into an on-disk oplog; the
//! replayer re-runs detection over the persisted log and must
//! reproduce the live verdict sequence exactly — including after a
//! process "restart" (second epoch) and a crash torn into the journal
//! tail mid-write.

use rmon::core::oplog::{decode_record, Record};
use rmon::prelude::*;
use rmon::storage::{replay_dir, DurableSink, Oplog, OplogConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const UNITS: u64 = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rmon-oplog-replay-{tag}-{}", std::process::id()))
        .join(format!("{:?}", std::thread::current().id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One journaled runtime epoch: allocator clients run the deny-trace
/// fault script (a correct cycle plus a U3 duplicate request and a U1
/// release-without-request), with a checkpoint barrier after each round.
fn run_epoch(dir: &Path, rounds: usize) -> Arc<DurableSink> {
    let sink = Arc::new(
        DurableSink::open(dir, OplogConfig { segment_bytes: 4 << 10, ..OplogConfig::default() })
            .expect("open oplog"),
    );
    let rt = Runtime::builder(DetectorConfig::without_timeouts())
        .journal(Arc::clone(&sink))
        .order_policy(OrderPolicy::Report)
        .build();
    let fleet: Vec<ResourceAllocator> =
        (0..4).map(|i| ResourceAllocator::new(&rt, &format!("res-{i}"), UNITS)).collect();
    for _ in 0..rounds {
        for al in &fleet {
            let _ = al.request();
            let _ = al.request(); // U3: duplicate request
            let _ = al.release();
            let _ = al.release(); // U1: release without request
        }
        let _ = rt.checkpoint_now();
    }
    assert_eq!(rt.journal_errors(), 0, "journal appends must succeed");
    sink
}

/// The same epoch script, but committed through **scoped** barriers:
/// odd rounds checkpoint one monitor at a time
/// ([`CheckpointScope::Monitor`]), even rounds sweep the single inline
/// pseudo-shard ([`CheckpointScope::Shard`]). Scoped checkpoints must
/// journal the same `Events → Realtime → Checkpoint` sequence the
/// global barrier writes, so the replayer needs no changes.
fn run_epoch_scoped(dir: &Path, rounds: usize) -> Arc<DurableSink> {
    let sink = Arc::new(
        DurableSink::open(dir, OplogConfig { segment_bytes: 4 << 10, ..OplogConfig::default() })
            .expect("open oplog"),
    );
    let rt = Runtime::builder(DetectorConfig::without_timeouts())
        .journal(Arc::clone(&sink))
        .order_policy(OrderPolicy::Report)
        .build();
    let fleet: Vec<ResourceAllocator> =
        (0..4).map(|i| ResourceAllocator::new(&rt, &format!("res-{i}"), UNITS)).collect();
    for round in 0..rounds {
        for al in &fleet {
            let _ = al.request();
            let _ = al.request(); // U3: duplicate request
            let _ = al.release();
            let _ = al.release(); // U1: release without request
        }
        if round % 2 == 0 {
            for al in &fleet {
                let _ = rt.checkpoint_scope(CheckpointScope::Monitor(al.id()));
            }
        } else {
            let _ = rt.checkpoint_scope(CheckpointScope::Shard(0));
        }
    }
    assert_eq!(rt.journal_errors(), 0, "scoped journal appends must succeed");
    sink
}

fn replay(dir: &Path) -> rmon::storage::ReplayOutcome {
    let resolve = move |_id, name: &str| Some(Arc::new(MonitorSpec::allocator(name, UNITS).spec));
    let (outcome, read) = replay_dir(
        dir,
        OplogConfig::default().max_record_bytes,
        DetectorConfig::without_timeouts(),
        &resolve,
    )
    .expect("replay_dir");
    assert!(!read.stopped_mid_log, "sealed segments must scan clean: {read:?}");
    outcome
}

#[test]
fn replay_reproduces_live_verdicts() {
    let dir = tmp_dir("clean");
    run_epoch(&dir, 8);
    let outcome = replay(&dir);
    assert_eq!(outcome.epochs, 1);
    assert!(outcome.checkpoints >= 8, "{outcome:?}");
    assert!(outcome.events_replayed > 0);
    assert!(!outcome.recorded.is_empty(), "fault script must produce verdicts");
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

/// ROADMAP item 5's durability gap, closed: scoped checkpoints commit
/// to the journal, and replaying the scoped-barrier log reproduces the
/// live verdicts exactly — including across a crash torn into the
/// journal tail between scoped epochs.
#[test]
fn scoped_checkpoints_commit_and_replay_equivalently() {
    let dir = tmp_dir("scoped");
    run_epoch_scoped(&dir, 6);
    let outcome = replay(&dir);
    assert_eq!(outcome.epochs, 1);
    assert!(outcome.checkpoints >= 6, "scoped barriers must commit: {outcome:?}");
    assert!(outcome.events_replayed > 0);
    assert!(!outcome.recorded.is_empty(), "fault script must produce verdicts");
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scoped_checkpoint_crash_replay_equivalence() {
    let dir = tmp_dir("scoped-torn");
    run_epoch_scoped(&dir, 8);

    // Crash mid-write after the scoped epoch: tear into the newest
    // segment's last frame.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let tail = segments.pop().expect("at least one segment");
    let len = fs::metadata(&tail).unwrap().len();
    fs::OpenOptions::new().write(true).open(&tail).unwrap().set_len(len - 5).unwrap();

    // A recovering reopen runs another scoped epoch on the same log.
    let sink = run_epoch_scoped(&dir, 4);
    assert!(sink.recovery().truncated_bytes > 0, "recovery must truncate the torn frame");

    let outcome = replay(&dir);
    assert_eq!(outcome.epochs, 2, "{outcome:?}");
    assert!(!outcome.recorded.is_empty());
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

/// A drained window larger than one record may be is journaled as
/// several `Events` records, not refused: nothing is missing from the
/// journal and replay sees every event.
#[test]
fn a_window_past_the_record_cap_is_split_and_replays_whole() {
    let dir = tmp_dir("oversized");
    let cap = 1 << 10;
    let cfg = OplogConfig { max_record_bytes: cap, ..OplogConfig::default() };
    let sink = Arc::new(DurableSink::open(&dir, cfg).expect("open oplog"));
    let rt = Runtime::builder(DetectorConfig::without_timeouts())
        .journal(Arc::clone(&sink))
        .order_policy(OrderPolicy::Report)
        .build();
    let fleet: Vec<ResourceAllocator> =
        (0..4).map(|i| ResourceAllocator::new(&rt, &format!("res-{i}"), UNITS)).collect();
    // Clean cycles only, so that the checkpoint record itself stays
    // small; one window of several hundred events, many times the cap.
    for _ in 0..40 {
        for al in &fleet {
            al.request().expect("request");
            al.release().expect("release");
        }
    }
    let report = rt.checkpoint_now();
    assert!(report.is_clean(), "{report}");
    assert_eq!(rt.journal_errors(), 0, "an oversized window must not be refused");
    drop(rt);
    let (payloads, _) = Oplog::read_dir_records(&dir, cap).expect("read the journal");
    let pieces = payloads
        .iter()
        .filter(|payload| matches!(decode_record(payload), Ok(Record::Events(_))))
        .count();
    assert!(pieces > 1, "one window of {} events fits no 1 KiB record", report.events_checked);

    let resolve = move |_id, name: &str| Some(Arc::new(MonitorSpec::allocator(name, UNITS).spec));
    let (outcome, read) =
        replay_dir(&dir, cap, DetectorConfig::without_timeouts(), &resolve).expect("replay_dir");
    assert!(!read.stopped_mid_log, "every record must be under the cap: {read:?}");
    assert_eq!(outcome.events_replayed, report.events_checked, "{outcome:?}");
    assert_eq!(outcome.uncommitted_records, 0, "{outcome:?}");
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_spans_process_restarts() {
    let dir = tmp_dir("epochs");
    run_epoch(&dir, 4);
    run_epoch(&dir, 4); // second epoch appends to the same journal
    let outcome = replay(&dir);
    assert_eq!(outcome.epochs, 2, "{outcome:?}");
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_survives_crash_torn_tail() {
    let dir = tmp_dir("torn");
    run_epoch(&dir, 8);

    // Crash mid-write: tear into the newest segment's last frame. Frames
    // carry an 8-byte header, so a 5-byte cut always leaves a torn frame
    // for recovery to truncate.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let tail = segments.pop().expect("at least one segment");
    let len = fs::metadata(&tail).unwrap().len();
    fs::OpenOptions::new().write(true).open(&tail).unwrap().set_len(len - 5).unwrap();

    // The next epoch's open must recover (truncate the torn frame) and
    // keep appending; the torn barrier disappears from both sides of
    // the differential comparison.
    let sink = run_epoch(&dir, 4);
    assert!(sink.recovery().truncated_bytes > 0, "recovery must truncate the torn frame");

    let outcome = replay(&dir);
    assert_eq!(outcome.epochs, 2, "{outcome:?}");
    assert!(!outcome.recorded.is_empty());
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_drops_only_uncommitted_suffix() {
    let dir = tmp_dir("suffix");
    run_epoch(&dir, 8);
    let full = replay(&dir);
    assert!(full.matches(), "baseline diverged: {:?}", full.mismatch());

    // Tear the tail *without* a recovering reopen: the replayer itself
    // must discard the trailing records not sealed by a Checkpoint and
    // still reproduce the committed prefix.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let tail = segments.pop().expect("at least one segment");
    let len = fs::metadata(&tail).unwrap().len();
    fs::OpenOptions::new().write(true).open(&tail).unwrap().set_len(len - 5).unwrap();

    let torn = replay(&dir);
    assert!(torn.matches(), "diverged: {:?}", torn.mismatch());
    assert!(torn.recorded.len() <= full.recorded.len());
    assert!(torn.checkpoints <= full.checkpoints);
    let _ = fs::remove_dir_all(&dir);
}
