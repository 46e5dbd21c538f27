//! Verdict batches past the journal's record cap are split, not
//! refused: a `Realtime` batch becomes consecutive `Realtime` records,
//! and a checkpoint whose report is too big journals the report's
//! violations as `Realtime` records ahead of a `Checkpoint` marker that
//! fits. Both through a runtime's journal and through a detection
//! service's tee, under a 1 KiB cap: no append fails
//! (`journal_errors() == 0`) and the log replays to the live verdicts.

use rmon::core::oplog::{decode_record, encode_record, Record};
use rmon::net::{duplex, ServiceConfig as NetServiceConfig};
use rmon::prelude::*;
use rmon::storage::{Oplog, ReplayOutcome};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAP: u32 = 1 << 10;
const UNITS: u64 = 3;
const ALLOCATORS: usize = 16;

/// Structural rules plus a 1 ns hold limit: every unit still held at a
/// checkpoint is an ST-8c verdict in that checkpoint's report.
fn cfg() -> DetectorConfig {
    DetectorConfig { t_limit: Nanos::new(1), ..DetectorConfig::without_timeouts() }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rmon-record-cap-{tag}-{}", std::process::id()))
        .join(format!("{:?}", std::thread::current().id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_sink(dir: &Path) -> Arc<DurableSink> {
    let cfg = OplogConfig { max_record_bytes: CAP, ..OplogConfig::default() };
    Arc::new(DurableSink::open(dir, cfg).expect("open oplog"))
}

/// Replays `dir` and returns the outcome with the decoded records,
/// after checking every record is whole and committed.
fn replay(dir: &Path) -> (ReplayOutcome, Vec<Record>) {
    let resolve = |_id, name: &str| Some(Arc::new(MonitorSpec::allocator(name, UNITS).spec));
    let (outcome, read) = replay_dir(dir, CAP, cfg(), &resolve).expect("replay_dir");
    assert!(!read.stopped_mid_log && read.torn_bytes == 0, "{read:?}");
    assert_eq!(outcome.uncommitted_records, 0, "{outcome:?}");
    assert!(outcome.matches(), "diverged: {:?}", outcome.mismatch());
    let (payloads, _) = Oplog::read_dir_records(dir, CAP).expect("read the journal");
    let records = payloads.iter().map(|p| decode_record(p).expect("decodes")).collect();
    (outcome, records)
}

/// Bytes of `violations` as one `Realtime` record.
fn encoded(violations: &[Violation]) -> usize {
    encode_record(&Record::Realtime(violations.to_vec())).len()
}

fn realtime_records(records: &[Record]) -> usize {
    records.iter().filter(|r| matches!(r, Record::Realtime(_))).count()
}

#[test]
fn a_runtime_journals_over_cap_verdict_batches_whole() {
    let dir = tmp_dir("runtime");
    let sink = open_sink(&dir);
    let rt = Runtime::builder(cfg())
        .journal(Arc::clone(&sink))
        .order_policy(OrderPolicy::Report)
        .build();
    let fleet: Vec<ResourceAllocator> =
        (0..ALLOCATORS).map(|i| ResourceAllocator::new(&rt, &format!("res-{i}"), UNITS)).collect();

    // One window of real-time verdicts many times the cap: a duplicate
    // request (U3) and a release without request (U1) per allocator.
    for al in &fleet {
        let _ = al.request();
        let _ = al.request();
        let _ = al.release();
        let _ = al.release();
    }
    let _ = rt.checkpoint_now();
    let realtime = rt.realtime_violations();
    assert!(encoded(&realtime) > CAP as usize, "{} verdicts", realtime.len());

    // Then one unit held in every allocator: the next report is a
    // hold-limit verdict per allocator, past the cap on its own.
    for al in &fleet {
        al.request().expect("request");
    }
    std::thread::sleep(Duration::from_millis(1));
    let report = rt.checkpoint_now();
    assert!(report.violations.len() >= ALLOCATORS, "{report}");
    assert!(encoded(&report.violations) > CAP as usize);

    assert_eq!(rt.journal_errors(), 0, "an over-cap verdict batch must not be refused");
    drop(rt);
    let (outcome, records) = replay(&dir);
    assert!(realtime_records(&records) > 2, "the batches were split");
    assert!(outcome.recorded.len() >= realtime.len() + report.violations.len(), "{outcome:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_detection_service_tees_over_cap_verdict_batches_whole() {
    let dir = tmp_dir("service");
    let sink = open_sink(&dir);
    let service = DetectionService::new(
        Arc::new(InlineBackend::new(cfg())),
        Arc::new(|name: &str| Some(Arc::new(MonitorSpec::allocator(name, UNITS).spec))),
        NetServiceConfig { checkpoint_timeout: Duration::from_secs(5) },
    );
    service.journal(Arc::clone(&sink));
    let (worker_end, service_end) = duplex(1 << 16);
    service.attach(service_end);
    let worker =
        RemoteBackend::connect(worker_end, RemoteConfig::named("w0"), Nanos::ZERO).unwrap();
    let al = MonitorSpec::allocator("res", UNITS);
    for i in 0..ALLOCATORS {
        let spec = Arc::new(MonitorSpec::allocator(format!("res-{i}"), UNITS).spec);
        worker.register(MonitorId::new(i as u32), spec, &al.spec.empty_state(), Nanos::ZERO);
    }

    // Per allocator, P1 releases without a request (real-time U1
    // verdicts, staged until the fleet checkpoint) and P2 requests and
    // holds (a hold-limit verdict in the fleet checkpoint's report).
    let mut producer = worker.producer();
    let mut seq = 0;
    for i in 0..ALLOCATORS {
        let m = MonitorId::new(i as u32);
        for (pid, proc_name) in [(1, al.release), (2, al.request)] {
            seq += 1;
            producer.observe(Event::enter(seq, Nanos::new(seq), m, Pid::new(pid), proc_name, true));
        }
    }
    producer.flush();
    drop(producer);
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.sessions().iter().map(|s| s.events).sum::<u64>() < seq {
        assert!(Instant::now() < deadline, "the service never ingested the stream");
        std::thread::sleep(Duration::from_millis(1));
    }
    let sweep = service.checkpoint_fleet(Nanos::from_secs(1));
    assert!(sweep.report.violations.len() >= ALLOCATORS, "{}", sweep.report);
    assert!(encoded(&sweep.report.violations) > CAP as usize);
    let live = service.verdict_log();
    assert!(encoded(&live) > 2 * CAP as usize, "{} verdicts", live.len());

    assert_eq!(service.journal_errors(), 0, "an over-cap verdict batch must not be refused");
    worker.shutdown();
    service.shutdown();
    drop(sink);
    let (outcome, records) = replay(&dir);
    assert!(realtime_records(&records) > 2, "the batches were split");
    assert_eq!(outcome.recorded.len(), live.len(), "every live verdict is journaled");
    let _ = fs::remove_dir_all(&dir);
}
