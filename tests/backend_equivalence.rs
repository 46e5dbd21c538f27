//! Backend equivalence: the acceptance property of the detection-API
//! redesign.
//!
//! [`InlineBackend`], [`ShardedBackend`], [`ScheduledBackend`] and
//! [`AsyncBackend`] (built with every instrumentation mode in its
//! config) must report the **same violation multiset, order-sensitive
//! per monitor**, on the `FleetTrace` workloads at 1 / 2 / 4 shards —
//! through a single producer handle and through concurrent per-thread
//! handles alike. Where the events run (inline on the caller, on
//! worker shards, under a background scheduler) changes nothing about
//! *what* is detected.

use rmon::prelude::*;
use rmon::workloads::sweep::{
    allocator_fleet_trace, drive_fleet_backend, drive_fleet_multi, fleet_trace, FleetTrace,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn cfg() -> DetectorConfig {
    // strict_specs exercises the registration-time lint gate on every
    // backend: equivalence must hold with the gate armed.
    DetectorConfig { strict_specs: true, ..DetectorConfig::without_timeouts() }
}

fn cfg_with(mode: Mode) -> DetectorConfig {
    DetectorConfig { mode, ..cfg() }
}

/// The three instrumentation modes the async backend must be
/// equivalent under.
const MODES: [Mode; 3] = [Mode::Sync, Mode::Async, Mode::Hybrid(Nanos::from_micros(50))];

/// Every backend under test, paired with a diagnostic name. The batch
/// size is deliberately misaligned with the workloads' per-round event
/// counts so handle flush points drift relative to monitor boundaries.
fn backends() -> Vec<(String, Box<dyn DetectionBackend>)> {
    let mut out: Vec<(String, Box<dyn DetectionBackend>)> =
        vec![("inline".into(), Box::new(InlineBackend::new(cfg())))];
    for shards in SHARD_COUNTS {
        out.push((
            format!("sharded-{shards}"),
            Box::new(ShardedBackend::new(cfg(), ServiceConfig::new(shards)).with_batch(7)),
        ));
        out.push((
            format!("scheduled-{shards}"),
            Box::new(
                ScheduledBackend::new(
                    cfg(),
                    ServiceConfig::new(shards),
                    SchedulerConfig::new(Duration::from_millis(1)),
                )
                .with_batch(7),
            ),
        ));
        for mode in MODES {
            out.push((
                format!("async-{mode:?}-{shards}"),
                Box::new(
                    AsyncBackend::new(cfg_with(mode), ServiceConfig::new(shards)).with_batch(7),
                ),
            ));
        }
    }
    out
}

/// The per-monitor, order-sensitive violation signature of a drive:
/// for each monitor, its violations in event order (`event_seq` is the
/// monitor's FIFO position in the global stream). Two drives are
/// equivalent iff their signatures are equal.
type Signature = BTreeMap<MonitorId, Vec<(Option<u64>, RuleId, Option<Pid>)>>;

fn signature(report: &FaultReport) -> Signature {
    let mut sorted = report.violations.clone();
    sorted.sort_by_key(|v| (v.monitor, v.event_seq, v.rule, v.pid));
    let mut sig: Signature = BTreeMap::new();
    for v in &sorted {
        sig.entry(v.monitor).or_default().push((v.event_seq, v.rule, v.pid));
    }
    sig
}

#[test]
fn clean_fleet_is_clean_on_every_backend() {
    let fleet = fleet_trace(8, 3, 7);
    let mut events_checked = None;
    for (name, backend) in backends() {
        let (report, stats, _) = drive_fleet_backend(&fleet, backend.as_ref());
        assert!(report.is_clean(), "{name}: {report}");
        match events_checked {
            None => events_checked = Some(report.events_checked),
            Some(want) => assert_eq!(report.events_checked, want, "{name}"),
        }
        assert_eq!(stats.total_events(), fleet.events.len() as u64, "{name}");
        backend.shutdown();
    }
}

#[test]
fn faulty_fleet_signature_is_identical_across_backends() {
    let fleet = allocator_fleet_trace(12, 6, 5);
    let mut want: Option<Signature> = None;
    for (name, backend) in backends() {
        let (report, _, _) = drive_fleet_backend(&fleet, backend.as_ref());
        assert!(!report.is_clean(), "{name}: the fleet carries injected U1/U3 faults");
        let got = signature(&report);
        match &want {
            None => want = Some(got),
            Some(want) => assert_eq!(&got, want, "{name}"),
        }
        backend.shutdown();
    }
    let want = want.expect("at least one backend ran");
    assert!(want.len() >= 8, "faults must spread across monitors: {} hit", want.len());
}

#[test]
fn concurrent_producers_preserve_the_signature() {
    // The multi-producer front-end: N threads, each with its own
    // handle, monitor-partitioned streams, batches interleaving at the
    // shards. The per-monitor signature must equal the single-handle
    // inline drive.
    let fleet = allocator_fleet_trace(12, 6, 5);
    let inline = InlineBackend::new(cfg());
    let (want_report, _, _) = drive_fleet_backend(&fleet, &inline);
    let want = signature(&want_report);
    for shards in SHARD_COUNTS {
        for producers in [2usize, 4] {
            let backend = ShardedBackend::new(cfg(), ServiceConfig::new(shards)).with_batch(7);
            let (report, stats, _) = drive_fleet_multi(&fleet, &backend, producers);
            assert_eq!(signature(&report), want, "sharded shards={shards} producers={producers}");
            assert_eq!(stats.total_events(), fleet.events.len() as u64);
            backend.shutdown();
        }
        let backend = ScheduledBackend::new(
            cfg(),
            ServiceConfig::new(shards),
            SchedulerConfig::new(Duration::from_millis(1)),
        )
        .with_batch(7);
        let (report, _, _) = drive_fleet_multi(&fleet, &backend, 3);
        assert_eq!(signature(&report), want, "scheduled shards={shards} producers=3");
        backend.shutdown();
        for mode in MODES {
            let backend =
                AsyncBackend::new(cfg_with(mode), ServiceConfig::new(shards)).with_batch(7);
            let (report, stats, _) = drive_fleet_multi(&fleet, &backend, 3);
            assert_eq!(signature(&report), want, "async-{mode:?} shards={shards} producers=3");
            assert_eq!(stats.total_events(), fleet.events.len() as u64, "async-{mode:?}");
            backend.shutdown();
        }
    }
}

#[test]
fn clean_fleet_under_concurrent_producers_stays_clean() {
    let fleet: FleetTrace = fleet_trace(8, 3, 11);
    for shards in SHARD_COUNTS {
        let backend = ShardedBackend::new(cfg(), ServiceConfig::new(shards)).with_batch(32);
        let (report, _, _) = drive_fleet_multi(&fleet, &backend, 4);
        assert!(report.is_clean(), "shards={shards}: {report}");
        backend.shutdown();
    }
}

#[test]
fn trait_objects_share_one_driver_through_arc() {
    // The runtime-facing shape: Arc<dyn DetectionBackend> with handles
    // created from several threads at once.
    let fleet = allocator_fleet_trace(6, 4, 2);
    let inline = InlineBackend::new(cfg());
    let (want_report, _, _) = drive_fleet_backend(&fleet, &inline);
    let want = signature(&want_report);
    let backend: Arc<dyn DetectionBackend> =
        Arc::new(ShardedBackend::new(cfg(), ServiceConfig::new(2)).with_batch(5));
    let (report, _, _) = drive_fleet_multi(&fleet, backend.as_ref(), 3);
    assert_eq!(signature(&report), want);
    backend.shutdown();
}
