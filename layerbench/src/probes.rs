//! Per-layer measurements of a traced run.
//!
//! A span per call would cost as much as most calls here (two
//! `Instant::now` against a 40 ns operation), so a layer is priced
//! from outside in one of two ways: by **differential configuration**
//! (the same driver with and without the layer: recording only vs
//! plain, journal vs none, one wire session vs in-process) or by a
//! **tight loop** over the layer's public function. Every probe draws
//! its inputs from the run's seed at a fixed probe size; values are
//! medians.
//!
//! Each group of probes is **owned** by the workload its layer does
//! the work of (see [`all`]): that workload's traced run repeats the
//! group within the probes' share of the measuring time, and its
//! numbers are the ones to read. The benchmark contract wants every
//! per-layer metric from every traced run, as measured, so the other
//! workloads' runs take one sample of it and no more.
//!
//! The README lists, for every metric here, the end-to-end metric and
//! workload it should move.

use crate::app::{self, Cadence};
use crate::check::Checks;
use crate::fleet::{self, Kind, BACKEND};
use crate::remote;
use crate::run::Metric;
use crate::span::Tracer;
use crate::stats::summarize;
use crate::workload::Scale;
use rmon_core::detect::{
    AsyncBackend, DetectionBackend, Detector, InlineBackend, ScheduledBackend, SchedulerConfig,
    ServiceConfig, ShardedBackend,
};
use rmon_core::oplog::{decode_record, encode_record, Record};
use rmon_core::{
    DetectorConfig, EventKind, FaultReport, Mode, MonitorId, MonitorState, Nanos, Pid, PredictMode,
    ProcName,
};
use rmon_rt::Recorder;
use rmon_storage::{replay_records, DurableSink, FsyncPolicy, Oplog};
use rmon_workloads::sweep::{fleet_trace, seeded_allocator_schedule, window_sweep, FleetTrace};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per `Record::Events` in the codec and storage probes: the
/// wire batch of `remote_durable`.
const RECORD_EVENTS: usize = remote::BATCH;
/// Appends timed under `FsyncPolicy::EveryAppend` (one disk flush
/// each) and syncs timed for `storage.sync_us`.
const SYNCED_APPENDS: usize = 200;
/// Most repetitions of one probe.
const MAX_SAMPLES: usize = 50;

/// Backend configurations priced by `backend.<cfg>.*`.
const BACKENDS: [&str; 8] = [
    "inline",
    "sharded1",
    "sharded2",
    "sharded4",
    "scheduled2",
    "async2_async",
    "async2_sync",
    "async2_hybrid",
];

fn backend(cfg: &str) -> Box<dyn DetectionBackend> {
    crate::affinity::on_workers(|| construct(cfg))
}

fn construct(cfg: &str) -> Box<dyn DetectionBackend> {
    let detector = DetectorConfig::without_timeouts();
    let asynchronous = |mode| {
        let cfg = DetectorConfig { mode, ..detector };
        Box::new(AsyncBackend::new(cfg, ServiceConfig::new(2)).with_batch(fleet::BATCH))
    };
    match cfg {
        "inline" => Box::new(InlineBackend::new(detector)),
        "sharded1" => Box::new(fleet::sharded_backend(1)),
        "sharded2" => Box::new(fleet::sharded_backend(2)),
        "sharded4" => Box::new(fleet::sharded_backend(4)),
        "scheduled2" => Box::new(
            ScheduledBackend::new(
                detector,
                ServiceConfig::new(2),
                SchedulerConfig::new(Duration::from_millis(5)),
            )
            .with_batch(fleet::BATCH),
        ),
        "async2_async" => asynchronous(Mode::Async),
        "async2_sync" => asynchronous(Mode::Sync),
        "async2_hybrid" => asynchronous(Mode::Hybrid(Nanos::from_micros(50))),
        other => unreachable!("no backend configuration {other}"),
    }
}

/// What a probe that is not the running workload's gets in place of a
/// share of the measuring time: one sample if it is dear, a few if it
/// is cheap — the first call of a microsecond probe runs cold and
/// reads several times too high.
const FLOOR: Duration = Duration::from_millis(20);

/// Calls `f` until `slice` (or [`FLOOR`], if longer) is used, at least
/// once and at most [`MAX_SAMPLES`] times.
fn sample<T>(slice: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let slice = slice.max(FLOOR);
    let start = Instant::now();
    let mut out = vec![f()];
    while out.len() < MAX_SAMPLES && start.elapsed() < slice {
        out.push(f());
    }
    out
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    summarize(&values.into_iter().collect::<Vec<_>>()).median
}

fn ns_per(took: Duration, n: usize) -> f64 {
    took.as_nanos() as f64 / n as f64
}

fn per_s(n: usize, took: Duration) -> f64 {
    n as f64 / took.as_secs_f64()
}

/// Collects metrics; `column` reduces one field of a probe's samples.
struct Out(Vec<Metric>);

impl Out {
    fn column<T>(&mut self, name: &str, unit: &'static str, samples: &[T], f: impl Fn(&T) -> f64) {
        self.0.push(Metric::of(name, unit, &samples.iter().map(f).collect::<Vec<_>>()));
    }

    fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric::single(name, unit, value));
    }
}

/// Runs every probe — the groups `workload` owns within about
/// `budget`, the others once — and returns the per-layer metrics in
/// `BENCHMARK.json` order. Output checks of the probes' drives are
/// folded into `checks`.
///
/// Engine and backends both work on both fleets; the clean fleet,
/// where the hand-off dominates, owns the backends, and the faulty
/// fleet, whose verdict path is engine work, the engine.
pub fn all(
    workload: &str,
    seed: u64,
    scale: Scale,
    budget: Duration,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    let owned_by = |owner: &str| if owner == workload { budget } else { Duration::ZERO };
    // An event's way over the wire into the journal and back: codec,
    // storage, net, and the generator that feeds them.
    let wire = owned_by("remote_durable");
    let mut clean = None;
    let generated = sample(wire.mul_f64(0.05), || {
        let start = Instant::now();
        let trace = fleet_trace(64, scale.of(250), seed);
        let rate = per_s(trace.events.len(), start.elapsed());
        clean = Some(trace);
        rate
    });
    let clean = clean.expect("sample calls at least once");
    let faulty = Kind::Faulty.trace(seed, scale);
    // The two blocking async modes pay a cross-thread round trip (or a
    // whole timeout) per event: they get a trace an eighth the size.
    let small = fleet_trace(8, scale.of(250), seed);
    rt(&mut out, scale, owned_by("app_overhead"), checks);
    engine(&mut out, seed, &clean, &faulty, owned_by("fleet_faulty"));
    backends(&mut out, &clean, &small, owned_by("fleet_clean"), checks);
    let payloads = codec(&mut out, &clean, wire.mul_f64(0.1));
    storage(&mut out, &clean, &payloads, wire.mul_f64(0.25));
    net(&mut out, &clean, wire.mul_f64(0.6), checks);
    out.0.push(Metric::of("sim.trace_gen_events_per_s", "1/s", &generated));
    out.0
}

/// `rt.*`: the application thread of `app_overhead` under five
/// configurations, and tight loops over the recorder.
fn rt(out: &mut Out, scale: Scale, budget: Duration, checks: &mut Checks) {
    // Half a repetition of `app_overhead`, seven configurations a
    // round.
    let ops = scale.of(app::OPS) / 2;
    let counted = Cadence::EveryOps(scale.of(app::WINDOW_OPS));
    let quiet = Tracer::new(false);
    // Built on the workers' CPUs: a sharded runtime spawns its shard
    // threads there, the others spawn none.
    let mut run = |builder: rmon_rt::RuntimeBuilder, ops: usize, cadence: Cadence| {
        let rt = crate::affinity::on_workers(|| builder.build());
        let run = app::instrumented(&rt, ops, cadence, &quiet, None, 0);
        checks.operations("rt probe operations", ops as u64, run.failed_ops);
        checks.require("rt probe runtime clean, journal intact", run.clean);
        run
    };
    // Table 1's own axis, wall intervals: 25 ms is its 0.5 paper-second
    // row (and sits on the window-buffer cliff), 150 ms its 3.0 row —
    // run over the whole million operations, so that the interval
    // passes at least once.
    let t25 = Cadence::Every(Duration::from_millis(25));
    let t150 = Cadence::Every(Duration::from_millis(150));
    let journal_dir = crate::scratch_dir("rt-journal");
    struct Round {
        plain: Duration,
        recording: app::Run,
        full: app::Run,
        t25: app::Run,
        t150: app::Run,
        sharded: app::Run,
        journaled: app::Run,
    }
    let rounds = sample(budget.mul_f64(0.85), || {
        let sink = DurableSink::open(&journal_dir, remote::journal_config(FsyncPolicy::OnRotate))
            .expect("journal in the benchmark's scratch directory");
        let round = Round {
            plain: app::plain(ops).0,
            recording: run(app::runtime(), ops, Cadence::Never),
            full: run(app::runtime(), ops, counted),
            t25: run(app::runtime(), ops, t25),
            t150: run(app::runtime(), 2 * ops, t150),
            sharded: run(
                app::runtime().backend_with(|cfg, _clock| {
                    Arc::new(
                        ShardedBackend::new(cfg, ServiceConfig::new(fleet::SHARDS))
                            .with_batch(fleet::BATCH),
                    )
                }),
                ops,
                counted,
            ),
            journaled: run(app::runtime().journal(Arc::new(sink)), ops, counted),
        };
        std::fs::remove_dir_all(&journal_dir).expect("remove the journal directory");
        round
    });
    let op_ns = |r: &app::Run| ns_per(r.ops_wall, r.ops);
    out.column("rt.plain_op_ns", "ns", &rounds, |r| ns_per(r.plain, ops));
    out.column("rt.op_ns", "ns", &rounds, |r| op_ns(&r.full));
    out.column("rt.record_op_ns", "ns", &rounds, |r| op_ns(&r.recording) - ns_per(r.plain, ops));
    out.column("rt.check_op_ns", "ns", &rounds, |r| op_ns(&r.full) - op_ns(&r.recording));
    out.column("rt.op_ns.t25", "ns", &rounds, |r| op_ns(&r.t25));
    out.column("rt.op_ns.t150", "ns", &rounds, |r| op_ns(&r.t150));
    out.column("rt.sharded.op_ns", "ns", &rounds, |r| op_ns(&r.sharded));
    out.column("rt.journal.op_ns", "ns", &rounds, |r| op_ns(&r.journaled));
    out.column("rt.events_per_op", "count", &rounds, |r| r.full.events as f64 / ops as f64);
    out.column("rt.checkpoint.count", "count", &rounds, |r| r.full.pauses_us.len() as f64);
    out.column("rt.checkpoint.busy_share", "share", &rounds, |r| {
        r.full.paused_during_ops.as_secs_f64() / r.full.ops_wall.as_secs_f64()
    });
    let windows: Vec<f64> =
        rounds.iter().flat_map(|r| r.full.window_events.iter().map(|&e| e as f64)).collect();
    out.0.push(Metric::of("rt.checkpoint.events_per_window", "count", &windows));
    let mut pauses: Vec<f64> = rounds.iter().flat_map(|r| r.full.pauses_us.clone()).collect();
    pauses.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    out.single("rt.pause_us_p99", "us", pauses[(pauses.len() * 99).div_ceil(100) - 1]);

    // Tight loops over `Recorder::record` and `drain_window`.
    let n = scale.of(1_000_000);
    let loops = sample(budget.mul_f64(0.15), || {
        let recorder = Recorder::new();
        let (monitor, pid, proc_name) = (MonitorId::new(0), Pid::new(1), ProcName::new(0));
        let start = Instant::now();
        for _ in 0..n {
            black_box(recorder.record(monitor, pid, proc_name, EventKind::Enter { granted: true }));
        }
        let recorded = start.elapsed();
        let start = Instant::now();
        let window = black_box(recorder.drain_window());
        let drained = start.elapsed();
        assert_eq!(window.len(), n, "the recorder lost events");
        (recorded, drained)
    });
    out.column("rt.recorder.record_ns", "ns", &loops, |l| ns_per(l.0, n));
    out.column("rt.recorder.drain_ns_per_event", "ns", &loops, |l| ns_per(l.1, n));
}

/// `engine.*`: the `Detector` alone — Algorithm 3 per event, the
/// checkpoint per window size, the predictive pass off and on.
fn engine(out: &mut Out, seed: u64, clean: &FleetTrace, faulty: &FleetTrace, budget: Duration) {
    let observe = |fleet: &FleetTrace| {
        let mut detector = Detector::new(DetectorConfig::without_timeouts());
        for (&id, spec) in &fleet.specs {
            detector.register_empty(id, Arc::clone(spec), Nanos::ZERO);
        }
        let mut verdicts = Vec::new();
        let start = Instant::now();
        for event in &fleet.events {
            detector.observe_into(event, &mut verdicts);
        }
        let took = start.elapsed();
        black_box(verdicts.len());
        ns_per(took, fleet.events.len())
    };
    let slice = budget.mul_f64(0.2);
    out.column("engine.observe_ns", "ns", &sample(slice, || observe(clean)), |&ns| ns);
    out.column("engine.observe_ns.faulty", "ns", &sample(slice, || observe(faulty)), |&ns| ns);
    let verdicts = fleet::reference_verdicts(faulty, Kind::Faulty.window());
    out.single(
        "engine.verdicts_per_event",
        "count",
        verdicts.len() as f64 / faulty.events.len() as f64,
    );

    let no_snapshots: HashMap<MonitorId, MonitorState> = HashMap::new();
    for (target, trace) in window_sweep(seed) {
        let events = &trace.events[..target];
        let costs = sample(budget.mul_f64(0.1), || {
            let mut detector = Detector::new(DetectorConfig::without_timeouts());
            detector.register_empty(trace.monitor, Arc::clone(&trace.spec), Nanos::ZERO);
            let start = Instant::now();
            let report = detector.checkpoint(trace.end_time, events, &no_snapshots);
            let took = start.elapsed();
            assert_eq!(report.events_checked as usize, target, "the checkpoint skipped events");
            ns_per(took, target)
        });
        out.column(&format!("engine.checkpoint_ns_per_event.w{target}"), "ns", &costs, |&ns| ns);
    }

    let (allocator, events) = seeded_allocator_schedule(4, 3, seed);
    let spec = Arc::new(allocator.spec.clone());
    let initial = MonitorState::with_resources(allocator.spec.cond_count(), 1);
    let end = Nanos::new(10 * (events.len() as u64 + 1));
    for (name, predict) in [
        ("engine.predict.off_us", PredictMode::Off),
        ("engine.predict.on_us", PredictMode::Checkpoint),
    ] {
        let cfg = DetectorConfig::builder()
            .t_max(Nanos::MAX)
            .t_io(Nanos::MAX)
            .t_limit(Nanos::new(150))
            .predict(predict)
            .build();
        let costs = sample(budget.mul_f64(0.1), || {
            let mut detector = Detector::new(cfg);
            detector.register(MonitorId::new(0), Arc::clone(&spec), &initial, Nanos::ZERO);
            let start = Instant::now();
            let report: FaultReport = detector.checkpoint(end, &events, &no_snapshots);
            let took = start.elapsed();
            black_box(report.predicted.len());
            took.as_secs_f64() * 1e6
        });
        out.column(name, "us", &costs, |&us| us);
    }
}

/// `backend.*`: the windowed fleet drive through every backend
/// configuration.
fn backends(
    out: &mut Out,
    clean: &FleetTrace,
    small: &FleetTrace,
    budget: Duration,
    checks: &mut Checks,
) {
    let quiet = Tracer::new(false);
    let window = Kind::Clean.window();
    for cfg in BACKENDS {
        let blocking = matches!(cfg, "async2_sync" | "async2_hybrid");
        let fleet = if blocking { small } else { clean };
        let events = fleet.events.len();
        let drives = sample(budget / BACKENDS.len() as u32, || {
            let backend = backend(cfg);
            let drive = fleet::drive(backend.as_ref(), fleet, window, &BACKEND, &quiet, None, 0);
            backend.shutdown();
            checks.lossless(cfg, events as u64, drive.stats.total_events());
            checks.verdicts(cfg, &[], &drive.verdicts);
            drive
        });
        let name = |metric: &str| format!("backend.{cfg}.{metric}");
        out.column(&name("producer_ns_per_event"), "ns", &drives, |d| ns_per(d.producer, events));
        out.column(&name("events_per_s"), "1/s", &drives, |d| per_s(events, d.wall));
        out.column(&name("checkpoint_us"), "us", &drives, |d| {
            median(d.checkpoints_us.iter().copied())
        });
        if cfg == "sharded2" {
            // The configuration both fleet workloads run.
            out.column("backend.flush_us", "us", &drives, |d| median(d.flushes_us.iter().copied()));
            out.column("backend.batches", "count", &drives, |d| d.stats.total_batches() as f64);
            out.column("backend.shard_skew", "x", &drives, |d| {
                let per_shard = d.stats.shards.iter().map(|s| s.events_observed);
                let max = per_shard.clone().max().unwrap_or(0) as f64;
                max * d.stats.shard_count() as f64 / d.stats.total_events() as f64
            });
            out.column("backend.wait_share", "share", &drives, |d| {
                d.checkpoints_us.iter().sum::<f64>() / 1e6 / d.wall.as_secs_f64()
            });
        }
    }
}

/// `codec.*`: tight loops over `encode_record` / `decode_record`.
/// Returns the encoded payloads for the storage probes.
fn codec(out: &mut Out, clean: &FleetTrace, budget: Duration) -> Vec<Vec<u8>> {
    let events = clean.events.len();
    let records: Vec<Record> =
        clean.events.chunks(RECORD_EVENTS).map(|c| Record::Events(c.to_vec())).collect();
    let encoded = sample(budget / 2, || {
        let start = Instant::now();
        let payloads: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
        (start.elapsed(), payloads)
    });
    out.column("codec.encode_ns_per_event", "ns", &encoded, |e| ns_per(e.0, events));
    let payloads = encoded.into_iter().next().expect("sample returns at least one").1;
    let decoded = sample(budget / 2, || {
        let start = Instant::now();
        for payload in &payloads {
            black_box(decode_record(payload).expect("decode what encode_record wrote"));
        }
        start.elapsed()
    });
    out.column("codec.decode_ns_per_event", "ns", &decoded, |&d| ns_per(d, events));
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    out.single("codec.bytes_per_event", "B", bytes as f64 / events as f64);
    payloads
}

/// `storage.*` below the sink: `Oplog` appends per fsync policy, one
/// sync, a directory read, and the replay check over records in
/// memory. The journal-level storage metrics come from [`net`].
fn storage(out: &mut Out, clean: &FleetTrace, payloads: &[Vec<u8>], budget: Duration) {
    let dir = crate::scratch_dir("oplog");
    let open = |fsync| {
        let _ = std::fs::remove_dir_all(&dir);
        Oplog::open(&dir, remote::journal_config(fsync)).expect("oplog in the scratch directory")
    };
    for (name, fsync, appends) in [
        ("never", FsyncPolicy::Never, payloads.len()),
        ("every_append", FsyncPolicy::EveryAppend, SYNCED_APPENDS.min(payloads.len())),
        // Last, so the log it leaves is the one read back below.
        ("on_rotate", FsyncPolicy::OnRotate, payloads.len()),
    ] {
        let costs = sample(budget.mul_f64(0.2), || {
            let mut oplog = open(fsync);
            let start = Instant::now();
            for payload in &payloads[..appends] {
                oplog.append(payload).expect("append");
            }
            oplog.sync().expect("sync");
            ns_per(start.elapsed(), appends * RECORD_EVENTS)
        });
        out.column(&format!("storage.append_ns_per_event.{name}"), "ns", &costs, |&ns| ns);
    }
    let events = clean.events.len();
    let reads = sample(budget.mul_f64(0.1), || {
        let start = Instant::now();
        let (read, report) =
            Oplog::read_dir_records(&dir, u32::MAX).expect("read the log just written");
        let took = start.elapsed();
        assert_eq!((read.len(), report.torn_bytes), (payloads.len(), 0), "the log read back short");
        per_s(events, took)
    });
    out.column("storage.read_events_per_s", "1/s", &reads, |&r| r);

    let mut oplog = open(FsyncPolicy::OnRotate);
    let syncs: Vec<f64> = payloads
        .iter()
        .take(SYNCED_APPENDS)
        .map(|payload| {
            oplog.append(payload).expect("append");
            let start = Instant::now();
            oplog.sync().expect("sync");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.0.push(Metric::of("storage.sync_us", "us", &syncs));
    drop(oplog);
    std::fs::remove_dir_all(&dir).expect("remove the oplog directory");

    // One committed window holding the whole trace, as the service's
    // closing sweep journals it.
    let mut ids: Vec<MonitorId> = clean.specs.keys().copied().collect();
    ids.sort();
    let mut records = vec![Record::Epoch { time: Nanos::ZERO }];
    records.extend(ids.iter().map(|&monitor| Record::Register {
        monitor,
        name: clean.specs[&monitor].name.clone(),
        time: Nanos::ZERO,
    }));
    records.extend(clean.events.chunks(RECORD_EVENTS).map(|c| Record::Events(c.to_vec())));
    records.push(Record::Checkpoint {
        now: clean.end_time,
        snapshots: ids.iter().map(|id| (*id, clean.snapshots[id].clone())).collect(),
        report: FaultReport::default(),
    });
    let replays = sample(budget.mul_f64(0.2), || {
        let start = Instant::now();
        let replay = replay_records(&records, DetectorConfig::without_timeouts(), &|id, _| {
            clean.specs.get(&id).cloned()
        });
        let took = start.elapsed();
        assert!(replay.matches() && replay.events_replayed as usize == events, "replay diverged");
        per_s(events, took)
    });
    out.column("storage.replay_check_events_per_s", "1/s", &replays, |&r| r);
}

/// `net.*` and the journal-level `storage.*`: the distributed driver
/// with one and two sessions and no journal, then with one session and
/// the journal. Each one-session run is paired with the same trace
/// through the inline backend in this process, the base of
/// `net.wire_ns_per_event`.
fn net(out: &mut Out, clean: &FleetTrace, budget: Duration, checks: &mut Checks) {
    let quiet = Tracer::new(false);
    let events = clean.events.len();
    let dir = crate::scratch_dir("net-journal");
    let mut inline_ns = Vec::new();
    let mut drive = |workers: usize, dir: Option<&std::path::Path>, paired: bool| {
        sample(budget / 3, || {
            if paired {
                let inline = backend("inline");
                let window = Kind::Clean.window();
                let drive = fleet::drive(inline.as_ref(), clean, window, &BACKEND, &quiet, None, 0);
                inline_ns.push(ns_per(drive.producer, events));
            }
            let run = remote::run(clean, workers, dir, &quiet, None, 0)
                .expect("journal in the benchmark's scratch directory");
            checks.absorb(remote::check(clean, &[], &run));
            run
        })
    };
    let w1 = drive(1, None, true);
    let w2 = drive(2, None, false);
    let journaled = drive(remote::WORKERS, Some(&dir), false);
    let ingest_ns = |r: &remote::Run| ns_per(r.outcome.ingest, events);
    out.column("net.w1.events_per_s", "1/s", &w1, |r| per_s(events, r.outcome.total));
    out.column("net.w2.events_per_s", "1/s", &w2, |r| per_s(events, r.outcome.total));
    out.column("net.w1.producer_ns_per_event", "ns", &w1, ingest_ns);
    out.column("net.w2.producer_ns_per_event", "ns", &w2, ingest_ns);
    let wire: Vec<f64> = w1.iter().zip(&inline_ns).map(|(r, base)| ingest_ns(r) - base).collect();
    out.0.push(Metric::of("net.wire_ns_per_event", "ns", &wire));
    let sessions = |r: &remote::Run| r.outcome.sessions.clone();
    out.column("net.session.events", "count", &w2, |r| {
        sessions(r).iter().map(|s| s.events).sum::<u64>() as f64
    });
    out.column("net.session.monitors", "count", &w2, |r| {
        sessions(r).iter().map(|s| s.monitors).sum::<usize>() as f64
    });
    out.column("net.quarantined", "count", &w2, |r| r.outcome.quarantined.len() as f64);

    let journals: Vec<&remote::Journal> =
        journaled.iter().map(|r| r.journal.as_ref().expect("the run journaled")).collect();
    out.column("storage.replay_events_per_s", "1/s", &journals, |j| per_s(events, j.replay));
    out.column("storage.journal_bytes_per_event", "B", &journals, |j| {
        j.bytes as f64 / events as f64
    });
    out.column("storage.rotations", "count", &journals, |j| j.rotations as f64);
    out.column("storage.segments", "count", &journals, |j| j.segments as f64);
    out.single(
        "storage.journal_tee_ns_per_event",
        "ns",
        median(journaled.iter().map(|r| ns_per(r.outcome.total, events)))
            - median(w1.iter().map(|r| ns_per(r.outcome.total, events))),
    );
}
