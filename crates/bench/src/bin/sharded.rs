//! EXP-SVC — detection-backend throughput (inline vs. sharded vs.
//! scheduled, single- and multi-producer), recorded as the
//! `BENCH_sharded.json` baseline.
//!
//! Drives the `rmon-workloads::sweep` fleet scenario (8 concurrent
//! producer/consumer monitors, interleaved into one stream) through
//! the [`DetectionBackend`] trait:
//!
//! * the inline baseline: one [`Detector`] observing every event and
//!   running the periodic checkpoint on the caller's thread;
//! * the sharded backend at 1 / 2 / 4 shards, one producer handle:
//!   per-handle batch buffers drained by bounded-channel sends into
//!   per-shard workers, then a fanned-out checkpoint;
//! * the sharded backend at 4 shards with 2 / 4 **concurrent producer
//!   threads**, each owning its own handle (the multi-producer
//!   ingestion front-end — no mutex shared between the producers on
//!   the observe path);
//! * the scheduled backend at 4 shards (sharding plus the per-shard
//!   checkpoint scheduler ticking in the background);
//! * the scheduled backend at 4 shards with the fleet's gated
//!   `SnapshotTable` registered as its `SnapshotProvider`
//!   (`scheduled-4-ckpt`): the background ticks are full per-shard
//!   snapshot + Algorithm-1/2 sweeps instead of timer-only checks —
//!   the cost of continuous full-fidelity checkpointing riding on the
//!   same ingest path;
//! * the distributed path (`distributed-w1/2/4`): the same fleet
//!   split across 1 / 2 / 4 `rmon-net` remote workers streaming over
//!   an in-process duplex transport into one `DetectionService` over
//!   the inline backend — the wire-protocol + session-layer overhead
//!   relative to the in-process rows. On one hardware thread the
//!   workers and the service time-slice, so these rows price the
//!   codec and session machinery, not network parallelism;
//! * the async backend at 4 shards in each instrumentation mode
//!   (`async-sync-4` / `async-async-4` / `async-hybrid-4`): the same
//!   fleet through the delivery queues and drain threads, pricing that
//!   machinery against the plain sharded path mode by mode.
//!
//! A separate **saturation** block runs the
//! `rmon-workloads::saturation` workload — ≥ 1000 concurrent producer
//! threads, one monitor each, tiny handle batches — against the
//! blocking sharded backend and the async backend (`Mode::Async` and
//! `Mode::Hybrid`). Its headline number is `slowest_producer`: the
//! worst wall time instrumentation charged any single monitored
//! thread. Under saturation the synchronous hand-off parks producers
//! on full shard inboxes while the async queues absorb the burst, so
//! the sync row degrades where the async row stays flat — both rows
//! must stay lossless (every offered event ingested after the closing
//! barrier).
//!
//! Two throughputs are reported per mode, both in events per second of
//! *measured wall time*:
//!
//! * `ingest` — the caller-side cost of handing the stream to the
//!   detection layer. For the inline detector this includes the
//!   Algorithm-3 checks (they run synchronously on the caller); for
//!   the sharded paths it is buffer-append + batch send, with checking
//!   proceeding on the worker shards. This is the paper's own lens:
//!   Table 1 measures the overhead detection imposes *on the monitored
//!   application*, and offloading it is what the service is for.
//! * `end_to_end` — ingest + checkpoint barrier, i.e. until every
//!   violation verdict is in. On a multi-core host the shards
//!   parallelize the checking; on a single core the service costs a
//!   small scheduling overhead over inline.
//!
//! Usage: `sharded [OUT.json]` (default `BENCH_sharded.json` in the
//! current directory). Environment: `RMON_SHARDED_RUNS` (default 5),
//! `RMON_SHARDED_ITEMS` (default 60), `RMON_SAT_PRODUCERS` (default
//! 1000), `RMON_SAT_ROUNDS` (default 16), `RMON_SAT_RUNS` (default 2).
//!
//! [`Detector`]: rmon_core::detect::Detector
//! [`DetectionBackend`]: rmon_core::detect::DetectionBackend

use rmon_bench::{row, rule_line};
use rmon_core::detect::{
    AsyncBackend, DetectionBackend, InlineBackend, ScheduledBackend, SchedulerConfig,
    ServiceConfig, ShardedBackend,
};
use rmon_core::{DetectorConfig, Mode, Nanos};
use rmon_workloads::distributed::{drive_fleet_distributed, DistributedConfig};
use rmon_workloads::saturation::{run_saturation, SaturationConfig};
use rmon_workloads::sweep::{
    drive_fleet_backend, drive_fleet_multi, drive_inline_fleet, fleet_trace, FleetTrace,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const FLEET_MONITORS: usize = 8;
const BATCH: usize = 256;
/// Tiny handle batch for the saturation block: with far more producers
/// than shards, small batches are what turn the blocking hand-off into
/// the bottleneck the async modes exist to remove.
const SAT_BATCH: usize = 8;
/// Shallow per-shard inbox for the saturation block. The sync hand-off
/// blocks on a full inbox, so with 1000 producers and 4 two-deep
/// inboxes the stall is structural; the async producers enqueue into
/// the backend's unbounded queues and never see this bound (only its
/// drainers do).
const SAT_INBOX: usize = 2;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const PRODUCER_COUNTS: [usize; 2] = [2, 4];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One mode's best-of-N measurement.
struct Measurement {
    mode: String,
    shards: usize,
    producers: usize,
    ingest_events_per_sec: f64,
    end_to_end_events_per_sec: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default).max(1)
}

/// Times one inline run via the shared fleet driver (raw detector —
/// the paper's exact shape, no trait indirection).
fn run_inline(fleet: &FleetTrace) -> (f64, f64) {
    let (report, timing) = drive_inline_fleet(fleet);
    assert!(report.is_clean(), "clean fleet must stay clean");
    (timing.ingest.as_secs_f64(), timing.total.as_secs_f64())
}

/// Times one single-handle run against a fresh backend.
fn run_backend(fleet: &FleetTrace, backend: &dyn DetectionBackend) -> (f64, f64) {
    let (report, _, timing) = drive_fleet_backend(fleet, backend);
    assert!(report.is_clean(), "clean fleet must stay clean");
    (timing.ingest.as_secs_f64(), timing.total.as_secs_f64())
}

/// Times one multi-producer run against a fresh backend.
fn run_multi(fleet: &FleetTrace, backend: &dyn DetectionBackend, producers: usize) -> (f64, f64) {
    let (report, _, timing) = drive_fleet_multi(fleet, backend, producers);
    assert!(report.is_clean(), "clean fleet must stay clean");
    (timing.ingest.as_secs_f64(), timing.total.as_secs_f64())
}

/// Times one distributed run: `workers` remote workers over in-process
/// duplex transports into a `DetectionService` over the inline
/// backend. `ingest` spans until the service has ingested the whole
/// stream (wire + session + remap included), `total` adds the fleet
/// checkpoint sweep.
fn run_distributed(fleet: &FleetTrace, workers: usize) -> (f64, f64) {
    let backend = Arc::new(InlineBackend::new(DetectorConfig::without_timeouts()));
    let cfg = DistributedConfig { workers, batch: BATCH, ..DistributedConfig::default() };
    let outcome = drive_fleet_distributed(fleet, backend, &cfg);
    assert!(outcome.verdicts.is_empty(), "clean fleet must stay clean");
    assert!(outcome.quarantined.is_empty(), "healthy workers must not be quarantined");
    (outcome.ingest.as_secs_f64(), outcome.total.as_secs_f64())
}

fn measure<F: FnMut() -> (f64, f64)>(runs: usize, events: u64, mut f: F) -> (f64, f64) {
    let mut best_ingest = 0f64;
    let mut best_total = 0f64;
    for _ in 0..runs {
        let (ingest, total) = f();
        best_ingest = best_ingest.max(events as f64 / ingest.max(1e-12));
        best_total = best_total.max(events as f64 / total.max(1e-12));
    }
    (best_ingest, best_total)
}

fn sharded_backend(shards: usize) -> ShardedBackend {
    ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(shards))
        .with_batch(BATCH)
}

/// The adaptive-batch variant: handles start at a small batch (low
/// latency) and double toward `4 × BATCH` while the shard inboxes keep
/// absorbing flushes without pressure.
fn adaptive_backend(shards: usize) -> ShardedBackend {
    ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(shards))
        .with_adaptive_batch(8, BATCH * 4)
}

fn scheduled_backend(shards: usize) -> ScheduledBackend {
    ScheduledBackend::new(
        DetectorConfig::without_timeouts(),
        ServiceConfig::new(shards),
        SchedulerConfig::new(Duration::from_millis(5)),
    )
    .with_batch(BATCH)
}

/// The checkpointing-scheduled mode: the background ticks run the full
/// snapshot + Algorithm-1/2 sweep through the fleet's gated snapshot
/// table (comparisons defer until the replay is quiescent, so mid-drive
/// sweeps stay sound).
fn scheduled_ckpt_backend(shards: usize, fleet: &FleetTrace) -> ScheduledBackend {
    let backend = scheduled_backend(shards);
    backend.set_snapshot_provider(fleet.snapshot_table());
    backend
}

/// The async backend with every monitor starting in `mode`.
fn async_backend(mode: Mode, shards: usize, batch: usize) -> AsyncBackend {
    let cfg = DetectorConfig { mode, ..DetectorConfig::without_timeouts() };
    AsyncBackend::new(cfg, ServiceConfig::new(shards)).with_batch(batch)
}

/// The saturation-block service shape: `SAT_INBOX`-deep shard inboxes.
fn sat_service() -> ServiceConfig {
    ServiceConfig::new(4).queue_capacity(SAT_INBOX)
}

/// The saturation-block async backend: same shallow inner inboxes, so
/// only the producer-facing hand-off differs between the rows.
fn sat_async_backend(mode: Mode) -> AsyncBackend {
    let cfg = DetectorConfig { mode, ..DetectorConfig::without_timeouts() };
    AsyncBackend::new(cfg, sat_service()).with_batch(SAT_BATCH)
}

/// One saturation mode's best-of-N measurement. `slowest_producer_ms`
/// is the minimum across runs of the worst single-producer wall time —
/// the steady-state instrumentation charge, not a scheduler hiccup.
struct SatMeasurement {
    mode: String,
    shards: usize,
    producers: usize,
    ingest_events_per_sec: f64,
    end_to_end_events_per_sec: f64,
    slowest_producer_ms: f64,
    lossless: bool,
}

/// Runs the saturation workload `runs` times against fresh backends
/// from `make`, folding the best throughputs and the lowest
/// worst-producer time; `lossless` must hold on every run.
fn measure_saturation<F: Fn() -> Box<dyn DetectionBackend>>(
    label: &str,
    shards: usize,
    runs: usize,
    cfg: &SaturationConfig,
    make: F,
) -> SatMeasurement {
    let events = cfg.events();
    let mut best_ingest = 0f64;
    let mut best_total = 0f64;
    let mut best_slowest = f64::INFINITY;
    let mut lossless = true;
    for _ in 0..runs {
        let backend = make();
        let report = run_saturation(backend.as_ref(), cfg);
        assert!(report.clean, "{label}: the saturation workload is clean by construction");
        lossless &= report.lossless();
        best_ingest = best_ingest.max(events as f64 / report.ingest.as_secs_f64().max(1e-12));
        best_total = best_total.max(events as f64 / report.total.as_secs_f64().max(1e-12));
        best_slowest = best_slowest.min(report.slowest_producer.as_secs_f64() * 1e3);
        backend.shutdown();
    }
    SatMeasurement {
        mode: label.to_string(),
        shards,
        producers: cfg.producers,
        ingest_events_per_sec: best_ingest,
        end_to_end_events_per_sec: best_total,
        slowest_producer_ms: best_slowest,
        lossless,
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sharded.json".to_string());
    let runs = env_usize("RMON_SHARDED_RUNS", 5);
    let items = env_usize("RMON_SHARDED_ITEMS", 60);
    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let fleet = fleet_trace(FLEET_MONITORS, items, 7);
    let events = fleet.events.len() as u64;
    println!(
        "EXP-SVC: {} monitors, {} events, batch {}, best of {} runs, {} hardware thread(s)\n",
        fleet.monitors(),
        events,
        BATCH,
        runs,
        hw_threads
    );

    let mut results = Vec::new();
    // Warm-up pass so first-touch costs (page faults, lazy init) hit
    // nobody's measurement in particular.
    let _ = run_inline(&fleet);

    let (ingest, total) = measure(runs, events, || run_inline(&fleet));
    results.push(Measurement {
        mode: "inline".into(),
        shards: 0,
        producers: 1,
        ingest_events_per_sec: ingest,
        end_to_end_events_per_sec: total,
    });
    for &shards in &SHARD_COUNTS {
        let (ingest, total) =
            measure(runs, events, || run_backend(&fleet, &sharded_backend(shards)));
        results.push(Measurement {
            mode: format!("sharded-{shards}"),
            shards,
            producers: 1,
            ingest_events_per_sec: ingest,
            end_to_end_events_per_sec: total,
        });
    }
    for &producers in &PRODUCER_COUNTS {
        let (ingest, total) =
            measure(runs, events, || run_multi(&fleet, &sharded_backend(4), producers));
        results.push(Measurement {
            mode: format!("sharded-4xp{producers}"),
            shards: 4,
            producers,
            ingest_events_per_sec: ingest,
            end_to_end_events_per_sec: total,
        });
    }
    let (ingest, total) = measure(runs, events, || run_backend(&fleet, &adaptive_backend(4)));
    results.push(Measurement {
        mode: "sharded-4-adaptive".into(),
        shards: 4,
        producers: 1,
        ingest_events_per_sec: ingest,
        end_to_end_events_per_sec: total,
    });
    let (ingest, total) = measure(runs, events, || run_backend(&fleet, &scheduled_backend(4)));
    results.push(Measurement {
        mode: "scheduled-4".into(),
        shards: 4,
        producers: 1,
        ingest_events_per_sec: ingest,
        end_to_end_events_per_sec: total,
    });
    let (ingest, total) =
        measure(runs, events, || run_backend(&fleet, &scheduled_ckpt_backend(4, &fleet)));
    results.push(Measurement {
        mode: "scheduled-4-ckpt".into(),
        shards: 4,
        producers: 1,
        ingest_events_per_sec: ingest,
        end_to_end_events_per_sec: total,
    });
    for &workers in &WORKER_COUNTS {
        let (ingest, total) = measure(runs, events, || run_distributed(&fleet, workers));
        results.push(Measurement {
            mode: format!("distributed-w{workers}"),
            shards: 0,
            producers: workers,
            ingest_events_per_sec: ingest,
            end_to_end_events_per_sec: total,
        });
    }
    for (label, mode) in [
        ("async-sync-4", Mode::Sync),
        ("async-async-4", Mode::Async),
        ("async-hybrid-4", Mode::Hybrid(Nanos::from_micros(50))),
    ] {
        let (ingest, total) =
            measure(runs, events, || run_backend(&fleet, &async_backend(mode, 4, BATCH)));
        results.push(Measurement {
            mode: label.into(),
            shards: 4,
            producers: 1,
            ingest_events_per_sec: ingest,
            end_to_end_events_per_sec: total,
        });
    }

    // The saturation block: the many-producer stress shape, sync
    // hand-off vs. the async instrumentation modes.
    let sat_cfg = SaturationConfig {
        producers: env_usize("RMON_SAT_PRODUCERS", 1000),
        rounds: env_usize("RMON_SAT_ROUNDS", 16),
    };
    let sat_runs = env_usize("RMON_SAT_RUNS", 2);
    println!(
        "\nsaturation: {} producers x {} rounds ({} events), batch {}, inbox depth {}, \
         best of {} runs",
        sat_cfg.producers,
        sat_cfg.rounds,
        sat_cfg.events(),
        SAT_BATCH,
        SAT_INBOX,
        sat_runs
    );
    let p = sat_cfg.producers;
    let sat_results = vec![
        measure_saturation(&format!("saturation-sync-p{p}"), 4, sat_runs, &sat_cfg, || {
            Box::new(
                ShardedBackend::new(DetectorConfig::without_timeouts(), sat_service())
                    .with_batch(SAT_BATCH),
            )
        }),
        measure_saturation(&format!("saturation-async-p{p}"), 4, sat_runs, &sat_cfg, || {
            Box::new(sat_async_backend(Mode::Async))
        }),
        measure_saturation(&format!("saturation-hybrid-p{p}"), 4, sat_runs, &sat_cfg, || {
            Box::new(sat_async_backend(Mode::Hybrid(Nanos::from_micros(50))))
        }),
    ];
    for m in &sat_results {
        assert!(m.lossless, "{}: every offered event must be ingested", m.mode);
    }

    let widths = [14usize, 8, 10, 18, 18];
    println!(
        "{}",
        row(
            &[
                "mode".into(),
                "shards".into(),
                "producers".into(),
                "ingest ev/s".into(),
                "end-to-end ev/s".into()
            ],
            &widths
        )
    );
    println!("{}", rule_line(&widths));
    for m in &results {
        println!(
            "{}",
            row(
                &[
                    m.mode.clone(),
                    if m.shards == 0 { "-".into() } else { m.shards.to_string() },
                    m.producers.to_string(),
                    format!("{:.0}", m.ingest_events_per_sec),
                    format!("{:.0}", m.end_to_end_events_per_sec),
                ],
                &widths
            )
        );
    }

    let sat_widths = [22usize, 8, 10, 18, 18, 14];
    println!(
        "\n{}",
        row(
            &[
                "saturation mode".into(),
                "shards".into(),
                "producers".into(),
                "ingest ev/s".into(),
                "end-to-end ev/s".into(),
                "slowest (ms)".into(),
            ],
            &sat_widths
        )
    );
    println!("{}", rule_line(&sat_widths));
    for m in &sat_results {
        println!(
            "{}",
            row(
                &[
                    m.mode.clone(),
                    m.shards.to_string(),
                    m.producers.to_string(),
                    format!("{:.0}", m.ingest_events_per_sec),
                    format!("{:.0}", m.end_to_end_events_per_sec),
                    format!("{:.3}", m.slowest_producer_ms),
                ],
                &sat_widths
            )
        );
    }
    let sat_degradation =
        sat_results[0].slowest_producer_ms / sat_results[1].slowest_producer_ms.max(1e-9);
    println!(
        "\nsaturation: sync slowest producer is {sat_degradation:.1}x the async slowest producer"
    );

    let inline = &results[0];
    let at4 = results
        .iter()
        .find(|m| m.shards == 4 && m.producers == 1 && m.mode.starts_with("sharded"))
        .expect("4-shard mode measured");
    let ingest_speedup = at4.ingest_events_per_sec / inline.ingest_events_per_sec;
    let e2e_ratio = at4.end_to_end_events_per_sec / inline.end_to_end_events_per_sec;
    println!(
        "\nsharded-4 vs inline: ingest {ingest_speedup:.2}x, end-to-end {e2e_ratio:.2}x \
         ({hw_threads} hardware threads)"
    );

    // Hand-rolled JSON: the serde shim has no real formats, and the
    // schema is flat enough that string assembly stays readable.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"EXP-SVC detection backend throughput\",");
    let _ = writeln!(json, "  \"workload\": \"rmon-workloads::sweep::fleet_trace\",");
    let _ = writeln!(json, "  \"monitors\": {FLEET_MONITORS},");
    let _ = writeln!(json, "  \"items_per_producer\": {items},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    let _ = writeln!(json, "  \"hardware_threads\": {hw_threads},");
    let _ = writeln!(json, "  \"metric\": \"events per second, best of runs\",");
    let _ = writeln!(
        json,
        "  \"caveats\": \"With 1 hardware thread the end-to-end ratios understate the \
         sharded/scheduled backends (worker checking cannot run in parallel) and the \
         multi-producer ingest numbers measure time-sliced, not concurrent, producers; \
         re-record on a multi-core host for the parallel-checking and concurrent-ingest \
         wins. Ingest speedups (caller-side offload) are meaningful at any thread \
         count. The distributed rows run worker sessions and the service time-sliced \
         on the same thread over an in-process transport: they price the wire codec \
         and session layer, not network parallelism — per-worker rates divide the \
         fleet rate by the worker count. The async-sync/async-hybrid rows block (or \
         wait out a timeout) on a cross-thread delivery ticket per event, so on one \
         hardware thread they pay a scheduler round-trip per event; async-async is \
         the fire-and-forget fast path.\","
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"shards\": {}, \"producers\": {}, \
             \"ingest_events_per_sec\": {:.0}, \"end_to_end_events_per_sec\": {:.0}}}{comma}",
            m.mode, m.shards, m.producers, m.ingest_events_per_sec, m.end_to_end_events_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"saturation\": {{");
    let _ = writeln!(json, "    \"workload\": \"rmon-workloads::saturation\",");
    let _ = writeln!(json, "    \"producers\": {},", sat_cfg.producers);
    let _ = writeln!(json, "    \"rounds\": {},", sat_cfg.rounds);
    let _ = writeln!(json, "    \"events\": {},", sat_cfg.events());
    let _ = writeln!(json, "    \"batch\": {SAT_BATCH},");
    let _ = writeln!(json, "    \"inbox_depth\": {SAT_INBOX},");
    let _ = writeln!(json, "    \"runs\": {sat_runs},");
    let _ = writeln!(
        json,
        "    \"caveats\": \"slowest_producer_ms is the worst wall time instrumentation \
         charged any single monitored thread (best across runs). With {SAT_INBOX}-deep \
         shard inboxes and far more producers than shard workers, the sync row blocks \
         producers on full inboxes — it degrades by design; the async and hybrid rows \
         enqueue into the backend's unbounded per-shard queues (only its drainers see \
         the inbox bound) and charge producers a lock-and-push. On 1 hardware thread \
         all producers time-slice, which understates the sync stall (a blocked producer \
         just yields its slice) — re-record on a multi-core host for the real gap. \
         Every row must stay lossless: offered events == ingested events after the \
         closing barrier.\","
    );
    let _ = writeln!(json, "    \"results\": [");
    for (i, m) in sat_results.iter().enumerate() {
        let comma = if i + 1 == sat_results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"mode\": \"{}\", \"shards\": {}, \"producers\": {}, \
             \"ingest_events_per_sec\": {:.0}, \"end_to_end_events_per_sec\": {:.0}, \
             \"slowest_producer_ms\": {:.3}, \"lossless\": {}}}{comma}",
            m.mode,
            m.shards,
            m.producers,
            m.ingest_events_per_sec,
            m.end_to_end_events_per_sec,
            m.slowest_producer_ms,
            m.lossless
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"sync_vs_async_slowest_producer_ratio\": {sat_degradation:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"distributed_per_worker_events_per_sec\": {{");
    for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
        let m = results
            .iter()
            .find(|m| m.mode == format!("distributed-w{workers}"))
            .expect("distributed mode measured");
        let comma = if i + 1 == WORKER_COUNTS.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"w{workers}\": {:.0}{comma}",
            m.ingest_events_per_sec / workers as f64
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sharded4_vs_inline_ingest_speedup\": {ingest_speedup:.3},");
    let _ = writeln!(json, "  \"sharded4_vs_inline_end_to_end_ratio\": {e2e_ratio:.3}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("\nwrote {out_path}");
}
