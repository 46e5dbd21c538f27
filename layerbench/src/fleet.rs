//! `fleet_clean` and `fleet_faulty`: a recorded fleet trace pushed
//! through one [`ProducerHandle`](rmon_core::detect::ProducerHandle)
//! of a backend in checking windows — observe a window, flush,
//! `checkpoint_window` it, drain the verdicts — which is the shape
//! `rmon-rt` and the scheduler produce. The same driver feeds the
//! per-layer backend probes.

use crate::check::Checks;
use crate::span::{SpanId, Tracer};
use crate::workload::{Repetition, Scale, Workload};
use rmon_core::detect::{
    DetectionBackend, InlineBackend, ServiceConfig, ServiceStats, ShardedBackend,
};
use rmon_core::{DetectorConfig, MonitorState, Nanos, Violation};
use rmon_storage::replay::VerdictKey;
use rmon_storage::verdict_keys;
use rmon_workloads::sweep::{allocator_fleet_trace, fleet_trace, FleetTrace};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Producer-handle batch of the measured backend.
pub const BATCH: usize = 256;
/// Shards of the measured backend: one per hardware thread of the
/// reference container.
pub const SHARDS: usize = 2;

/// Span names of one drive; the reference drive uses its own so that
/// its time is charged to the engine, not to the backend under test.
#[derive(Debug, Clone, Copy)]
pub struct DriveNames {
    register: &'static str,
    observe: &'static str,
    checkpoint: &'static str,
    drain: &'static str,
}

/// Names for the backend under test.
pub const BACKEND: DriveNames = DriveNames {
    register: "backend.register",
    observe: "backend.observe_flush",
    checkpoint: "backend.checkpoint_window",
    drain: "backend.drain_violations",
};

/// Names for the inline reference: one synchronous `Detector` behind
/// the trait, so its time is engine time.
pub const REFERENCE: DriveNames = DriveNames {
    register: "engine.reference.register",
    observe: "engine.reference.observe",
    checkpoint: "engine.reference.checkpoint_window",
    drain: "engine.reference.drain_violations",
};

/// What one windowed drive measured and produced.
#[derive(Debug)]
pub struct Drive {
    /// Wall inside `observe` + `flush` on the producing thread.
    pub producer: Duration,
    /// First `observe` to last verdict in, checkpoints included.
    pub wall: Duration,
    /// One entry per window: `checkpoint_window` + `drain_violations`.
    pub checkpoints_us: Vec<f64>,
    /// Wall inside `flush` alone, per window.
    pub flushes_us: Vec<f64>,
    /// Every verdict, real-time and checkpoint.
    pub verdicts: Vec<Violation>,
    /// Events the checkpoints report having checked.
    pub events_checked: u64,
    /// The backend's quiescent counters after the last window.
    pub stats: ServiceStats,
}

/// Registers the fleet on a fresh `backend` and drives it window by
/// window. Intermediate windows checkpoint in pure event-stream mode
/// (no snapshots); the last window compares against the fleet's final
/// observed states.
pub fn drive(
    backend: &dyn DetectionBackend,
    fleet: &FleetTrace,
    window: usize,
    names: &DriveNames,
    tracer: &Tracer,
    parent: SpanId,
    repetition: u32,
) -> Drive {
    tracer.time(names.register, parent, repetition, |_| {
        for (&id, spec) in &fleet.specs {
            backend.register_empty(id, Arc::clone(spec), Nanos::ZERO);
        }
    });
    let no_snapshots: HashMap<_, MonitorState> = HashMap::new();
    let mut producer = backend.producer();
    let mut out = Drive {
        producer: Duration::ZERO,
        wall: Duration::ZERO,
        checkpoints_us: Vec::with_capacity(fleet.events.len() / window + 1),
        flushes_us: Vec::with_capacity(fleet.events.len() / window + 1),
        verdicts: Vec::new(),
        events_checked: 0,
        stats: ServiceStats { shards: Vec::new() },
    };
    let start = std::time::Instant::now();
    let windows = fleet.events.chunks(window).count();
    for (i, events) in fleet.events.chunks(window).enumerate() {
        let last = i + 1 == windows;
        let ((), took) = tracer.time(names.observe, parent, repetition, |_| {
            for event in events {
                producer.observe(*event);
            }
            let flush = std::time::Instant::now();
            producer.flush();
            out.flushes_us.push(flush.elapsed().as_secs_f64() * 1e6);
        });
        out.producer += took;
        let (now, snapshots) = if last {
            (fleet.end_time, &fleet.snapshots)
        } else {
            (events[events.len() - 1].time, &no_snapshots)
        };
        let (report, checkpoint) = tracer.time(names.checkpoint, parent, repetition, |_| {
            backend.checkpoint_window(now, events, snapshots)
        });
        let (realtime, drain) =
            tracer.time(names.drain, parent, repetition, |_| backend.drain_violations());
        out.checkpoints_us.push((checkpoint + drain).as_secs_f64() * 1e6);
        out.events_checked += report.events_checked;
        out.verdicts.extend(report.violations);
        out.verdicts.extend(realtime);
    }
    out.wall = start.elapsed();
    out.stats = backend.stats();
    out
}

/// The backend both fleet workloads measure.
pub fn sharded_backend(shards: usize) -> ShardedBackend {
    ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(shards))
        .with_batch(BATCH)
}

/// Which fleet a [`Fleet`] workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fleet_trace(64, 2000, seed)`: producer/consumer monitors, no
    /// violations.
    Clean,
    /// `allocator_fleet_trace(256, 32, seed)`: U1/U3 user-process
    /// faults on a fixed schedule, about 2.25 verdicts per event.
    Faulty,
}

impl Kind {
    /// Generates the trace. Only the seed and the scale reach the
    /// generators.
    pub fn trace(self, seed: u64, scale: Scale) -> FleetTrace {
        match self {
            Kind::Clean => fleet_trace(64, scale.of(2000), seed),
            // Many monitors, few rounds: never-satisfied requests pile
            // up per monitor and make every later checkpoint dearer
            // (the cliff register in the README has the numbers).
            Kind::Faulty => allocator_fleet_trace(scale.of(256), 32, seed),
        }
    }

    /// Events per checking window.
    pub fn window(self) -> usize {
        match self {
            Kind::Clean => 4096,
            Kind::Faulty => 1024,
        }
    }
}

/// Reference verdicts of `fleet`: the windowed drive over an
/// [`InlineBackend`].
pub fn reference_verdicts(fleet: &FleetTrace, window: usize) -> Vec<VerdictKey> {
    let inline = InlineBackend::new(DetectorConfig::without_timeouts());
    let reference = drive(&inline, fleet, window, &REFERENCE, &Tracer::new(false), None, 0);
    verdict_keys(&reference.verdicts)
}

/// The two fleet workloads.
#[derive(Debug)]
pub struct Fleet {
    kind: Kind,
    fleet: FleetTrace,
    reference: Vec<VerdictKey>,
}

impl Workload for Fleet {
    type Input = Kind;

    fn prepare(kind: Kind, seed: u64, scale: Scale) -> Self {
        let fleet = kind.trace(seed, scale);
        let reference = reference_verdicts(&fleet, kind.window());
        Fleet { kind, fleet, reference }
    }

    fn repetition(&mut self, tracer: &Tracer, root: SpanId, n: u32) -> Repetition {
        let window = self.kind.window();
        // The paired reference runs first, like the uninstrumented
        // repetition of `app_overhead`.
        let (inline, _) = tracer.time("engine.reference.construct", root, n, |_| {
            InlineBackend::new(DetectorConfig::without_timeouts())
        });
        let reference = drive(&inline, &self.fleet, window, &REFERENCE, tracer, root, n);
        tracer.time("engine.reference.drop", root, n, |_| drop(inline));

        let (backend, _) = tracer.time("backend.construct", root, n, |_| {
            crate::affinity::on_workers(|| sharded_backend(SHARDS))
        });
        let run = drive(&backend, &self.fleet, window, &BACKEND, tracer, root, n);
        tracer.time("backend.shutdown", root, n, |_| {
            backend.shutdown();
            drop(backend);
        });

        let events = self.fleet.events.len() as u64;
        let mut checks = Checks::default();
        // The harness's own work, spanned so the trace accounts for it:
        // on `fleet_faulty`, comparing and freeing 170 k verdicts is a
        // quarter of the repetition.
        tracer.time("harness.check", root, n, |_| {
            checks.lossless("events offered and ingested", events, run.stats.total_events());
            checks.lossless("events offered and checked", events, run.events_checked);
            checks.verdicts("sharded verdicts", &self.reference, &run.verdicts);
            checks.verdicts("inline verdicts", &self.reference, &reference.verdicts);
            drop((run.verdicts, reference.verdicts));
        });
        Repetition {
            events,
            wall: run.wall,
            producer: run.producer,
            checkpointing: Duration::from_secs_f64(run.checkpoints_us.iter().sum::<f64>() / 1e6),
            checkpoints_us: run.checkpoints_us,
            whole: run.wall,
            reference: reference.wall,
            own: Vec::new(),
            checks,
        }
    }
}
