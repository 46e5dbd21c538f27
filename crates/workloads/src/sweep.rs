//! Parameter sweeps and synthetic traces for the benchmark harness.
//!
//! Besides the single-monitor window sweeps, this module builds
//! *fleet* scenarios — many independent monitors interleaved into one
//! event stream — which are the input material for the
//! shard core ([`rmon_core::detect::ShardedBackend`]): enough
//! concurrent monitors that partitioning them across worker shards
//! actually spreads load.

use crate::producer_consumer::PcWorkload;
use rmon_core::detect::{
    CheckpointScope, DetectionBackend, Detector, ServiceStats, SnapshotProvider, SnapshotTable,
};
use rmon_core::{
    DetectorConfig, Event, FaultReport, MonitorId, MonitorSpec, MonitorState, Nanos, Pid,
};
use rmon_sim::SimConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// A recorded clean trace with everything the detection algorithms
/// need: the declaration, the full event window, the initial and final
/// observed states.
#[derive(Debug, Clone)]
pub struct SynthTrace {
    /// The buffer's declaration.
    pub spec: Arc<MonitorSpec>,
    /// The buffer's monitor id.
    pub monitor: MonitorId,
    /// The full event sequence.
    pub events: Vec<Event>,
    /// Observed state before the first event.
    pub initial: MonitorState,
    /// Observed state at the end of the run.
    pub final_state: MonitorState,
    /// Virtual end time.
    pub end_time: Nanos,
}

/// Runs a producer/consumer workload to completion and captures its
/// trace — input material for detector benchmarks and differential
/// tests.
///
/// # Panics
///
/// Panics if the workload does not finish (it always does: the item
/// counts are balanced).
pub fn pc_trace(items_per_producer: usize, seed: u64) -> SynthTrace {
    let workload = PcWorkload { items_per_producer, ..PcWorkload::default() };
    let cfg = if seed == 0 { SimConfig::default() } else { SimConfig::random_seeded(seed) };
    let mut b = rmon_sim::SimBuilder::new().with_config(cfg).with_full_trace();
    let buf = workload.install(&mut b);
    let mut sim = b.build().expect("pc workload valid");
    assert!(rmon_sim::run_plain(&mut sim), "balanced producer/consumer must finish");
    let spec = sim
        .monitors()
        .iter()
        .find(|m| m.id == buf)
        .map(|m| Arc::clone(&m.spec))
        .expect("buffer exists");
    let initial = spec.empty_state();
    SynthTrace {
        monitor: buf,
        events: sim.full_trace().to_vec(),
        initial,
        final_state: sim.snapshot(buf).expect("buffer exists"),
        end_time: sim.clock(),
        spec,
    }
}

/// Event-window sizes used by the detector-cost sweep.
pub const WINDOW_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Produces traces whose event counts are at least the requested
/// window sizes (items are scaled until the trace is long enough).
pub fn window_sweep(seed: u64) -> Vec<(usize, SynthTrace)> {
    WINDOW_SIZES
        .iter()
        .map(|&target| {
            // Each send/receive is 2 events; 2 producers.
            let mut items = target / 8 + 1;
            loop {
                let trace = pc_trace(items, seed);
                if trace.events.len() >= target {
                    break (target, trace);
                }
                items *= 2;
            }
        })
        .collect()
}

/// A fleet of independent monitors whose traces are interleaved into
/// one event stream — the sharded service's natural diet.
#[derive(Debug, Clone)]
pub struct FleetTrace {
    /// Declaration of every monitor in the fleet.
    pub specs: HashMap<MonitorId, Arc<MonitorSpec>>,
    /// The interleaved, globally re-sequenced event stream.
    pub events: Vec<Event>,
    /// Final observed state of every monitor.
    pub snapshots: HashMap<MonitorId, MonitorState>,
    /// Virtual end time (max across member traces).
    pub end_time: Nanos,
}

impl FleetTrace {
    /// Number of monitors in the fleet.
    pub fn monitors(&self) -> usize {
        self.specs.len()
    }

    /// A consistency-gated [`SnapshotTable`] over the fleet's **final**
    /// observed states: each monitor's snapshot is gated on its total
    /// event count, so a backend that checkpoints *during* the drive
    /// (scheduled sweeps, [`drive_fleet_checkpointed`]) defers the
    /// Algorithm-1/2 comparison until its replay has consumed the whole
    /// stream — mid-drive sweeps stay replay-and-timers-only instead of
    /// comparing a half-ingested trace against the end state.
    pub fn snapshot_table(&self) -> Arc<SnapshotTable> {
        let table = Arc::new(SnapshotTable::from_snapshots(self.snapshots.clone()));
        let mut counts: HashMap<MonitorId, u64> = HashMap::new();
        for event in &self.events {
            *counts.entry(event.monitor).or_insert(0) += 1;
        }
        for (&monitor, &count) in &counts {
            table.expect_events(monitor, count);
        }
        table
    }
}

/// Builds a fleet of `monitors` independent producer/consumer traces
/// (each `items_per_producer` deep, seeds derived from `seed`),
/// remapped to distinct [`MonitorId`]s and interleaved round-robin so
/// consecutive events usually belong to *different* monitors — the
/// worst case for a per-monitor cache, the common case for a shared
/// ingestion pipeline.
pub fn fleet_trace(monitors: usize, items_per_producer: usize, seed: u64) -> FleetTrace {
    let monitors = monitors.max(1);
    let mut specs = HashMap::new();
    let mut snapshots = HashMap::new();
    let mut end_time = Nanos::ZERO;
    let mut streams: Vec<std::vec::IntoIter<Event>> = Vec::with_capacity(monitors);
    for i in 0..monitors {
        let member_seed = seed.wrapping_mul(31).wrapping_add(i as u64 + 1);
        let trace = pc_trace(items_per_producer, member_seed);
        let id = MonitorId::new(i as u32);
        specs.insert(id, Arc::clone(&trace.spec));
        snapshots.insert(id, trace.final_state.clone());
        if trace.end_time > end_time {
            end_time = trace.end_time;
        }
        let remapped: Vec<Event> = trace
            .events
            .into_iter()
            .map(|mut e| {
                e.monitor = id;
                e
            })
            .collect();
        streams.push(remapped.into_iter());
    }
    // Round-robin interleave, re-assigning the global sequence so the
    // merged stream has one total order.
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut live = true;
    while live {
        live = false;
        for stream in &mut streams {
            if let Some(mut e) = stream.next() {
                seq += 1;
                e.seq = seq;
                events.push(e);
                live = true;
            }
        }
    }
    FleetTrace { specs, events, snapshots, end_time }
}

/// A deterministic **faulty** fleet: `monitors` single-unit resource
/// allocators, each worked by two callers over `rounds` rounds, with
/// user-process faults injected on a fixed schedule derived from
/// `seed` — duplicate requests (fault U3 / ST-8a) while the right is
/// held, and releases without a preceding request (fault U1 / ST-8b).
///
/// The member streams are interleaved round-robin and re-sequenced
/// exactly like [`fleet_trace`], so the result feeds the same drivers.
/// No snapshots are provided (pure event-stream mode): every reported
/// violation is a deterministic function of the events, which is what
/// makes this the input material for backend *equivalence* tests —
/// inline, sharded and scheduled backends must reproduce the identical
/// per-monitor violation sequences.
pub fn allocator_fleet_trace(monitors: usize, rounds: usize, seed: u64) -> FleetTrace {
    let monitors = monitors.max(1);
    let rounds = rounds.max(1);
    let mut specs = HashMap::new();
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(monitors);
    for i in 0..monitors {
        let al = MonitorSpec::allocator(format!("alloc{i}"), 1);
        let id = MonitorId::new(i as u32);
        specs.insert(id, Arc::new(al.spec.clone()));
        let holder = Pid::new(2 * i as u32 + 1);
        let stranger = Pid::new(2 * i as u32 + 2);
        let mut events = Vec::new();
        for r in 0..rounds {
            let r = r as u64;
            let i = i as u64;
            events.push(Event::enter(0, Nanos::ZERO, id, holder, al.request, true));
            if (r + i + seed).is_multiple_of(3) {
                // U3: request an access right the caller already holds
                // (the attempt queues — `granted: false` — but the
                // order check fires on the call itself).
                events.push(Event::enter(0, Nanos::ZERO, id, holder, al.request, false));
            }
            events.push(Event::signal_exit(0, Nanos::ZERO, id, holder, al.request, None, false));
            events.push(Event::enter(0, Nanos::ZERO, id, holder, al.release, true));
            events.push(Event::signal_exit(0, Nanos::ZERO, id, holder, al.release, None, false));
            if (r + 2 * i + seed).is_multiple_of(4) {
                // U1: release without a preceding request.
                events.push(Event::enter(0, Nanos::ZERO, id, stranger, al.release, false));
            }
        }
        streams.push(events);
    }
    // Round-robin interleave with one global seq order, stamping times
    // on the merged axis.
    let mut iters: Vec<std::vec::IntoIter<Event>> =
        streams.into_iter().map(|v| v.into_iter()).collect();
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut live = true;
    while live {
        live = false;
        for it in &mut iters {
            if let Some(mut e) = it.next() {
                seq += 1;
                e.seq = seq;
                e.time = Nanos::new(seq * 10);
                events.push(e);
                live = true;
            }
        }
    }
    let end_time = Nanos::new((seq + 1) * 10);
    FleetTrace { specs, events, snapshots: HashMap::new(), end_time }
}

/// Wall-clock split of one fleet drive: `ingest` is the caller-side
/// cost of handing the stream to the detection layer, `total` adds the
/// periodic checkpoint (registration is excluded from both).
#[derive(Debug, Clone, Copy)]
pub struct FleetTiming {
    /// Time to feed every event to the detection layer.
    pub ingest: std::time::Duration,
    /// Ingest plus the checkpoint, i.e. until every verdict is in.
    pub total: std::time::Duration,
}

/// Drives a [`FleetTrace`] through one inline [`Detector`]: observe
/// every event one at a time, then checkpoint against the final
/// snapshots. The single-threaded baseline the sharded path is
/// measured against. Real-time violations are folded into the report.
pub fn drive_inline_fleet(fleet: &FleetTrace) -> (FaultReport, FleetTiming) {
    let mut det = Detector::new(DetectorConfig::without_timeouts());
    for (&id, spec) in &fleet.specs {
        det.register_empty(id, Arc::clone(spec), Nanos::ZERO);
    }
    let mut realtime = Vec::new();
    let t0 = std::time::Instant::now();
    for event in &fleet.events {
        det.observe_into(event, &mut realtime);
    }
    let ingest = t0.elapsed();
    let mut report = det.checkpoint(fleet.end_time, &fleet.events, &fleet.snapshots);
    let total = t0.elapsed();
    report.violations.extend(realtime);
    (report, FleetTiming { ingest, total })
}

/// Drives a [`FleetTrace`] through any [`DetectionBackend`] over **one
/// producer handle** (the single-threaded ingestion shape): registers
/// every monitor, observes the stream event by event through the
/// handle, checkpoints, and returns the merged report (real-time
/// violations folded in) plus the backend's quiescent counters and the
/// timing split.
///
/// This is the same driver loop `rmon-sim`'s `run_with_backend` and
/// the `rmon-rt` runtime use — simulated, synthetic and real-thread
/// traffic all exercise the identical ingestion API.
pub fn drive_fleet_backend(
    fleet: &FleetTrace,
    backend: &dyn DetectionBackend,
) -> (FaultReport, ServiceStats, FleetTiming) {
    for (&id, spec) in &fleet.specs {
        backend.register_empty(id, Arc::clone(spec), Nanos::ZERO);
    }
    let mut producer = backend.producer();
    let t0 = std::time::Instant::now();
    for event in &fleet.events {
        producer.observe(*event);
    }
    producer.flush();
    let ingest = t0.elapsed();
    // checkpoint_window() is a barrier for everything flushed above
    // (per-shard FIFO), so the collector and counters are quiescent
    // afterwards.
    let mut report = backend.checkpoint_window(fleet.end_time, &fleet.events, &fleet.snapshots);
    let total = t0.elapsed();
    report.violations.extend(backend.drain_violations());
    let stats = backend.stats();
    (report, stats, FleetTiming { ingest, total })
}

/// Drives a [`FleetTrace`] through a backend with **`producers`
/// concurrent threads**, each owning its own
/// [`rmon_core::detect::ProducerHandle`]. Monitors are partitioned
/// round-robin across the producers, so each monitor's whole stream
/// stays on one thread (preserving the per-caller ordering
/// precondition) while the threads' batches interleave freely at the
/// shards — the multi-producer ingestion front-end under test.
///
/// `ingest` in the returned timing is the wall time from the first
/// observe until every producer thread has flushed and joined.
pub fn drive_fleet_multi(
    fleet: &FleetTrace,
    backend: &dyn DetectionBackend,
    producers: usize,
) -> (FaultReport, ServiceStats, FleetTiming) {
    let producers = producers.max(1);
    for (&id, spec) in &fleet.specs {
        backend.register_empty(id, Arc::clone(spec), Nanos::ZERO);
    }
    let streams: Vec<Vec<Event>> = {
        let mut streams = vec![Vec::new(); producers];
        for event in &fleet.events {
            streams[event.monitor.index() as usize % producers].push(*event);
        }
        streams
    };
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for stream in &streams {
            scope.spawn(move || {
                let mut producer = backend.producer();
                for event in stream {
                    producer.observe(*event);
                }
                producer.flush();
            });
        }
    });
    let ingest = t0.elapsed();
    let mut report = backend.checkpoint_window(fleet.end_time, &fleet.events, &fleet.snapshots);
    let total = t0.elapsed();
    report.violations.extend(backend.drain_violations());
    let stats = backend.stats();
    (report, stats, FleetTiming { ingest, total })
}

/// Drives a [`FleetTrace`] through a backend using **per-shard scoped
/// checkpoints** instead of one caller-drained window: the fleet's
/// gated [`SnapshotTable`] is registered as the backend's
/// [`SnapshotProvider`], the stream is ingested through one handle,
/// and the final verdict is assembled by sweeping
/// [`CheckpointScope::Shard`] 0..`shards` — each sweep replaying that
/// shard's pending events and running the Algorithm-1/2 snapshot
/// comparison through the provider. No recorded window ever changes
/// hands; this is the ingestion-plus-sweeps shape an embedding runtime
/// with an asynchronous checkpointer has.
///
/// Equivalence with [`drive_fleet_backend`] (same violations, same
/// events checked) is the acceptance property of
/// `tests/checkpoint_equivalence.rs`.
pub fn drive_fleet_checkpointed(
    fleet: &FleetTrace,
    backend: &dyn DetectionBackend,
    shards: usize,
) -> (FaultReport, ServiceStats, FleetTiming) {
    for (&id, spec) in &fleet.specs {
        backend.register_empty(id, Arc::clone(spec), Nanos::ZERO);
    }
    backend.set_snapshot_provider(fleet.snapshot_table() as Arc<dyn SnapshotProvider>);
    let mut producer = backend.producer();
    let t0 = std::time::Instant::now();
    for event in &fleet.events {
        producer.observe(*event);
    }
    producer.flush();
    let ingest = t0.elapsed();
    let mut report = FaultReport::merged(
        (0..shards.max(1))
            .map(|shard| backend.checkpoint(CheckpointScope::Shard(shard), fleet.end_time)),
    );
    let total = t0.elapsed();
    report.violations.extend(backend.drain_violations());
    let stats = backend.stats();
    (report, stats, FleetTiming { ingest, total })
}

/// Drives a fleet of **real-thread** allocator monitors from
/// `threads` concurrent OS threads through one [`rmon_rt::Runtime`] —
/// the end-to-end exercise of the sharded recording pipeline: every
/// thread records through its own recorder segment and streams its
/// order-checked events through its own producer handle, with no lock
/// shared between the observing threads. Monitors are partitioned
/// round-robin across the threads (each monitor's traffic stays on one
/// thread, a clean single-holder workload), `rounds` request/release
/// pairs per monitor.
///
/// Returns the final checkpoint report (clean for this workload), the
/// backend's quiescent ingestion counters and the total events
/// recorded.
pub fn drive_rt_fleet(
    rt: &rmon_rt::Runtime,
    monitors: usize,
    threads: usize,
    rounds: usize,
) -> (FaultReport, ServiceStats, u64) {
    let monitors = monitors.max(1);
    let threads = threads.max(1);
    let allocators: Vec<rmon_rt::ResourceAllocator> = (0..monitors)
        .map(|i| rmon_rt::ResourceAllocator::new(rt, &format!("fleet{i}"), 1))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mine: Vec<&rmon_rt::ResourceAllocator> =
                allocators.iter().skip(t).step_by(threads).collect();
            scope.spawn(move || {
                for _ in 0..rounds {
                    for al in &mine {
                        al.request().expect("uncontended request");
                        al.release().expect("uncontended release");
                    }
                }
            });
        }
    });
    let report = rt.checkpoint_now();
    let stats = rt.service_stats();
    (report, stats, rt.events_recorded())
}

/// A tiny deterministic xorshift for seeded-schedule choices.
struct ScheduleRng(u64);

impl ScheduleRng {
    fn pick(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

#[derive(Clone, Copy, PartialEq)]
enum SchedPhase {
    NeedRequest,
    InRequest,
    NeedRelease,
    InRelease,
    Done,
}

/// The seeded-schedule driver behind the predictive-detection
/// campaign: a random single-unit-allocator window with the exact
/// event shapes the rt recorder emits. At most one process is inside
/// the monitor at a time; an entry attempt while it is busy records
/// `Enter { granted: false }` and queues (the window's only recorded
/// concurrency — see `rmon_core::detect::predict`), and the queue head
/// is admitted without a second `Enter` when the occupant exits. The
/// interleaving — and with it the amount of commutation freedom the
/// predictive pass gets to search — is a pure function of `seed`.
/// Event `l` has timestamp `10·l` ns.
pub fn seeded_allocator_schedule(
    procs: usize,
    cycles: usize,
    seed: u64,
) -> (rmon_core::spec::AllocatorSpec, Vec<Event>) {
    use std::collections::VecDeque;

    let al = MonitorSpec::allocator("res", 1);
    let monitor = MonitorId::new(0);
    let mut rng = ScheduleRng(seed | 1);
    let mut phase = vec![SchedPhase::NeedRequest; procs];
    let mut left = vec![cycles; procs];
    let mut blocked = vec![false; procs]; // a pending Enter{false} was recorded
    let mut occupant: Option<usize> = None;
    let mut eq: VecDeque<usize> = VecDeque::new();
    let mut events = Vec::new();
    let mut seq = 0u64;
    loop {
        let mut runnable: Vec<usize> = Vec::new();
        if let Some(p) = occupant {
            runnable.push(p);
        }
        for p in 0..procs {
            if matches!(phase[p], SchedPhase::NeedRequest | SchedPhase::NeedRelease) && !blocked[p]
            {
                runnable.push(p);
            }
        }
        if runnable.is_empty() {
            break;
        }
        let p = runnable[rng.pick(runnable.len())];
        seq += 1;
        let t = Nanos::new(seq * 10);
        let pid = Pid::new(p as u32 + 1);
        let admit = |eq: &mut VecDeque<usize>,
                     blocked: &mut [bool],
                     phase: &mut [SchedPhase]|
         -> Option<usize> {
            eq.pop_front().inspect(|&q| {
                blocked[q] = false;
                phase[q] = if phase[q] == SchedPhase::NeedRequest {
                    SchedPhase::InRequest
                } else {
                    SchedPhase::InRelease
                };
            })
        };
        match phase[p] {
            SchedPhase::NeedRequest | SchedPhase::NeedRelease => {
                let proc_name =
                    if phase[p] == SchedPhase::NeedRequest { al.request } else { al.release };
                if occupant.is_none() {
                    events.push(Event::enter(seq, t, monitor, pid, proc_name, true));
                    occupant = Some(p);
                    phase[p] = if phase[p] == SchedPhase::NeedRequest {
                        SchedPhase::InRequest
                    } else {
                        SchedPhase::InRelease
                    };
                } else {
                    events.push(Event::enter(seq, t, monitor, pid, proc_name, false));
                    eq.push_back(p);
                    blocked[p] = true;
                }
            }
            SchedPhase::InRequest => {
                events.push(Event::signal_exit(seq, t, monitor, pid, al.request, None, false));
                phase[p] = SchedPhase::NeedRelease;
                occupant = admit(&mut eq, &mut blocked, &mut phase);
            }
            SchedPhase::InRelease => {
                events.push(Event::signal_exit(seq, t, monitor, pid, al.release, None, false));
                left[p] -= 1;
                phase[p] = if left[p] == 0 { SchedPhase::Done } else { SchedPhase::NeedRequest };
                occupant = admit(&mut eq, &mut blocked, &mut phase);
            }
            SchedPhase::Done => unreachable!("done processes are never runnable"),
        }
    }
    (al, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::detect::{ScheduledBackend, SchedulerConfig, ServiceConfig, ShardedBackend};

    fn sharded(shards: usize, batch: usize) -> ShardedBackend {
        ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(shards))
            .with_batch(batch)
    }

    #[test]
    fn pc_trace_is_nonempty_and_consistent() {
        let t = pc_trace(5, 0);
        assert!(!t.events.is_empty());
        assert_eq!(t.final_state.available, t.spec.capacity);
        assert!(t.final_state.running.is_empty());
        // seq strictly increasing
        for w in t.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn seeded_allocator_schedule_is_complete_and_deterministic() {
        use rmon_core::EventKind;
        let (al, w) = seeded_allocator_schedule(3, 2, 42);
        let (_, again) = seeded_allocator_schedule(3, 2, 42);
        assert_eq!(w, again, "same seed, same schedule");
        // Every process finishes every cycle: each of its request and
        // release calls records exactly one Enter (granted or blocked)
        // and one SignalExit.
        assert_eq!(w.len(), 3 * 2 * 4);
        for (i, e) in w.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "dense seqs");
        }
        // A single process never contends.
        let (_, solo) = seeded_allocator_schedule(1, 3, 42);
        assert!(solo.iter().all(|e| !matches!(e.kind, EventKind::Enter { granted: false })));
        let _ = al;
    }

    #[test]
    fn window_sweep_meets_targets() {
        for (target, trace) in window_sweep(1) {
            assert!(trace.events.len() >= target, "{target}");
        }
    }

    #[test]
    fn fleet_trace_has_distinct_monitors_and_one_total_order() {
        let fleet = fleet_trace(8, 4, 7);
        assert_eq!(fleet.monitors(), 8);
        assert_eq!(fleet.snapshots.len(), 8);
        assert!(!fleet.events.is_empty());
        for w in fleet.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        let seen: std::collections::HashSet<_> = fleet.events.iter().map(|e| e.monitor).collect();
        assert_eq!(seen.len(), 8, "every monitor contributes events");
    }

    #[test]
    fn clean_fleet_is_clean_inline_and_sharded() {
        let fleet = fleet_trace(8, 3, 7);
        let (inline, _) = drive_inline_fleet(&fleet);
        assert!(inline.is_clean(), "{inline}");
        for shards in [1, 2, 4] {
            let (report, stats, _) = drive_fleet_backend(&fleet, &sharded(shards, 64));
            assert!(report.is_clean(), "shards={shards}: {report}");
            assert_eq!(report.events_checked, inline.events_checked, "shards={shards}");
            assert_eq!(stats.total_events(), fleet.events.len() as u64);
            assert_eq!(stats.shard_count(), shards);
        }
    }

    #[test]
    fn sharded_fleet_spreads_monitors_across_shards() {
        let fleet = fleet_trace(16, 2, 3);
        let (_, stats, _) = drive_fleet_backend(&fleet, &sharded(4, 32));
        assert_eq!(stats.shards.iter().map(|s| s.monitors).sum::<u64>(), 16);
        assert!(stats.active_shards() >= 2, "16 monitors must load ≥2 of 4 shards: {stats:?}");
    }

    #[test]
    fn allocator_fleet_is_deterministic_and_faulty() {
        let a = allocator_fleet_trace(6, 5, 3);
        let b = allocator_fleet_trace(6, 5, 3);
        assert_eq!(a.events, b.events, "same seed, same trace");
        assert_eq!(a.monitors(), 6);
        for w in a.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        let (report, _, _) = drive_fleet_backend(&a, &sharded(2, 64));
        assert!(!report.is_clean(), "the injected U1/U3 faults must be detected");
    }

    #[test]
    fn multi_producer_drive_matches_single_handle() {
        use rmon_core::detect::InlineBackend;
        let fleet = allocator_fleet_trace(8, 4, 1);
        let inline = InlineBackend::new(DetectorConfig::without_timeouts());
        let (want, _, _) = drive_fleet_backend(&fleet, &inline);
        let key = |v: &rmon_core::Violation| (v.monitor, v.pid, v.event_seq, v.rule);
        let mut want_v = want.violations.clone();
        want_v.sort_by_key(key);
        for producers in [2usize, 4] {
            let backend =
                ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(4))
                    .with_batch(7); // misaligned with the per-round event count
            let (got, stats, _) = drive_fleet_multi(&fleet, &backend, producers);
            let mut got_v = got.violations.clone();
            got_v.sort_by_key(key);
            assert_eq!(got_v, want_v, "{producers} producers");
            assert_eq!(stats.total_events(), fleet.events.len() as u64);
        }
    }

    #[test]
    fn rt_fleet_records_from_many_threads_and_stays_clean() {
        for (label, rt) in [
            ("inline", rmon_rt::Runtime::new(DetectorConfig::without_timeouts())),
            (
                "sharded+adaptive",
                rmon_rt::Runtime::builder(DetectorConfig::without_timeouts())
                    .backend_with(|cfg, _clock| {
                        Arc::new(
                            ShardedBackend::new(cfg, ServiceConfig::new(2))
                                .with_adaptive_batch(1, 32),
                        )
                    })
                    .build(),
            ),
        ] {
            let (report, stats, events) = drive_rt_fleet(&rt, 8, 4, 25);
            assert!(report.is_clean(), "{label}: {report}");
            assert!(rt.is_clean(), "{label}");
            // 8 monitors × 25 rounds × (request + release) × 2 events.
            assert_eq!(events, 8 * 25 * 4, "{label}");
            // Allocator events go through the real-time (order) path,
            // so the backend ingested every one of them.
            assert_eq!(stats.total_events(), events, "{label}");
        }
    }

    #[test]
    fn checkpointed_drive_matches_window_drive() {
        let key = |v: &rmon_core::Violation| (v.monitor, v.pid, v.event_seq, v.rule);
        // Faulty fleet (no snapshots: pure event-stream) and clean
        // fleet (with snapshots: the Algorithm-1/2 comparison path).
        for (label, fleet) in
            [("faulty", allocator_fleet_trace(8, 4, 3)), ("clean", fleet_trace(8, 3, 7))]
        {
            let window =
                ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(2));
            let (want, _, _) = drive_fleet_backend(&fleet, &window);
            let scoped =
                ShardedBackend::new(DetectorConfig::without_timeouts(), ServiceConfig::new(2));
            let (got, stats, _) = drive_fleet_checkpointed(&fleet, &scoped, 2);
            let mut want_v = want.violations.clone();
            let mut got_v = got.violations.clone();
            want_v.sort_by_key(key);
            got_v.sort_by_key(key);
            assert_eq!(got_v, want_v, "{label}");
            assert_eq!(got.events_checked, want.events_checked, "{label}");
            assert_eq!(stats.total_events(), fleet.events.len() as u64, "{label}");
        }
    }

    #[test]
    fn scheduled_fleet_matches_sharded_fleet() {
        let fleet = fleet_trace(8, 3, 7);
        let (want, _, _) = drive_fleet_backend(&fleet, &sharded(2, 64));
        let backend = ScheduledBackend::new(
            DetectorConfig::without_timeouts(),
            ServiceConfig::new(2),
            SchedulerConfig::default(),
        )
        .with_batch(64);
        let (scheduled, stats, _) = drive_fleet_backend(&fleet, &backend);
        assert_eq!(scheduled.events_checked, want.events_checked);
        assert_eq!(scheduled.violations, want.violations);
        assert_eq!(stats.total_events(), fleet.events.len() as u64);
    }
}
