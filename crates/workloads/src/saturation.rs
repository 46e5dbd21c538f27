//! Saturation workload: **many concurrent producer threads** against
//! one detection backend — a lossless stress of the multi-producer
//! ingestion front-end.
//!
//! Every producer thread owns one single-unit allocator monitor and
//! streams a clean request/release loop through its own
//! [`ProducerHandle`](rmon_core::detect::ProducerHandle), with far more
//! producers than shard workers, so handles meet full bounded inboxes
//! and block in their hand-offs. Every backend flavour takes the same
//! path here: the handles are the same buffered handles whatever the
//! monitor's [`Mode`](rmon_core::Mode), which only an embedding
//! runtime's record path applies.
//!
//! The report separates the two costs the paper's overhead evaluation
//! cares about: the **producer-side** wall time (what instrumentation
//! charges the monitored program — [`SaturationReport::ingest`] and
//! [`SaturationReport::slowest_producer`]) from the **end-to-end** time
//! until every verdict is in ([`SaturationReport::total`]). Both ends
//! assert losslessness: after the closing barrier the backend must have
//! ingested exactly the events the producers offered.

use rmon_core::detect::{CheckpointScope, DetectionBackend};
use rmon_core::{Event, MonitorId, MonitorSpec, Nanos, Pid};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shape of one saturation run.
#[derive(Debug, Clone, Copy)]
pub struct SaturationConfig {
    /// Concurrent producer threads, each owning one monitor and one
    /// producer handle. The acceptance scale is ≥ 1000.
    pub producers: usize,
    /// Clean request/release rounds per producer (4 events each).
    pub rounds: usize,
}

impl Default for SaturationConfig {
    fn default() -> Self {
        SaturationConfig { producers: 1000, rounds: 4 }
    }
}

impl SaturationConfig {
    /// Events the whole run offers to the backend.
    pub fn events(&self) -> u64 {
        (self.producers.max(1) * self.rounds.max(1) * 4) as u64
    }
}

/// Outcome of one saturation run.
#[derive(Debug, Clone, Copy)]
pub struct SaturationReport {
    /// Events offered through producer handles.
    pub produced: u64,
    /// Events the backend had ingested after the closing barrier.
    pub ingested: u64,
    /// Wall time from the first observe until every producer thread
    /// flushed and joined — the aggregate producer-side cost.
    pub ingest: Duration,
    /// The slowest single producer's **observe-loop** wall time: the
    /// worst case of what instrumentation charged a monitored thread's
    /// event path. The closing `flush()` is thread teardown, not a
    /// per-event charge, and is excluded here (it still counts toward
    /// [`SaturationReport::ingest`]). The blocking hand-off happens
    /// *inside* `observe` whenever a filled batch meets a full shard
    /// inbox, so this is where a stall surfaces.
    pub slowest_producer: Duration,
    /// Ingest plus the closing checkpoint barrier — until every
    /// verdict is in.
    pub total: Duration,
    /// Whether the run surfaced no violation (the workload is clean by
    /// construction, so anything else is a detector or delivery bug).
    pub clean: bool,
}

impl SaturationReport {
    /// Whether every offered event reached the backend.
    pub fn lossless(&self) -> bool {
        self.ingested == self.produced
    }
}

/// The clean per-producer stream: `rounds` request/release rounds on
/// producer `i`'s own allocator monitor, seqs drawn from a disjoint
/// per-producer range so the merged log still has unique ids.
fn producer_stream(i: usize, rounds: usize) -> (MonitorId, Arc<MonitorSpec>, Vec<Event>) {
    let al = MonitorSpec::allocator(format!("sat{i}"), 1);
    let id = MonitorId::new(i as u32);
    let pid = Pid::new(i as u32 + 1);
    let mut events = Vec::with_capacity(rounds * 4);
    let base = (i * rounds * 4) as u64;
    let mut seq = base;
    let mut push = |e: Event| {
        events.push(e);
    };
    for _ in 0..rounds {
        for (proc_name, kind) in
            [(al.request, 0), (al.request, 1), (al.release, 0), (al.release, 1)]
        {
            seq += 1;
            let t = Nanos::new(seq * 10);
            push(if kind == 0 {
                Event::enter(seq, t, id, pid, proc_name, true)
            } else {
                Event::signal_exit(seq, t, id, pid, proc_name, None, false)
            });
        }
    }
    (id, Arc::new(al.spec.clone()), events)
}

/// Runs the saturation workload against `backend`: registers one
/// allocator monitor per producer, spawns `cfg.producers` scoped
/// threads each streaming its clean rounds through its own handle,
/// joins, then closes with a [`CheckpointScope::All`] barrier and the
/// violation drain.
///
/// The backend decides what "observe" costs: a producer whose filled
/// batch meets a full shard inbox blocks until the shard takes it.
pub fn run_saturation(backend: &dyn DetectionBackend, cfg: &SaturationConfig) -> SaturationReport {
    let producers = cfg.producers.max(1);
    let rounds = cfg.rounds.max(1);
    let streams: Vec<(MonitorId, Arc<MonitorSpec>, Vec<Event>)> =
        (0..producers).map(|i| producer_stream(i, rounds)).collect();
    for (id, spec, _) in &streams {
        backend.register_empty(*id, Arc::clone(spec), Nanos::ZERO);
    }
    let produced = cfg.events();
    let end_time = Nanos::new((produced + 1) * 10);
    let slowest = Mutex::new(Duration::ZERO);
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (_, _, events) in &streams {
            let slowest = &slowest;
            scope.spawn(move || {
                let p0 = std::time::Instant::now();
                let mut producer = backend.producer();
                for event in events {
                    producer.observe(*event);
                }
                // Time the observe loop only: the flush below is
                // teardown, a cost the monitored thread's event path
                // never pays.
                let took = p0.elapsed();
                producer.flush();
                let mut max = slowest.lock().unwrap_or_else(|p| p.into_inner());
                if took > *max {
                    *max = took;
                }
            });
        }
    });
    let ingest = t0.elapsed();
    let report = backend.checkpoint(CheckpointScope::All, end_time);
    let violations = backend.drain_violations();
    let total = t0.elapsed();
    let stats = backend.stats();
    let slowest_producer = *slowest.lock().unwrap_or_else(|p| p.into_inner());
    SaturationReport {
        produced,
        ingested: stats.total_events(),
        ingest,
        slowest_producer,
        total,
        clean: report.is_clean() && violations.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::detect::{AsyncBackend, ServiceConfig, ShardedBackend};
    use rmon_core::{DetectorConfig, Mode};

    fn cfg(mode: Mode) -> DetectorConfig {
        DetectorConfig { mode, ..DetectorConfig::without_timeouts() }
    }

    #[test]
    fn async_saturation_is_lossless_and_clean() {
        let backend = AsyncBackend::new(cfg(Mode::Async), ServiceConfig::new(2)).with_batch(8);
        let sat = SaturationConfig { producers: 64, rounds: 2 };
        let report = run_saturation(&backend, &sat);
        assert_eq!(report.produced, sat.events());
        assert!(report.lossless(), "{report:?}");
        assert!(report.clean, "{report:?}");
    }

    #[test]
    fn sync_saturation_is_lossless_and_clean() {
        let backend = ShardedBackend::new(cfg(Mode::Sync), ServiceConfig::new(2)).with_batch(8);
        let sat = SaturationConfig { producers: 32, rounds: 2 };
        let report = run_saturation(&backend, &sat);
        assert!(report.lossless(), "{report:?}");
        assert!(report.clean, "{report:?}");
    }

    #[test]
    fn hybrid_saturation_is_lossless_and_clean() {
        let backend =
            AsyncBackend::new(cfg(Mode::Hybrid(Nanos::from_micros(100))), ServiceConfig::new(2))
                .with_batch(8);
        let sat = SaturationConfig { producers: 48, rounds: 2 };
        let report = run_saturation(&backend, &sat);
        assert!(report.lossless(), "{report:?}");
        assert!(report.clean, "{report:?}");
    }

    #[test]
    fn per_producer_streams_are_disjoint() {
        let (id_a, _, a) = producer_stream(0, 3);
        let (id_b, _, b) = producer_stream(1, 3);
        assert_ne!(id_a, id_b);
        let mut seqs: Vec<u64> = a.iter().chain(&b).map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), a.len() + b.len(), "seq ranges must not collide");
    }
}
