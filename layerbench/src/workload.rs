//! The protocol every workload runs under: set up (inputs from the
//! seed, reference outputs, one warm-up repetition) several times and
//! report the median set-up time, then run timed repetitions on fresh
//! runtimes and backends until the measuring time is used, and reduce
//! each metric to the median over repetitions.
//!
//! Every repetition is **paired**: immediately before the measured
//! configuration it runs a reference configuration doing the same job
//! without the layer under test. `overhead_ratio` is the measured wall
//! in units of the reference's; a pair shares whatever the machine's
//! speed does meanwhile, so the ratio holds where the absolute times
//! beside it wander.
//!
//! The loop is closed: application threads and producer handles wait
//! for each call to return, which is how the paper's monitors and the
//! bounded shard inboxes are used. One thread generates load.

use crate::check::Checks;
use crate::span::{SpanId, Tracer};
use crate::stats::{summarize, Summary};
use std::time::{Duration, Instant};

/// Full size, or 1/50 of it for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Whether sizes are divided by 50.
    pub smoke: bool,
}

impl Scale {
    /// `full` at this scale.
    pub fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(1)
        } else {
            full
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed repetitions of an untraced run, however short the
/// measuring time: the issue's floor under R.
pub const MIN_REPETITIONS: usize = 15;
/// The same for each series, untraced and traced, of a traced run,
/// which has the probes to fit in as well.
pub const MIN_TRACED_REPETITIONS: usize = 5;

/// What one timed repetition hands back. The end-to-end metrics are
/// derived from these fields alike for every workload; each workload's
/// module says what the fields mean there.
#[derive(Debug)]
pub struct Repetition {
    /// Events offered to the checking side.
    pub events: u64,
    /// First event offered to last verdict in, checkpoints included.
    pub wall: Duration,
    /// Wall the producing (application) thread spent handing events
    /// over, checkpoints excluded.
    pub producer: Duration,
    /// Duration of every checkpoint round of the repetition.
    pub checkpoints_us: Vec<f64>,
    /// Wall the producing thread waited in checkpoints.
    pub checkpointing: Duration,
    /// Wall of everything the repetition's user waits for (`wall`, plus
    /// the journal replay on `remote_durable`).
    pub whole: Duration,
    /// Wall of the paired reference configuration doing the same job
    /// without the layer under test, run immediately before.
    pub reference: Duration,
    /// Measurements only this workload defines, `(name, unit, value)`:
    /// written to the run's detail and gated by `bench diff`, but not
    /// end-to-end metrics of the contract, which every workload must
    /// report alike.
    pub own: Vec<(&'static str, &'static str, f64)>,
    /// Output checks of the repetition.
    pub checks: Checks,
}

/// One of the benchmark's workloads.
pub trait Workload: Sized {
    /// What distinguishes the workloads sharing this implementation.
    type Input: Copy;

    /// Generates the inputs from `seed` and computes the reference
    /// outputs. Counted in `setup_s` together with one warm-up
    /// repetition.
    fn prepare(input: Self::Input, seed: u64, scale: Scale) -> Self;

    /// Runs repetition `n` on fresh runtimes/backends, with its layer
    /// calls as children of `root`.
    fn repetition(&mut self, tracer: &Tracer, root: SpanId, n: u32) -> Repetition;
}

/// A workload set up and warmed, with the time that took.
#[derive(Debug)]
pub struct Ready<W> {
    /// The workload, inputs generated and caches warm.
    pub workload: W,
    /// Median of the set-up times, warm-up repetition included.
    pub setup_s: f64,
    /// Checks of the warm-up repetitions.
    pub checks: Checks,
}

/// Sets the workload up [`SETUPS`] times and keeps the last.
pub fn set_up<W: Workload>(input: W::Input, seed: u64, scale: Scale) -> Ready<W> {
    let quiet = Tracer::new(false);
    let mut times = Vec::with_capacity(SETUPS);
    let mut checks = Checks::default();
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut workload = W::prepare(input, seed, scale);
        checks.absorb(workload.repetition(&quiet, None, 0).checks);
        times.push(start.elapsed().as_secs_f64());
        last = Some(workload);
    }
    Ready { workload: last.expect("SETUPS > 0"), setup_s: summarize(&times).median, checks }
}

/// A repetition as the harness saw it from outside.
#[derive(Debug)]
pub struct Timed {
    /// What the repetition measured.
    pub repetition: Repetition,
    /// Wall of its root span: construction and teardown included.
    pub wall: Duration,
    /// Peak resident set while it ran, in MiB.
    pub peak_rss_mib: f64,
}

/// Runs repetitions until `budget` is used, each under a
/// `harness.repetition` root span, taking the `tracers` in turn — so
/// that an untraced and a traced series share whatever the machine
/// does meanwhile. Returns one series per tracer, each of at least
/// `at_least` repetitions.
pub fn repeat<W: Workload, const N: usize>(
    workload: &mut W,
    tracers: [&Tracer; N],
    budget: Duration,
    at_least: usize,
) -> [Vec<Timed>; N] {
    let start = Instant::now();
    let mut out: [Vec<Timed>; N] = std::array::from_fn(|_| Vec::new());
    let mut n = 0;
    while n < at_least * N || start.elapsed() < budget {
        let tracer = tracers[n % N];
        reset_peak_rss();
        let (repetition, wall) = tracer.time("harness.repetition", None, n as u32, |root| {
            workload.repetition(tracer, root, n as u32)
        });
        out[n % N].push(Timed { repetition, wall, peak_rss_mib: peak_rss_mib() });
        n += 1;
    }
    out
}

/// Restarts the kernel's high-water mark of this process's resident
/// set, so that [`peak_rss_mib`] afterwards reads the peak of one
/// repetition, inputs held in memory included. One process-wide peak
/// is a single sample that one unlucky buffer doubling decides; a peak
/// per repetition has a median. Where the kernel refuses the write the
/// mark keeps rising and every repetition reads the peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// A name, a unit and the samples' summary.
pub type Reduced = (&'static str, &'static str, Summary);

fn per(timed: &[Timed], f: impl Fn(&Repetition) -> f64) -> Summary {
    summarize(&timed.iter().map(|t| f(&t.repetition)).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run's repetitions, in `BENCHMARK.json`
/// order without `setup_s`: what the workload did per second and per
/// event on this machine, what the layer under test costs in units of
/// the paired reference's wall (`overhead_ratio`, which the machine's
/// speed cancels out of), and the memory it took.
pub fn end_to_end(timed: &[Timed]) -> [Reduced; 5] {
    let checkpoints: Vec<f64> =
        timed.iter().flat_map(|t| t.repetition.checkpoints_us.iter().copied()).collect();
    let peaks: Vec<f64> = timed.iter().map(|t| t.peak_rss_mib).collect();
    [
        ("events_per_s", "1/s", per(timed, |r| r.events as f64 / r.wall.as_secs_f64())),
        (
            "producer_ns_per_event",
            "ns",
            per(timed, |r| r.producer.as_nanos() as f64 / r.events as f64),
        ),
        ("checkpoint_us", "us", summarize(&checkpoints)),
        ("overhead_ratio", "x", per(timed, |r| r.whole.as_secs_f64() / r.reference.as_secs_f64())),
        ("peak_rss_mb", "MiB", summarize(&peaks)),
    ]
}

/// The measurements only this workload defines, each reduced over the
/// repetitions, in the order the first repetition lists them.
pub fn own_metrics(timed: &[Timed]) -> Vec<Reduced> {
    let Some(first) = timed.first() else { return Vec::new() };
    first
        .repetition
        .own
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| (name, unit, per(timed, |r| r.own[i].2)))
        .collect()
}

/// How `overhead_ratio` splits, for the per-layer report of a traced
/// run: the parts charged to the producing thread and waited for in
/// checkpoints, in units of the reference's wall, and that wall.
pub fn decomposition(timed: &[Timed]) -> [Reduced; 3] {
    let in_reference_walls = |part: fn(&Repetition) -> Duration| {
        per(timed, |r| part(r).as_secs_f64() / r.reference.as_secs_f64())
    };
    [
        ("workload.producer_ratio", "x", in_reference_walls(|r| r.producer)),
        ("workload.checkpoint_ratio", "x", in_reference_walls(|r| r.checkpointing)),
        ("workload.reference_ms", "ms", per(timed, |r| r.reference.as_secs_f64() * 1e3)),
    ]
}

/// Folds the repetitions' checks.
pub fn checks_of(timed: &[Timed]) -> Checks {
    let mut checks = Checks::default();
    for t in timed {
        checks.absorb(t.repetition.checks);
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose numbers are known: 1000 events, 2 ms wall.
    struct Fixed(u32);

    impl Workload for Fixed {
        type Input = ();

        fn prepare((): (), _seed: u64, _scale: Scale) -> Self {
            Fixed(0)
        }

        fn repetition(&mut self, _tracer: &Tracer, _root: SpanId, _n: u32) -> Repetition {
            self.0 += 1;
            Repetition {
                events: 1000,
                wall: Duration::from_millis(2),
                producer: Duration::from_micros(500),
                checkpoints_us: vec![10.0, 30.0],
                checkpointing: Duration::from_micros(1500),
                whole: Duration::from_millis(3),
                reference: Duration::from_millis(1),
                own: vec![("bytes", "B", 30.0 + f64::from(self.0))],
                checks: Checks { attempted: 1000, failed: 0 },
            }
        }
    }

    #[test]
    fn metrics_follow_their_definitions() {
        let mut w = Fixed(0);
        let tracer = Tracer::new(true);
        const FLOOR: usize = 5;
        let [reps] = repeat(&mut w, [&tracer], Duration::ZERO, FLOOR);
        assert_eq!(reps.len(), FLOOR);
        let m = end_to_end(&reps);
        assert_eq!((m[0].0, m[0].2.median), ("events_per_s", 500_000.0));
        assert_eq!((m[1].0, m[1].2.median), ("producer_ns_per_event", 500.0));
        assert_eq!((m[2].0, m[2].2.median, m[2].2.n), ("checkpoint_us", 20.0, 2 * FLOOR));
        assert_eq!((m[3].0, m[3].2.median), ("overhead_ratio", 3.0));
        assert!(m[4].0 == "peak_rss_mb" && m[4].2.median > 0.0);
        let d = decomposition(&reps);
        assert_eq!((d[0].0, d[0].2.median), ("workload.producer_ratio", 0.5));
        assert_eq!((d[1].0, d[1].2.median), ("workload.checkpoint_ratio", 1.5));
        assert_eq!((d[2].0, d[2].2.median), ("workload.reference_ms", 1.0));
        // Repetitions 1..=5 reported 31..=35.
        assert_eq!(
            own_metrics(&reps),
            [("bytes", "B", summarize(&[31.0, 32.0, 33.0, 34.0, 35.0]))]
        );
        assert_eq!(checks_of(&reps).attempted, 1000 * FLOOR as u64);
        // One root span per repetition, numbered consecutively.
        let spans = tracer.finish();
        assert_eq!(spans.len(), FLOOR);
        assert_eq!(spans[2].repetition, 2);

        // Two tracers take turns.
        let (off, on) = (Tracer::new(false), Tracer::new(true));
        let [untraced, traced] = repeat(&mut w, [&off, &on], Duration::ZERO, FLOOR);
        assert_eq!((untraced.len(), traced.len()), (FLOOR, FLOOR));
        let numbers: Vec<u32> = on.finish().iter().map(|s| s.repetition).collect();
        assert_eq!(numbers, [1, 3, 5, 7, 9]);
    }

    #[test]
    fn set_up_warms_once_per_set_up() {
        let ready = set_up::<Fixed>((), 1, Scale { smoke: true });
        assert_eq!(ready.workload.0, 1, "the kept workload ran its one warm-up");
        assert_eq!(ready.checks.attempted, 1000 * SETUPS as u64);
        assert!(ready.setup_s >= 0.0);
    }

    #[test]
    fn smoke_scale_divides_by_fifty() {
        assert_eq!(Scale { smoke: true }.of(2000), 40);
        assert_eq!(Scale { smoke: true }.of(10), 1);
        assert_eq!(Scale { smoke: false }.of(2000), 2000);
    }
}
