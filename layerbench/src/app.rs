//! `app_overhead`: the paper's Table 1 setting, live. One application
//! thread alternates `send`/`receive` on a capacity-64
//! [`BoundedBuffer`] under a [`Runtime`], while a checker thread owned
//! by the benchmark calls [`Runtime::checkpoint_now`] once per
//! [`WINDOW_OPS`] operations and times each call: that long, every
//! monitor is suspended.
//!
//! Each repetition is paired with the same operations on an
//! uninstrumented [`HandoffBuffer`], run immediately before it.

use crate::check::Checks;
use crate::span::{SpanId, Tracer};
use crate::workload::{Repetition, Scale, Workload};
use rmon_core::{DetectorConfig, Nanos};
use rmon_rt::overhead::HandoffBuffer;
use rmon_rt::{BoundedBuffer, Runtime, RuntimeBuilder};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Monitor operations (one `send` or one `receive`) per repetition.
pub const OPS: usize = 1_000_000;
/// Buffer capacity: the alternating thread never blocks on it.
pub const CAPACITY: usize = 64;
/// Operations between checkpoints: what one application thread
/// completes in about 25 ms at the seed (Table 1's 0.5 paper-second row
/// at the repo's 50 ms scale), counted instead of timed. A wall
/// interval makes the window as large as the machine is fast, and the
/// cost of checking a window is not smooth in its size: the drained
/// window's buffer grows by doubling, and just above 262 144 events it
/// crosses the allocator's 32 MiB mmap ceiling (a 25 ms window checked
/// in 25 or in 60 ms depending on which side it fell; the README's
/// cliff register has the numbers). Counted, every window is 200 000
/// events on any machine — the application thread tells the checker
/// thread when it is time — and the measurement no longer depends on
/// where this container's speed puts the edge.
pub const WINDOW_OPS: usize = 100_000;
/// The uninstrumented reference runs this many times the operations
/// (and its wall is divided by it): at 42 ns an operation, a million
/// take 42 ms, too short to average out the container's speed wander.
pub const PLAIN_FACTOR: usize = 4;

/// A runtime builder with timers far beyond any repetition: the
/// workload is correct, and a checkpoint pause must not read as
/// starvation.
pub fn runtime() -> RuntimeBuilder {
    // The runtime's own checker is never started (`spawn_checker`);
    // its interval only has to be a valid one.
    let cfg = DetectorConfig::builder()
        .t_max(Nanos::from_secs(60))
        .t_io(Nanos::from_secs(60))
        .t_limit(Nanos::from_secs(60))
        .check_interval(Nanos::from_secs(60))
        .build();
    Runtime::builder(cfg).park_timeout(Duration::from_secs(30))
}

/// `ops` operations on the uninstrumented hand-off buffer. Returns the
/// wall time and how many operations returned a wrong value.
pub fn plain(ops: usize) -> (Duration, u64) {
    let buf = HandoffBuffer::new(CAPACITY);
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut wrong = 0u64;
                let start = Instant::now();
                for i in 0..(ops / 2) as u64 {
                    buf.send(black_box(i));
                    wrong += u64::from(black_box(buf.receive()) != i);
                }
                (start.elapsed(), wrong)
            })
            .join()
            .expect("application thread")
    })
}

/// What one instrumented run measured.
#[derive(Debug)]
pub struct Run {
    /// Operations run.
    pub ops: usize,
    /// First operation to last operation returned.
    pub ops_wall: Duration,
    /// `ops_wall` plus the closing checkpoint: last verdict in.
    pub wall: Duration,
    /// Duration of every `checkpoint_now()`, the closing one last.
    pub pauses_us: Vec<f64>,
    /// How long checkpoints kept the monitor suspended while the
    /// application thread was still operating.
    pub paused_during_ops: Duration,
    /// Events each checkpoint reported having checked.
    pub window_events: Vec<u64>,
    /// Events the recorder stamped.
    pub events: u64,
    /// Operations that returned `Err` or a wrong value.
    pub failed_ops: u64,
    /// Whether every checkpoint report and the runtime stayed clean
    /// and no journal append failed.
    pub clean: bool,
}

/// When the checker thread checkpoints while the operations run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Not at all: events are only recorded.
    Never,
    /// Each time the application thread has completed this many more
    /// operations.
    EveryOps(usize),
    /// Each time this much wall time has passed: Table 1's own axis.
    Every(Duration),
}

/// Runs `ops` operations on a [`BoundedBuffer`] of `rt` from one
/// application thread while a checker thread checkpoints at `cadence`.
/// One closing checkpoint drains the last window.
pub fn instrumented(
    rt: &Runtime,
    ops: usize,
    cadence: Cadence,
    tracer: &Tracer,
    parent: SpanId,
    n: u32,
) -> Run {
    let buf: BoundedBuffer<u64> = BoundedBuffer::new(rt, "bench", CAPACITY);
    let mut pauses: Vec<(Instant, Duration)> = Vec::new();
    let mut window_events = Vec::new();
    let mut clean = true;
    let mut checkpoint = |parent: SpanId| {
        let began = Instant::now();
        let (report, took) = tracer.time("rt.checkpoint_now", parent, n, |_| rt.checkpoint_now());
        pauses.push((began, took));
        window_events.push(report.events_checked);
        clean &= report.is_clean();
    };
    let start = Instant::now();
    let ((failed_ops, ops_began, ops_wall), _) =
        tracer.time("rt.operations", parent, n, |ops_span| {
            std::thread::scope(|scope| {
                // A message is a window completed; the channel closing,
                // the last operation returned.
                let (tick, ticks) = mpsc::channel::<()>();
                let checkpoint = &mut checkpoint;
                let checker = scope.spawn(move || {
                    crate::affinity::workers();
                    loop {
                        let due = match cadence {
                            Cadence::Every(interval) => ticks.recv_timeout(interval),
                            _ => ticks.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                        };
                        match due {
                            Ok(()) | Err(mpsc::RecvTimeoutError::Timeout) => checkpoint(ops_span),
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                });
                let app = scope.spawn(move || {
                    let pairs = (ops / 2) as u64;
                    let window = match cadence {
                        Cadence::EveryOps(window) => (window as u64 / 2).max(1),
                        _ => pairs.max(1),
                    };
                    let mut failed = 0u64;
                    let began = Instant::now();
                    let mut next = 0;
                    while next < pairs {
                        let end = (next + window).min(pairs);
                        for i in next..end {
                            failed += u64::from(buf.send(black_box(i)).is_err());
                            let got = black_box(buf.receive());
                            failed += u64::from(!matches!(got, Ok(Some(v)) if v == i));
                        }
                        next = end;
                        // The last window is the closing checkpoint's.
                        if next < pairs {
                            tick.send(()).expect("the checker outlives the operations");
                        }
                    }
                    (failed, began, began.elapsed())
                });
                let measured = app.join().expect("application thread");
                checker.join().expect("checker thread");
                measured
            })
        });
    checkpoint(parent);
    let wall = start.elapsed();
    clean &= rt.is_clean() && rt.journal_errors() == 0;
    // A pause still running when the last operation returned suspended
    // the application only up to that point.
    let ops_ended = ops_began + ops_wall;
    let paused_during_ops = pauses
        .iter()
        .map(|&(began, took)| (began + took).min(ops_ended).saturating_duration_since(began))
        .sum();
    Run {
        ops,
        ops_wall,
        wall,
        paused_during_ops,
        pauses_us: pauses.iter().map(|(_, took)| took.as_secs_f64() * 1e6).collect(),
        window_events,
        events: rt.events_recorded(),
        failed_ops,
        clean,
    }
}

/// The `app_overhead` workload.
#[derive(Debug)]
pub struct App {
    ops: usize,
    window: usize,
}

impl Workload for App {
    type Input = ();

    fn prepare((): (), _seed: u64, scale: Scale) -> Self {
        // No generated input: the operations are the workload. The
        // seed has nothing to reach.
        App { ops: scale.of(OPS), window: scale.of(WINDOW_OPS) }
    }

    /// `whole` = `wall` runs to the closing checkpoint's verdict, so
    /// every repetition checks every event and `whole` ÷ `reference`
    /// is Table 1's ratio with the last window's check included:
    /// time with the extension ÷ without. It splits into
    /// `checkpointing`, every pause (all monitor operations are
    /// suspended while one runs), and `producer`, the application
    /// thread's time outside pauses.
    fn repetition(&mut self, tracer: &Tracer, root: SpanId, n: u32) -> Repetition {
        let ((plain_wall, wrong), _) =
            tracer.time("rt.plain_operations", root, n, |_| plain(self.ops * PLAIN_FACTOR));
        let (rt, _) = tracer.time("rt.construct", root, n, |_| runtime().build());
        let cadence = Cadence::EveryOps(self.window);
        let run = instrumented(&rt, self.ops, cadence, tracer, root, n);
        tracer.time("rt.drop", root, n, |_| drop(rt));

        let ops = self.ops as u64;
        let mut checks = Checks::default();
        checks.operations("plain operations", ops * PLAIN_FACTOR as u64, wrong);
        checks.operations("monitor operations", ops, run.failed_ops);
        checks.lossless("events recorded and checked", run.events, run.window_events.iter().sum());
        checks.require("runtime clean, journal intact", run.clean);
        Repetition {
            events: run.events,
            wall: run.wall,
            producer: run.ops_wall.saturating_sub(run.paused_during_ops),
            checkpointing: Duration::from_secs_f64(run.pauses_us.iter().sum::<f64>() / 1e6),
            checkpoints_us: run.pauses_us,
            whole: run.wall,
            reference: plain_wall / PLAIN_FACTOR as u32,
            own: Vec::new(),
            checks,
        }
    }
}
