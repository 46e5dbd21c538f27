//! One run of one workload: what the benchmark's command executes.
//!
//! With tracing off the run measures the end-to-end metrics. With
//! tracing on it repeats the workload untraced and traced (the
//! difference is the tracing overhead), writes the trace file, runs
//! the layer probes and reports the per-layer metrics. End-to-end
//! numbers never come from traced repetitions.

use crate::app::App;
use crate::check::Checks;
use crate::fleet::{Fleet, Kind};
use crate::json;
use crate::probes;
use crate::remote::Remote;
use crate::span::{self_times, write_chrome_trace, Span, Tracer};
use crate::stats::{summarize, Summary};
use crate::workload::{
    checks_of, decomposition, end_to_end, own_metrics, repeat, set_up, Reduced, Scale, Timed,
    Workload, MIN_REPETITIONS, MIN_TRACED_REPETITIONS,
};
use std::fmt::Write as _;
use std::time::Duration;

/// Measuring time of one run, `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 25.0;

/// Seed when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["app_overhead", "fleet_clean", "fleet_faulty", "remote_durable"];

/// Layers a workload's spans are charged to, in event-life order, and
/// last the harness's own spanned work (output checks).
pub const SPAN_LAYERS: [&str; 6] = ["rt", "backend", "engine", "net", "storage", "harness"];

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the input generators.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Whether to trace (per-layer metrics) or not (end-to-end).
    pub trace: bool,
    /// 1/50 size.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed there.
    pub unit: &'static str,
    /// The value (median) and its spread over samples.
    pub summary: Summary,
}

impl Metric {
    /// A metric reduced from samples.
    pub fn of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        Metric { name: name.into(), unit, summary: summarize(samples) }
    }

    /// A metric that is one number: a count, a difference of medians.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::of(name, unit, &[value])
    }
}

impl From<Reduced> for Metric {
    fn from((name, unit, summary): Reduced) -> Self {
        Metric { name: name.into(), unit, summary }
    }
}

/// What one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The options the run was made with.
    pub options: Options,
    /// Checks of set-up and every repetition.
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced):
    /// the contract's.
    pub metrics: Vec<Metric>,
    /// What only this workload measures (untraced runs): in the detail,
    /// not in the contract's result line.
    pub own: Vec<Metric>,
}

/// Runs `options.workload`; `None` for an unknown name.
pub fn run(options: &Options) -> Option<Outcome> {
    let (checks, metrics, own) = match options.workload.as_str() {
        "app_overhead" => measure::<App>((), options),
        "fleet_clean" => measure::<Fleet>(Kind::Clean, options),
        "fleet_faulty" => measure::<Fleet>(Kind::Faulty, options),
        "remote_durable" => measure::<Remote>((), options),
        _ => return None,
    };
    Some(Outcome { options: options.clone(), checks, metrics, own })
}

fn measure<W: Workload>(input: W::Input, options: &Options) -> (Checks, Vec<Metric>, Vec<Metric>) {
    crate::affinity::load_generator();
    let scale = Scale { smoke: options.smoke };
    let ready = set_up::<W>(input, options.seed, scale);
    let mut workload = ready.workload;
    let mut checks = ready.checks;
    let budget = Duration::from_secs_f64(options.seconds);
    let mut metrics = Vec::new();
    let mut workload_own = Vec::new();
    if options.trace {
        // Two fifths of the time for the workload, untraced and traced
        // repetitions taking turns; as much again for the probes this
        // workload owns; the rest is about what one sample of each of
        // the others takes.
        let (off, on) = (Tracer::new(false), Tracer::new(true));
        let [untraced, traced] =
            repeat(&mut workload, [&off, &on], budget.mul_f64(0.4), MIN_TRACED_REPETITIONS);
        let spans = on.finish();
        let median_wall = |reps: &[Timed]| {
            summarize(&reps.iter().map(|t| t.wall.as_secs_f64()).collect::<Vec<_>>()).median
        };
        metrics.push(Metric::single(
            "trace.overhead_share",
            "share",
            median_wall(&traced) / median_wall(&untraced) - 1.0,
        ));
        metrics.extend(layer_shares(&spans));
        metrics.extend(decomposition(&untraced).map(Metric::from));
        let path = crate::out_dir().join(format!("trace-{}.json", options.workload));
        std::fs::create_dir_all(crate::out_dir())
            .and_then(|()| write_chrome_trace(&path, &options.workload, &spans))
            .expect("write the trace file under layerbench/out");
        eprintln!("trace: {} spans in {}", spans.len(), path.display());
        checks.absorb(checks_of(&untraced));
        checks.absorb(checks_of(&traced));
        metrics.extend(probes::all(
            &options.workload,
            options.seed,
            scale,
            budget.mul_f64(0.4),
            &mut checks,
        ));
    } else {
        let [repetitions] = repeat(&mut workload, [&Tracer::new(false)], budget, MIN_REPETITIONS);
        checks.absorb(checks_of(&repetitions));
        metrics.push(Metric::single("setup_s", "s", ready.setup_s));
        metrics.extend(end_to_end(&repetitions).map(Metric::from));
        workload_own.extend(own_metrics(&repetitions).into_iter().map(Metric::from));
    }
    (checks, metrics, workload_own)
}

/// Self time per layer as a share of the repetitions' wall, and the
/// share no span below the root covers (`reconcile.gap_share`): the
/// root spans' own self time.
fn layer_shares(spans: &[Span]) -> Vec<Metric> {
    let selfs = self_times(spans);
    let share_of = |pick: &dyn Fn(&Span) -> bool| -> f64 {
        let picked: u64 = spans.iter().zip(&selfs).filter(|(s, _)| pick(s)).map(|(_, t)| t).sum();
        let wall: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
        picked as f64 / wall as f64
    };
    let mut out: Vec<Metric> = SPAN_LAYERS
        .iter()
        .map(|&layer| {
            Metric::single(
                format!("trace.{layer}.self_share"),
                "share",
                share_of(&|s| s.layer() == layer && s.parent.is_some()),
            )
        })
        .collect();
    out.push(Metric::single("reconcile.gap_share", "share", share_of(&|s| s.parent.is_none())));
    out
}

impl Outcome {
    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, each metric with its value
    /// as measured and its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(&m.name),
                    m.summary.median,
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The run as one JSON object with everything known about each
    /// metric — what `--out` writes and `bench diff` reads.
    pub fn detail(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"smoke\": {}, \"hardware_threads\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{",
            json::escape(&o.workload),
            o.seed,
            o.seconds,
            u8::from(o.trace),
            o.smoke,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.checks.attempted,
            self.checks.failed,
        );
        for (i, m) in self.metrics.iter().chain(&self.own).enumerate() {
            let s = &m.summary;
            let tail = s.tail.map_or("null".to_string(), |(p, v)| format!("[{p}, {v}]"));
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \
                 \"n\": {}, \"tail\": {tail}}}",
                if i == 0 { "" } else { ", " },
                json::escape(&m.name),
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.n,
            );
        }
        out.push_str("}}");
        out
    }

    /// One line per metric for people: value, quartiles, sample count
    /// and the tail percentile the sample count supports.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.own) {
            let s = &m.summary;
            let _ = write!(
                out,
                "{:<40} {:>16.4} {:<6} q1 {:<14.4} q3 {:<14.4} n {:<6}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
            if let Some((p, v)) = s.tail {
                let _ = write!(out, " p{p} {v:.4}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, repetition: 0, thread: 0 }
    }

    #[test]
    fn layer_shares_and_gap_add_up_to_the_wall() {
        let spans = [
            span("harness.repetition", 0, 1000, None),
            span("backend.observe_flush", 100, 500, Some(0)),
            span("engine.reference.observe", 500, 900, Some(0)),
            span("harness.repetition", 1000, 2000, None),
            span("backend.observe_flush", 1000, 1700, Some(3)),
            span("harness.check", 1700, 1800, Some(3)),
        ];
        let shares = layer_shares(&spans);
        let get = |name: &str| shares.iter().find(|m| m.name == name).unwrap().summary.median;
        assert_eq!(get("trace.backend.self_share"), 0.55);
        assert_eq!(get("trace.harness.self_share"), 0.05);
        assert_eq!(get("trace.engine.self_share"), 0.2);
        assert_eq!(get("trace.rt.self_share"), 0.0);
        assert_eq!(get("reconcile.gap_share"), 0.2);
        assert_eq!(shares.len(), SPAN_LAYERS.len() + 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            options: Options {
                workload: "fleet_clean".into(),
                seed: 1,
                seconds: 1.0,
                trace: false,
                smoke: true,
            },
            checks: Checks { attempted: 10, failed: 0 },
            metrics: vec![
                Metric::single("setup_s", "s", 0.8127),
                Metric::of("x", "ns", &[1.0, 3.0]),
            ],
            own: vec![Metric::single("bytes", "B", 30.7)],
        };
        let line = json::parse(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.members().len(), 2);
        assert_eq!(line.get("metrics").unwrap().members().len(), 2, "own metrics stay out");
        let detail = json::parse(&outcome.detail()).unwrap();
        assert_eq!(detail.get("metrics").unwrap().members().len(), 3, "and are in the detail");
        assert_eq!(
            detail.get("metrics").unwrap().get("x").unwrap().get("n").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(outcome.table().lines().count(), 3);
    }

    #[test]
    fn unknown_workload_is_refused() {
        let options =
            Options { workload: "nope".into(), seed: 1, seconds: 0.0, trace: false, smoke: true };
        assert_eq!(run(&options), None);
    }
}
