//! The whole suite, and comparing two of its result sets.
//!
//! [`run_suite`] runs every workload in a child process of its own —
//! resident memory and allocator state must not leak from one workload
//! into the next — once per seed for [`SET_RUNS`] seeds, and collects
//! the runs into a result set. [`diff`] compares two sets metric ×
//! workload against the bounds in `BENCHMARK.json` (and
//! [`workload_gates`]); `bench aa` is two sets of the same code,
//! diffed.

use crate::json::{self, Value};
use crate::run::WORKLOADS;
use crate::stats::summarize;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs per workload in a result set, each with another seed: what
/// the benchmark contract compares.
pub const SET_RUNS: usize = 10;

/// What to run as a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptions {
    /// Seed of the first run; run `k` uses `seed + k`.
    pub seed: u64,
    /// Measuring time of each run in seconds.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) runs.
    pub trace: bool,
    /// 1/50 size, and one run per workload.
    pub smoke: bool,
}

/// The contract file at the repo root.
pub fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Runs every workload [`SET_RUNS`] times, each run a child process of
/// this executable whose output passes through. Returns the result
/// set as JSON text: `{"runs": [<run detail>, ...]}`.
pub fn run_suite(options: &SuiteOptions) -> io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = crate::scratch_dir("suite");
    let mut runs = Vec::new();
    for k in 0..if options.smoke { 1 } else { SET_RUNS } {
        for workload in WORKLOADS {
            let detail = dir.join(format!("{workload}-{k}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &(options.seed + k as u64).to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if options.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&detail);
            if options.smoke {
                child.arg("--smoke");
            }
            println!("== {workload}, seed {}", options.seed + k as u64);
            let status = child.status()?;
            if !status.success() {
                return Err(io::Error::other(format!("{workload} exited with {status}")));
            }
            runs.push(std::fs::read_to_string(&detail)?);
        }
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n")))
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of the parsed contract file.
pub fn bounds(benchmark: &Value) -> Option<Vec<Bound>> {
    benchmark
        .get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Metrics only one workload defines: `(workload, bound)`. The
/// contract's end-to-end list is flat — every metric from every
/// workload — and cannot hold them; untraced runs write them into
/// their detail all the same, and [`diff`] gates them by these bounds.
pub fn workload_gates() -> Vec<(&'static str, Bound)> {
    let gate = |name: &str, higher_is_better, bound| {
        ("remote_durable", Bound { name: name.to_string(), higher_is_better, bound })
    };
    vec![
        // Two sets of the same code differed by 15 % in their medians:
        // a process replays at 1.3 or at 1.6 M events/s, decided once.
        gate("replay_events_per_s", true, 0.25),
        // A count, exact for a seed: the bound only has to absorb
        // what the ten seeds' traces differ by.
        gate("journal_bytes_per_event", false, 0.001),
    ]
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, and both spreads within it.
    Ok,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// The run-to-run spread of either side exceeds the bound: the
    /// comparison cannot tell.
    Unresolved,
}

/// Judges one metric × workload pair from each side's per-run values.
pub fn judge(bound: &Bound, parent: &[f64], change: &[f64]) -> (f64, Verdict) {
    let (p, c) = (summarize(parent), summarize(change));
    let delta = if bound.higher_is_better { p.median - c.median } else { c.median - p.median };
    let worse = delta / p.median.abs();
    let verdict = if worse > bound.bound {
        Verdict::Regressed
    } else if p.spread() > bound.bound || c.spread() > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// The runs of `workload` in a result set.
fn runs_of<'a>(set: &'a Value, workload: &'a str) -> impl Iterator<Item = &'a Value> {
    let runs = set.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    runs.iter().filter(move |run| run.get("workload").and_then(Value::as_str) == Some(workload))
}

/// Per-run values of `metric` on `workload` in a result set.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(set, workload)
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed ÷ attempted over a result set's runs of `workload`.
fn failed_share(set: &Value, workload: &str) -> f64 {
    let total =
        |key| -> f64 { runs_of(set, workload).filter_map(|run| run.get(key)?.as_f64()).sum() };
    let attempted = total("attempted");
    if attempted > 0.0 {
        total("failed") / attempted
    } else {
        0.0
    }
}

/// Measuring time and scale of a set's runs: both sides of a
/// comparison must have been measured alike.
fn protocol(set: &Value) -> Result<(f64, bool), String> {
    let runs = set.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    let mut protocols =
        runs.iter().map(|run| Some((run.get("seconds")?.as_f64()?, run.get("smoke")?.as_bool()?)));
    let first = protocols.next().flatten().ok_or("a result set without runs")?;
    if protocols.all(|p| p == Some(first)) {
        Ok(first)
    } else {
        Err("a result set whose runs differ in --seconds or --smoke".into())
    }
}

/// Compares result set `change` against `parent`: one row per
/// end-to-end metric × workload, one per [`workload_gates`] entry, and
/// one `failed_share` row per workload (which may not rise at all).
/// Returns the table and whether any row regressed; refuses sets
/// measured for different times or at different scales.
pub fn diff(parent: &Value, change: &Value, bounds: &[Bound]) -> Result<(String, bool), String> {
    if protocol(parent)? != protocol(change)? {
        return Err("the two result sets differ in --seconds or --smoke".into());
    }
    let mut table = format!(
        "{:<15} {:<24} {:>14} {:>14} {:>31} {:>8} {:>6}  verdict\n",
        "workload", "metric", "parent median", "change median", "change q1 - q3", "worse", "bound"
    );
    let mut regressed = false;
    let gates = workload_gates();
    for workload in WORKLOADS {
        let own = gates.iter().filter(|(w, _)| *w == workload).map(|(_, bound)| bound);
        for bound in bounds.iter().chain(own) {
            let p = values(parent, workload, &bound.name);
            let c = values(change, workload, &bound.name);
            if p.is_empty() || c.is_empty() {
                let _ = writeln!(table, "{workload:<15} {:<24} missing from a set", bound.name);
                regressed = true;
                continue;
            }
            let (worse, verdict) = judge(bound, &p, &c);
            regressed |= verdict == Verdict::Regressed;
            let (ps, cs) = (summarize(&p), summarize(&c));
            let _ = writeln!(
                table,
                "{workload:<15} {:<24} {:>14.4} {:>14.4} {:>15.4} - {:<13.4} {:>+7.1}% {:>5.1}%  {}",
                bound.name,
                ps.median,
                cs.median,
                cs.q1,
                cs.q3,
                worse * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (p, c) = (failed_share(parent, workload), failed_share(change, workload));
        regressed |= c > p;
        let _ = writeln!(
            table,
            "{workload:<15} {:<24} {p:>14.6} {c:>14.6} {:>31} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "none",
            if c > p { "regressed" } else { "ok" }
        );
    }
    Ok((table, regressed))
}

/// Reads and parses a JSON file.
pub fn read_json(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    json::parse(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "checkpoint_us".into(), higher_is_better: false, bound }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let (worse, verdict) = judge(&lower(0.1), &steady, &[104.0, 105.0, 104.5, 104.0, 105.0]);
        assert!((worse - 0.045).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Ok);
        let slow = [120.0, 121.0, 119.0, 120.0, 120.0];
        assert_eq!(judge(&lower(0.1), &steady, &slow).1, Verdict::Regressed);
        // The same numbers on a higher-is-better metric are a gain.
        let higher = Bound { higher_is_better: true, ..lower(0.1) };
        assert_eq!(judge(&higher, &steady, &slow).1, Verdict::Ok);
        assert_eq!(judge(&higher, &slow, &steady).1, Verdict::Regressed);
        // A spread wider than the bound cannot resolve a small change.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&lower(0.1), &steady, &noisy).1, Verdict::Unresolved);
    }

    fn set(value: f64, failed: u64) -> Value {
        let runs: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"workload\": \"{w}\", \"seconds\": 25, \"smoke\": false, \
                     \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\
                     \"checkpoint_us\": {{\"value\": {value}, \"unit\": \"us\"}}, \
                     \"replay_events_per_s\": {{\"value\": 2e6, \"unit\": \"1/s\"}}, \
                     \"journal_bytes_per_event\": {{\"value\": 30.7, \"unit\": \"B\"}}}}}}"
                )
            })
            .collect();
        json::parse(&format!("{{\"runs\": [{}]}}", runs.join(","))).unwrap()
    }

    #[test]
    fn diff_has_a_row_per_pair_and_flags_regressions() {
        let bounds = [lower(0.1)];
        let (table, regressed) = diff(&set(100.0, 0), &set(105.0, 0), &bounds).unwrap();
        assert!(!regressed, "{table}");
        // A header, two rows per workload, and remote_durable's own two.
        assert_eq!(table.lines().count(), 1 + WORKLOADS.len() * 2 + workload_gates().len());
        assert_eq!(table.matches(" ok").count(), WORKLOADS.len() * 2 + workload_gates().len());
        let (table, regressed) = diff(&set(100.0, 0), &set(120.0, 0), &bounds).unwrap();
        assert!(regressed);
        assert_eq!(table.matches("regressed").count(), WORKLOADS.len());
    }

    #[test]
    fn any_rise_in_failures_regresses() {
        let (table, regressed) = diff(&set(100.0, 0), &set(100.0, 1), &[lower(0.1)]).unwrap();
        assert!(regressed);
        assert_eq!(table.matches("regressed").count(), WORKLOADS.len());
    }

    #[test]
    fn a_metric_missing_from_a_set_is_not_ok() {
        let other = Bound { name: "events_per_s".into(), higher_is_better: true, bound: 0.1 };
        let (table, regressed) = diff(&set(1.0, 0), &set(1.0, 0), &[other]).unwrap();
        assert!(regressed);
        assert!(table.contains("missing from a set"));
    }

    #[test]
    fn a_workloads_own_metric_is_gated() {
        let text = |bytes: f64| {
            format!(
                "{{\"runs\": [{{\"workload\": \"remote_durable\", \"seconds\": 25, \
                 \"smoke\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
                 \"replay_events_per_s\": {{\"value\": 2e6}}, \
                 \"journal_bytes_per_event\": {{\"value\": {bytes}}}}}}}]}}"
            )
        };
        let (parent, fatter) =
            (json::parse(&text(30.7)).unwrap(), json::parse(&text(30.8)).unwrap());
        let (table, regressed) = diff(&parent, &fatter, &[]).unwrap();
        assert!(regressed, "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("journal_bytes_per_event") && l.contains("regressed")));
        assert!(!diff(&parent, &parent, &[]).unwrap().1);
    }

    #[test]
    fn sets_measured_differently_are_refused() {
        let short = json::parse(
            "{\"runs\": [{\"workload\": \"fleet_clean\", \"seconds\": 1, \"smoke\": false}]}",
        )
        .unwrap();
        assert!(diff(&set(1.0, 0), &short, &[]).is_err());
        assert!(diff(&short, &short, &[]).is_ok());
        let empty = json::parse("{\"runs\": []}").unwrap();
        assert!(diff(&empty, &empty, &[]).is_err());
    }

    #[test]
    fn bounds_come_from_the_contract_file() {
        let contract = read_json(&benchmark_json()).unwrap();
        let bounds = bounds(&contract).unwrap();
        assert!(bounds.iter().any(|b| b.name == "setup_s" && !b.higher_is_better));
        assert!(bounds.iter().any(|b| b.name == "overhead_ratio" && !b.higher_is_better));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
