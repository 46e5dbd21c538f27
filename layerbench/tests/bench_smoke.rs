//! Runs the built `bench` at 1/50 size and holds its output against
//! the contract in `BENCHMARK.json`: every workload emits every
//! end-to-end metric (untraced) and every per-layer metric (traced)
//! exactly once, under the listed name and unit, and nothing fails.

use rmon_layerbench::json::{self, Value};
use rmon_layerbench::run::{RUN_SECONDS, WORKLOADS};
use rmon_layerbench::suite::{benchmark_json, read_json};
use std::process::Command;

/// `(name, unit)` of every entry of `list` in the contract file.
fn listed(contract: &Value, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).expect("a string").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// Runs the whole suite at smoke size and returns the children's
/// result lines, one per workload.
fn smoke_suite(trace: &str) -> Vec<Value> {
    let out = rmon_layerbench::scratch_dir("smoke").join("set.json");
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--smoke", "--seconds", "0.5", "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("run bench");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    // The result set names one run per workload, in order, and what
    // each was measured with.
    let set = read_json(&out).expect("the result set");
    std::fs::remove_dir_all(out.parent().unwrap()).unwrap();
    let runs = set.get("runs").and_then(Value::as_array).expect("runs");
    let workloads: Vec<&str> =
        runs.iter().map(|r| r.get("workload").and_then(Value::as_str).unwrap()).collect();
    assert_eq!(workloads, WORKLOADS, "one run per workload, in order");
    for run in runs {
        assert_eq!(run.get("seconds").and_then(Value::as_f64), Some(0.5));
        assert_eq!(run.get("smoke").and_then(Value::as_bool), Some(true));
    }
    // Every child's last line is a result line with exactly the
    // contract's keys.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let results: Vec<Value> =
        stdout.lines().filter(|l| l.starts_with('{')).map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(results.len(), WORKLOADS.len());
    for result in &results {
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "failed_share");
    }
    results
}

/// Every result line has exactly the `expected` metrics, each once.
fn assert_emits(results: &[Value], expected: &[(String, String)]) {
    for (result, workload) in results.iter().zip(WORKLOADS) {
        let metrics = result.get("metrics").expect("metrics").members();
        for (name, unit) in expected {
            let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
            assert_eq!(hits.len(), 1, "{workload}: {name} emitted {} times", hits.len());
            let metric = &hits[0].1;
            assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
            let value = metric.get("value").and_then(Value::as_f64).expect("a value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        assert_eq!(
            metrics.len(),
            expected.len(),
            "{workload}: a metric BENCHMARK.json does not list"
        );
    }
}

#[test]
fn smoke_run_emits_exactly_what_the_contract_lists() {
    let contract = read_json(&benchmark_json()).expect("BENCHMARK.json");
    let end_to_end = listed(&contract, "end_to_end");
    let per_layer = listed(&contract, "per_layer");
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        assert!(is_name(name), "{name}");
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok), "{name}: {unit}");
    }
    let mut names: Vec<&String> = end_to_end.iter().chain(&per_layer).map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), end_to_end.len() + per_layer.len(), "a name is used twice");

    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(contract.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS));

    assert_emits(&smoke_suite("0"), &end_to_end);
    assert_emits(&smoke_suite("1"), &per_layer);
}

/// Profiles are not inherited across workspaces, so this package
/// copies the root's `[profile.release]`; the numbers must price the
/// build the repo ships, and the copy must not drift from it.
#[test]
fn release_profile_is_the_roots() {
    let profile = |manifest: &str| -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest);
        let text = std::fs::read_to_string(&path).expect("a manifest");
        let mut lines: Vec<String> = text
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .map(|l| l.split_whitespace().collect())
            .collect();
        lines.sort();
        lines
    };
    let root = profile("../Cargo.toml");
    assert!(!root.is_empty(), "the root manifest has a [profile.release]");
    assert_eq!(profile("Cargo.toml"), root);
}

#[test]
fn an_unknown_workload_or_flag_exits_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["--runs", "3"],
        &["--trace", "2"],
        &["diff", "a"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
