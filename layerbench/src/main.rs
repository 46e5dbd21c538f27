//! `bench` — the benchmark's command line.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//!     one run of one workload in this process; the last line printed
//!     is the result line of the benchmark contract
//! bench [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//!     a result set: every workload ten times (seeds N to N+9; once
//!     with --smoke), each run in a child process
//! bench diff PARENT.json CHANGE.json
//!     two result sets compared against the bounds in BENCHMARK.json;
//!     exits 1 when a metric regressed
//! bench aa [--seed N] [--seconds S] [--smoke]
//!     two sets of the same code, diffed
//! ```
//!
//! `--seconds` is the contract's: the driver passes `run_seconds` from
//! `BENCHMARK.json`, which is also the default. Every run records it,
//! and `diff` refuses sets measured for different times.

use rmon_layerbench::run::{run, Options, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use rmon_layerbench::suite::{benchmark_json, bounds, diff, read_json, run_suite, SuiteOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything the flags can say; which of it is used depends on the
/// mode.
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

fn one_run(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let options = Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: if args.smoke { args.seconds.min(1.0) } else { args.seconds },
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = run(&options)
        .ok_or(format!("unknown workload {workload}; the workloads are {WORKLOADS:?}"))?;
    print!("{}", outcome.table());
    if let Some(out) = &args.out {
        std::fs::write(out, outcome.detail()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn suite_options(args: &Args) -> SuiteOptions {
    SuiteOptions { seed: args.seed, seconds: args.seconds, trace: args.trace, smoke: args.smoke }
}

fn compare(parent: &Path, change: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| read_json(path).map_err(|e| e.to_string());
    let bounds =
        bounds(&read(&benchmark_json())?).ok_or("BENCHMARK.json has no end_to_end list")?;
    let (table, regressed) = diff(&read(parent)?, &read(change)?, &bounds)?;
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main_inner() -> Result<ExitCode, String> {
    let args = parse(std::env::args().skip(1))?;
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (positional.as_slice(), &args.workload) {
        ([], Some(workload)) => one_run(&args, workload),
        ([], None) => {
            let set = run_suite(&suite_options(&args)).map_err(|e| e.to_string())?;
            if let Some(out) = &args.out {
                std::fs::write(out, set).map_err(|e| format!("{}: {e}", out.display()))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        (["diff", parent, change], None) => compare(Path::new(parent), Path::new(change)),
        (["aa"], None) => {
            let options = suite_options(&args);
            let dir = rmon_layerbench::out_dir();
            let mut paths = Vec::new();
            for side in ["a", "b"] {
                let set = run_suite(&options).map_err(|e| e.to_string())?;
                let path = dir.join(format!("aa-{side}.json"));
                std::fs::write(&path, set).map_err(|e| format!("{}: {e}", path.display()))?;
                paths.push(path);
            }
            compare(&paths[0], &paths[1])
        }
        _ => Err("usage: bench [--workload NAME | diff PARENT.json CHANGE.json | aa] \
                  [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]"
            .into()),
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|message| {
        eprintln!("bench: {message}");
        ExitCode::from(2)
    })
}
