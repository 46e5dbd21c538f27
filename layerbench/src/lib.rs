//! # rmon-layerbench — the repo's one benchmark
//!
//! Four workloads, six end-to-end metrics each, and per-layer metrics
//! from spans and layer probes; `BENCHMARK.json` at the repo root is
//! the contract and `README.md` beside this crate the guide. Every
//! layer is measured from outside, by timing calls into its public
//! functions; nothing here is configured through the environment.
//!
//! * [`workload`] — the protocol: set-up, repetitions, medians;
//! * [`app`], [`fleet`], [`remote`] — the workloads and their drivers;
//! * [`probes`] — the per-layer measurements of a traced run;
//! * [`span`], [`stats`], [`check`], [`json`] — tracing, order
//!   statistics, output checks, and a JSON reader;
//! * [`affinity`] — which CPU the load generator and the workers run on;
//! * [`run`] — one run of one workload, and its result line;
//! * [`suite`] — all workloads in child processes, `diff` and `aa`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod app;
pub mod check;
pub mod fleet;
pub mod json;
pub mod probes;
pub mod remote;
pub mod run;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Where the benchmark writes: `out/` beside its manifest, inside the
/// checkout it was built in (and ignored by git). Trace files and
/// result sets go here; journals go to [`scratch_dir`]s below it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Creates a fresh, empty directory under [`out_dir`] for a journal or
/// a test. The caller removes it when done.
///
/// # Panics
///
/// Panics when the directory cannot be created: the benchmark cannot
/// run without a place to write.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = out_dir().join("tmp").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create a scratch directory under layerbench/out");
    dir
}
