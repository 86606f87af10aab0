//! `benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--json PATH] [--trace-out DIR]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Runs each workload (all five without `--workload`) for `--seconds`,
//! one repetition per fresh child process pinned to one CPU, prints every
//! metric as `workload metric value unit`, checks the outputs, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 1` adds one traced repetition per workload and reports the
//! per-layer metrics instead of the end-to-end ones. See
//! `benchmark/README.md`.
//!
//! The internal modes `--rep` (one repetition) and `--worker` (a
//! `dist-sweep` shard worker) are how the benchmark runs its children.

mod compare;
mod layers;
mod reference;
mod rep;
mod runner;
mod spec;
mod stats;
mod timed;
mod worker;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--rep") => rep::main(&args[1..]),
        Some("--worker") => worker::main(&args[1..]),
        Some("--compare") => compare::main(&args[1..]),
        _ => runner::main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
