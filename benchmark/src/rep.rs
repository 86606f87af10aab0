//! `benchmark --rep WORKLOAD --seed N [--traced SPANS.jsonl]
//! [--setup-only]`: one repetition, run by the runner in a fresh child
//! process.
//!
//! The child pins itself to one CPU, builds its inputs, prints `ready`
//! (the runner's set-up clock stops when it reads that line;
//! `--setup-only` exits there), runs the timed work beside the reference
//! pacer of [`crate::reference`], reads its own peak RSS, checks its
//! outputs, and prints one `result {json}` line. A fresh process per
//! repetition charges cold start the way a command-line user pays it,
//! gives each repetition its own peak RSS, and keeps in-memory caches from
//! carrying over.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use ba_obs::json_escape;

use crate::layers::Layers;
use crate::reference::{self, Pacer};
use crate::workload::{Input, Workload};

/// Parsed repetition arguments.
struct RepArgs {
    workload: Workload,
    seed: u64,
    /// Trace the repetition, writing its spans here.
    traced: Option<PathBuf>,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<RepArgs, String> {
    let mut iter = args.iter();
    let name = iter.next().ok_or("--rep needs a workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut rep = RepArgs {
        workload,
        seed: 1,
        traced: None,
        setup_only: false,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let raw = iter.next().ok_or("--seed needs a value")?;
                rep.seed = raw.parse().map_err(|_| format!("bad --seed {raw:?}"))?;
            }
            "--traced" => rep.traced = Some(iter.next().ok_or("--traced needs a path")?.into()),
            "--setup-only" => rep.setup_only = true,
            other => return Err(format!("unexpected repetition argument {other:?}")),
        }
    }
    Ok(rep)
}

/// Runs one repetition and prints its result line.
///
/// # Errors
///
/// Argument and I/O errors only: a failed workload is reported inside the
/// result line, so the runner can count its operations as failed.
pub fn main(args: &[String]) -> Result<(), String> {
    let rep = parse(args)?;
    reference::pin_to_current_cpu()?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let input = Input::build(rep.workload, rep.seed, exe);
    say("ready")?;
    if rep.setup_only {
        return Ok(());
    }

    // The traced repetition runs beside the pacer too, so that its time
    // compares with the untraced ones in reference seconds.
    let pacer = Pacer::start();
    let cpu_before = reference::process_cpu_s();
    let started = Instant::now();
    let run = if rep.traced.is_some() {
        crate::layers::run(&input, rep.seed)
    } else {
        input.run().map(|output| (output, Layers::default()))
    };
    let work_s = started.elapsed().as_secs_f64();
    let cpu_s = reference::process_cpu_s() - cpu_before;
    let paced = pacer.stop();
    let peak_rss_mib = ba_bench::harness::peak_rss_bytes() as f64 / (1024.0 * 1024.0);

    let ref_unit_s = paced.unit_s();
    let checked = run.and_then(|(output, layers)| {
        output.check(&input)?;
        if ref_unit_s.is_none() {
            return Err(format!("no reference unit ran beside the work: {paced:?}"));
        }
        Ok((output, layers))
    });
    let work_cpu_s = cpu_s - paced.thread_cpu_s;
    let ref_unit_s = ref_unit_s.unwrap_or(0.0);
    let mut line = format!(
        "result {{\"work_s\":{work_s},\"work_cpu_s\":{work_cpu_s},\"ref_unit_s\":{ref_unit_s},\
         \"operations\":{},\"peak_rss_mib\":{peak_rss_mib}",
        input.operations()
    );
    match checked {
        Ok((output, layers)) => {
            line.push_str(&format!(
                ",\"items\":{},\"digest\":\"{}\"",
                output.items(),
                output.digest()
            ));
            if let Some(path) = &rep.traced {
                layers.write_spans(path)?;
                line.push_str(&format!(",{}", layers.to_json()));
            }
        }
        Err(error) => line.push_str(&format!(",\"error\":\"{}\"", json_escape(&error))),
    }
    line.push('}');
    say(&line)
}

fn say(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing to the runner: {e}"))
}
