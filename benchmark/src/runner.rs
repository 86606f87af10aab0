//! The runner: runs each workload's repetitions in fresh child processes,
//! checks their outputs, aggregates the samples, and prints the metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ba_obs::{json_escape, parse_json_line, Json};

use crate::reference::UNITS_PER_REF_S;
use crate::spec::spec;
use crate::stats;
use crate::workload::{pinned_digest, Input, Workload};

/// Fewest untraced repetitions per workload, however long they take.
const MIN_REPS: usize = 3;

/// A repetition that has not finished after this long has failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// The whole invocation stops starting work after this long, so that it
/// ends within three minutes even when children hang.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Parsed runner options.
#[derive(Clone, PartialEq, Debug)]
pub struct Options {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// The seed every input derives from.
    pub seed: u64,
    /// Measurement time per workload.
    pub seconds: f64,
    /// Report the traced per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Where to write the full results JSON, if anywhere.
    pub json: Option<PathBuf>,
    /// Where traced repetitions write their spans.
    pub trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--json PATH] [--trace-out DIR]\n       benchmark --compare BASE.json NEW.json";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        trace_out: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {known:?})")
                })?;
                opts.workloads = vec![w];
            }
            "--seed" => {
                let raw = value("--seed")?;
                opts.seed = raw.parse().map_err(|_| format!("bad --seed {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                opts.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {raw:?}"))?;
            }
            "--trace" => {
                opts.trace = iter
                    .next_if(|v| *v == "0" || *v == "1")
                    .map_or(true, |v| v == "1");
            }
            "--json" => opts.json = Some(value("--json")?.into()),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?.into()),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Set-up-only children spawned after each repetition, for more
/// `setup_s` samples per run.
const EXTRA_SETUPS: usize = 4;

/// One repetition as the runner saw it.
#[derive(Clone, PartialEq, Debug, Default)]
struct Rep {
    /// Spawn to the child's `ready` line.
    setup_s: f64,
    /// Wall time of the child's timed work.
    work_s: f64,
    /// CPU time of the child's timed work, its worker processes included
    /// and the reference pacer excluded.
    work_cpu_s: f64,
    /// Mean CPU time of one reference unit run beside the work.
    ref_unit_s: f64,
    /// The child's peak RSS after its timed work.
    peak_rss_mib: f64,
    /// Units of work completed.
    items: u64,
    /// The output digest.
    digest: String,
    /// Why the repetition failed, if it did.
    error: Option<String>,
    /// The traced repetition's report: the `result` line's JSON.
    traced: Option<Json>,
}

impl Rep {
    /// Completed work per wall-clock second of timed work.
    fn items_per_s(&self) -> f64 {
        if self.work_s > 0.0 {
            self.items as f64 / self.work_s
        } else {
            0.0
        }
    }

    /// Completed work per reference second: per CPU time of
    /// [`UNITS_PER_REF_S`] reference units, measured on the same CPU at the
    /// same moments as the work.
    fn items_per_ref_s(&self) -> f64 {
        let ref_s = self.work_cpu_s / (self.ref_unit_s * UNITS_PER_REF_S);
        if ref_s > 0.0 && ref_s.is_finite() {
            self.items as f64 / ref_s
        } else {
            0.0
        }
    }
}

/// How a child runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode<'a> {
    /// An untraced repetition.
    Untraced,
    /// A traced repetition writing its spans to the path.
    Traced(&'a Path),
    /// Set-up only: the child exits once it is ready.
    SetupOnly,
}

/// Runs one repetition of `workload` in a child process.
fn spawn_rep(exe: &Path, workload: Workload, seed: u64, mode: Mode<'_>, deadline: Instant) -> Rep {
    let failed = |error: String| Rep {
        error: Some(error),
        ..Rep::default()
    };
    let mut command = Command::new(exe);
    command
        .args(["--rep", workload.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match mode {
        Mode::Untraced => {}
        Mode::Traced(path) => {
            command.arg("--traced").arg(path);
        }
        Mode::SetupOnly => {
            command.arg("--setup-only");
        }
    }
    let spawned = Instant::now();
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => return failed(format!("spawning a repetition: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });

    let give_up = (spawned + REP_TIMEOUT).min(deadline.max(spawned));
    let mut setup_s = None;
    let mut result = None;
    let mut timed_out = false;
    while result.is_none() {
        let left = give_up.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((at, line)) if line == "ready" => {
                setup_s = Some((at - spawned).as_secs_f64());
                if mode == Mode::SetupOnly {
                    result = Some("{}".to_string());
                }
            }
            Ok((_, line)) => {
                if let Some(body) = line.strip_prefix("result ") {
                    result = Some(body.to_string());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                timed_out = true;
                let _ = child.kill();
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait();
    let _ = reader.join();
    if timed_out {
        return failed(format!(
            "no result within {:.0} s; killed",
            (give_up - spawned).as_secs_f64()
        ));
    }
    match (&status, result, setup_s) {
        (Ok(s), Some(body), Some(setup_s)) if s.success() => parse_rep(&body, setup_s),
        (Ok(s), _, _) => failed(format!("repetition exited with {s} without a result")),
        (Err(e), _, _) => failed(format!("waiting for a repetition: {e}")),
    }
}

fn parse_rep(body: &str, setup_s: f64) -> Rep {
    let Some(json) = parse_json_line(body) else {
        return Rep {
            error: Some(format!("unparseable result line {body:?}")),
            ..Rep::default()
        };
    };
    let num = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Rep {
        setup_s,
        work_s: num("work_s"),
        work_cpu_s: num("work_cpu_s"),
        ref_unit_s: num("ref_unit_s"),
        peak_rss_mib: num("peak_rss_mib"),
        items: json.get("items").and_then(Json::as_u64).unwrap_or(0),
        digest: json
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        error: json.get("error").and_then(Json::as_str).map(str::to_string),
        traced: json.get("layers").is_some().then(|| json.clone()),
    }
}

/// Everything measured for one workload.
#[derive(Clone, PartialEq, Debug)]
struct WorkloadResult {
    workload: Workload,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: Option<String>,
    reps: Vec<Rep>,
    /// Set-up times of the set-up-only children.
    extra_setups: Vec<f64>,
    traced: Option<Rep>,
}

impl WorkloadResult {
    fn ok_reps(&self) -> impl Iterator<Item = &Rep> + Clone {
        self.reps.iter().filter(|r| r.error.is_none())
    }

    /// Samples of each end-to-end metric.
    fn samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        end_to_end_samples(self.ok_reps(), &self.extra_setups)
    }

    /// Samples of the untraced runs' diagnostics.
    fn diagnostics(&self) -> Vec<(&'static str, Vec<f64>)> {
        diagnostic_samples(self.ok_reps())
    }

    /// `true` iff no operation failed and every cross-check held.
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// The end-to-end metrics and their samples: the set-up time of every
/// child, and per successful repetition the throughput and the peak RSS.
fn end_to_end_samples<'a>(
    reps: impl Iterator<Item = &'a Rep> + Clone,
    extra_setups: &[f64],
) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "setup_s",
            reps.clone()
                .map(|r| r.setup_s)
                .chain(extra_setups.iter().copied())
                .collect(),
        ),
        (
            "items_per_ref_s",
            reps.clone().map(Rep::items_per_ref_s).collect(),
        ),
        ("peak_rss_mib", reps.map(|r| r.peak_rss_mib).collect()),
    ]
}

/// What the gated throughput is made of, per successful repetition: the
/// wall-clock throughput a user of this machine saw at that moment, and
/// the reference unit's CPU time, the machine's speed at that moment.
/// Printed and kept in `--json`, and reported with the per-layer metrics;
/// not gated, since on a shared host they move with the other tenants.
fn diagnostic_samples<'a>(
    reps: impl Iterator<Item = &'a Rep> + Clone,
) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "run.items_per_s",
            reps.clone().map(Rep::items_per_s).collect(),
        ),
        (
            "run.ref_unit_us",
            reps.map(|r| r.ref_unit_s * 1e6).collect(),
        ),
    ]
}

/// The per-layer metrics of a traced repetition: the child's layer
/// metrics plus the tracing overhead. The overhead compares the traced
/// work's wall time with the untraced median, both counted in reference
/// units measured beside them, so that a change in the host's speed
/// between the repetitions does not show as overhead.
fn layer_metrics(traced: &Json, traced_unit_s: f64, untraced_units: f64) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = match traced.get("layers") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
            .collect(),
        _ => Vec::new(),
    };
    let traced_s = traced
        .get("traced_work_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let overhead = if untraced_units > 0.0 && traced_unit_s > 0.0 {
        traced_s / traced_unit_s / untraced_units - 1.0
    } else {
        0.0
    };
    metrics.push(("trace.overhead_frac".into(), overhead));
    metrics
}

fn measure(opts: &Options, exe: &Path, workload: Workload, deadline: Instant) -> WorkloadResult {
    let operations = Input::build(workload, opts.seed, exe.to_path_buf()).operations();
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut extra_setups = Vec::new();
    while Instant::now() < deadline {
        reps.push(spawn_rep(
            exe,
            workload,
            opts.seed,
            Mode::Untraced,
            deadline,
        ));
        for _ in 0..EXTRA_SETUPS {
            let setup = spawn_rep(exe, workload, opts.seed, Mode::SetupOnly, deadline);
            if setup.error.is_none() {
                extra_setups.push(setup.setup_s);
            }
        }
        let elapsed = started.elapsed();
        let per_rep = elapsed / reps.len() as u32;
        if reps.len() >= MIN_REPS && elapsed + per_rep > budget {
            break;
        }
    }

    let mut errors = Vec::new();
    let mut expected = pinned_digest(workload, opts.seed).map(str::to_string);
    if workload == Workload::DistSweep {
        // merge(2) == run(1): the distributed sweep must reproduce the
        // in-process sweep of the same grid and seeds.
        let reference = spawn_rep(
            exe,
            Workload::SweepAdversarial,
            opts.seed,
            Mode::Untraced,
            deadline,
        );
        match (&reference.error, &expected) {
            (Some(e), _) => errors.push(format!("in-process reference failed: {e}")),
            (None, Some(pinned)) if *pinned != reference.digest => errors.push(format!(
                "in-process reference digest {} differs from the pinned {pinned}",
                reference.digest
            )),
            (None, _) => expected = Some(reference.digest),
        }
    }
    let expected = expected.or_else(|| majority_digest(&reps));

    let traced = opts.trace.then(|| {
        // Spans go to --trace-out, else the cargo target directory the
        // benchmark was built in.
        let dir = opts.trace_out.clone().unwrap_or_else(|| {
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from)
        });
        let path = dir.join(format!("benchmark-trace-{}.jsonl", workload.name()));
        spawn_rep(exe, workload, opts.seed, Mode::Traced(&path), deadline)
    });

    let mut result = settle(workload, operations, reps, traced, expected, errors);
    result.extra_setups = extra_setups;
    result
}

/// Judges the repetitions of one workload: every repetition whose digest
/// differs from `expected` fails its operations, and a failed cross-check
/// (any entry already in `errors`) fails every repetition it covers. A
/// workload without a single successful untraced repetition has failed
/// too, since its metrics would be medians of nothing.
fn settle(
    workload: Workload,
    operations: u64,
    reps: Vec<Rep>,
    traced: Option<Rep>,
    expected: Option<String>,
    mut errors: Vec<String>,
) -> WorkloadResult {
    let cross_check_failed = !errors.is_empty();
    let untraced = reps.len();
    let mut failed = 0;
    let mut judged: Vec<Rep> = Vec::new();
    for mut rep in reps.into_iter().chain(traced) {
        if rep.error.is_none() && expected.as_deref() != Some(rep.digest.as_str()) {
            rep.error = Some(format!(
                "output digest {} differs from the expected {}",
                rep.digest,
                expected.as_deref().unwrap_or("(none)")
            ));
        }
        if let Some(e) = &rep.error {
            failed += operations;
            errors.push(e.clone());
        }
        judged.push(rep);
    }
    let mut attempted = operations * judged.len() as u64;
    if cross_check_failed {
        failed = attempted;
    }
    let traced = (judged.len() > untraced).then(|| judged.pop()).flatten();
    if untraced == 0 {
        errors.push("no repetition ran before the deadline".into());
        attempted += operations;
        failed += operations;
    }
    WorkloadResult {
        workload,
        attempted,
        failed,
        errors,
        digest: expected,
        reps: judged,
        extra_setups: Vec::new(),
        traced,
    }
}

/// The digest most successful repetitions agree on.
fn majority_digest(reps: &[Rep]) -> Option<String> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in reps.iter().filter(|r| r.error.is_none()) {
        *counts.entry(r.digest.as_str()).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(d, _)| d.to_string())
}

/// Runs the benchmark and prints its metrics and result line.
///
/// # Errors
///
/// Bad arguments, or failing to write `--json`.
pub fn main(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let deadline = Instant::now() + RUN_DEADLINE;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!(
            "benchmark: warning: {nproc} CPU available; the runner shares the CPU each \
             repetition is pinned to, so the numbers are not comparable with a run on 2 or more"
        );
    }
    let results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .map(|&w| {
            let r = measure(&opts, &exe, w, deadline);
            print_workload(&r, &opts);
            r
        })
        .collect();
    if let Some(path) = &opts.json {
        std::fs::write(path, results_json(&results, &opts, nproc))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", summary_line(&results, &opts));
    Ok(())
}

/// The metrics of one workload as `(name, value)`: the end-to-end medians,
/// or with `--trace` the per-layer metrics.
fn reported_metrics(r: &WorkloadResult, opts: &Options) -> Vec<(String, f64)> {
    if opts.trace {
        let untraced_units = stats::median(
            &r.ok_reps()
                .map(|rep| rep.work_s / rep.ref_unit_s)
                .collect::<Vec<_>>(),
        );
        let mut metrics = match r.traced.as_ref() {
            Some(Rep {
                traced: Some(traced),
                ref_unit_s,
                ..
            }) => layer_metrics(traced, *ref_unit_s, untraced_units),
            _ => crate::layers::LAYER_METRICS
                .iter()
                .chain(["trace.overhead_frac"].iter())
                .map(|name| (name.to_string(), 0.0))
                .collect(),
        };
        metrics.extend(
            r.diagnostics()
                .into_iter()
                .map(|(name, samples)| (name.to_string(), stats::median(&samples))),
        );
        metrics
    } else {
        r.samples()
            .into_iter()
            .map(|(name, samples)| (name.to_string(), stats::median(&samples)))
            .collect()
    }
}

fn print_workload(r: &WorkloadResult, opts: &Options) {
    let name = r.workload.name();
    for e in &r.errors {
        eprintln!("benchmark: {name}: {e}");
    }
    if opts.trace {
        if let Some(Json::Arr(rows)) = r
            .traced
            .as_ref()
            .and_then(|t| t.traced.as_ref())
            .and_then(|t| t.get("table"))
        {
            println!("{name} layer table (one traced repetition):");
            println!(
                "  {:<22} {:>12} {:>12} {:>12} {:>10} {:>7}",
                "layer", "calls", "busy_ms", "self_ms", "ns/msg", "share"
            );
            for row in rows {
                let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let msgs = num("msgs");
                let per_msg = if msgs > 0.0 {
                    format!("{:.1}", num("busy_ns") / msgs)
                } else {
                    "-".into()
                };
                println!(
                    "  {:<22} {:>12} {:>12.3} {:>12.3} {:>10} {:>7.4}",
                    row.get("layer").and_then(Json::as_str).unwrap_or("?"),
                    num("calls"),
                    num("busy_ns") / 1e6,
                    num("self_ns") / 1e6,
                    per_msg,
                    num("share"),
                );
            }
        }
        for (metric, value) in reported_metrics(r, opts) {
            println!("{name} {metric} {value} {}", spec().unit(&metric));
        }
    } else {
        for (metric, samples) in r.samples().into_iter().chain(r.diagnostics()) {
            let (q1, median, q3) = stats::quartiles(&samples);
            println!(
                "{name} {metric} {median} {} q1={q1} q3={q3} n={}",
                spec().unit(metric),
                samples.len()
            );
        }
    }
}

fn summary_line(results: &[WorkloadResult], opts: &Options) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let correct = results.iter().all(WorkloadResult::correct);
    let mut metrics = Vec::new();
    for r in results {
        for (metric, value) in reported_metrics(r, opts) {
            let key = if results.len() == 1 {
                metric.clone()
            } else {
                format!("{}.{metric}", r.workload.name())
            };
            metrics.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_escape(&key),
                json_number(value),
                json_escape(spec().unit(&metric))
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    )
}

/// A finite JSON number (`0` for NaN and infinities).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON array of numbers.
fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(json_number).collect();
    format!("[{}]", items.join(","))
}

/// The full results: every sample, quartiles, digests, errors, and the
/// machine the numbers came from. The input of `--compare`.
fn results_json(results: &[WorkloadResult], opts: &Options, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut workloads = Vec::new();
    for r in results {
        let mut metrics = Vec::new();
        for (metric, samples) in r.samples().into_iter().chain(r.diagnostics()) {
            let (q1, median, q3) = stats::quartiles(&samples);
            metrics.push(format!(
                "\"{metric}\":{{\"unit\":\"{}\",\"value\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":{}}}",
                json_escape(spec().unit(metric)),
                json_number(median),
                json_number(q1),
                json_number(q3),
                samples.len(),
                json_list(samples.iter().copied())
            ));
        }
        let layers: Vec<String> = if opts.trace {
            reported_metrics(r, opts)
                .into_iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(&k), json_number(v)))
                .collect()
        } else {
            Vec::new()
        };
        let errors: Vec<String> = r
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect();
        workloads.push(format!(
            "\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{}\",\"errors\":[{}],\"metrics\":{{{}}},\"layers\":{{{}}}}}",
            r.workload.name(),
            r.correct(),
            r.attempted,
            r.failed,
            r.digest.as_deref().unwrap_or(""),
            errors.join(","),
            metrics.join(","),
            layers.join(",")
        ));
    }
    format!(
        "{{\"schema\":\"ba-benchmark/v1\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":\"{}\",\"threads\":{},\"workloads\":{{{}}}}}\n",
        opts.seed,
        opts.seconds,
        opts.trace,
        json_escape(&cpu),
        crate::workload::THREADS,
        workloads.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn runner_flags_parse_in_both_trace_spellings() {
        let o = parse(&args(&[
            "--workload",
            "falsify",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec![Workload::Falsify], 7, 3.0, true)
        );
        assert!(!parse(&args(&["--trace", "0"])).unwrap().trace);
        let bare = parse(&args(&["--trace", "--seed", "2"])).unwrap();
        assert!(bare.trace && bare.seed == 2);
        assert_eq!(parse(&args(&[])).unwrap().workloads, Workload::ALL.to_vec());
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--seconds", "0"])).is_err());
    }

    #[test]
    fn emitted_metric_names_are_exactly_the_declared_ones() {
        let spec = spec();
        let rep = Rep {
            setup_s: 0.01,
            work_s: 1.2,
            work_cpu_s: 1.0,
            ref_unit_s: 0.001,
            peak_rss_mib: 5.0,
            items: 10,
            ..Rep::default()
        };
        let emitted: BTreeSet<String> = end_to_end_samples([rep.clone()].iter(), &[0.02])
            .into_iter()
            .map(|(name, samples)| {
                assert!(samples.iter().all(|v| *v > 0.0), "{name} is zero");
                name.to_string()
            })
            .collect();
        let declared: BTreeSet<String> = spec.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, declared);

        // The traced run reports every layer metric of the traced
        // repetition's result line, and the untraced diagnostics.
        let layers: Vec<String> = crate::layers::LAYER_METRICS
            .iter()
            .map(|n| format!("\"{n}\":0"))
            .collect();
        let line = format!(
            "{{\"traced_work_s\":2,\"layers\":{{{}}}}}",
            layers.join(",")
        );
        let traced = Rep {
            traced: parse_json_line(&line),
            ..rep.clone()
        };
        let result = settle(
            Workload::Falsify,
            6,
            vec![rep],
            Some(traced),
            Some(String::new()),
            Vec::new(),
        );
        let opts = Options {
            trace: true,
            ..parse(&[]).unwrap()
        };
        let emitted: BTreeSet<String> = reported_metrics(&result, &opts)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let declared: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, declared);
        for name in emitted {
            assert!(crate::spec::is_valid_name(&name), "{name}");
        }
    }

    #[test]
    fn throughput_is_counted_in_reference_seconds() {
        let rep = Rep {
            work_s: 3.0,
            work_cpu_s: 2.0,
            ref_unit_s: 0.0005,
            items: 100,
            ..Rep::default()
        };
        // 2 s of work at 0.5 ms per unit is 4,000 units: 4 reference
        // seconds.
        assert!((rep.items_per_ref_s() - 25.0).abs() < 1e-9);
        assert!((rep.items_per_s() - 100.0 / 3.0).abs() < 1e-9);
        // A repetition without reference units has no throughput.
        let unpaced = Rep {
            ref_unit_s: 0.0,
            ..rep
        };
        assert_eq!(unpaced.items_per_ref_s(), 0.0);
    }

    #[test]
    fn tracing_overhead_is_counted_in_reference_units() {
        let traced = parse_json_line("{\"traced_work_s\":3,\"layers\":{}}").unwrap();
        // 3 s at 1 ms per unit is 3,000 units against the untraced 2,000.
        let metrics = layer_metrics(&traced, 0.001, 2000.0);
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].0, "trace.overhead_frac");
        assert!((metrics[0].1 - 0.5).abs() < 1e-12);
        // The same traced time on a CPU 1.5 times as slow is no overhead.
        let slow = layer_metrics(&traced, 0.0015, 2000.0);
        assert!(slow[0].1.abs() < 1e-12);
    }

    #[test]
    fn a_workload_without_repetitions_has_failed() {
        let r = settle(Workload::Falsify, 6, Vec::new(), None, None, Vec::new());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (6, 6));
        assert_eq!(r.errors, vec!["no repetition ran before the deadline"]);
        // The traced repetition alone does not count.
        let traced = Rep {
            digest: "d".into(),
            ..Rep::default()
        };
        let r = settle(
            Workload::Falsify,
            6,
            Vec::new(),
            Some(traced),
            Some("d".into()),
            Vec::new(),
        );
        assert!(!r.correct() && r.traced.is_some());
    }

    #[test]
    fn settling_fails_mismatched_digests_and_failed_cross_checks() {
        let rep = |d: &str| Rep {
            digest: d.into(),
            items: 1,
            work_s: 1.0,
            ..Rep::default()
        };
        let reps = || vec![rep("a"), rep("b"), rep("a")];
        let r = settle(
            Workload::Falsify,
            6,
            reps(),
            None,
            Some("a".into()),
            Vec::new(),
        );
        assert_eq!((r.attempted, r.failed, r.ok_reps().count()), (18, 6, 2));
        let ok = settle(
            Workload::Falsify,
            6,
            vec![rep("a")],
            None,
            Some("a".into()),
            Vec::new(),
        );
        assert!(ok.correct() && ok.traced.is_none());
        let cross = settle(
            Workload::DistSweep,
            6,
            vec![rep("a")],
            None,
            Some("a".into()),
            vec!["reference failed".into()],
        );
        assert_eq!((cross.attempted, cross.failed), (6, 6));
        assert!(!cross.correct());
    }

    #[test]
    fn majority_digest_ignores_failed_repetitions() {
        let rep = |d: &str, ok: bool| Rep {
            digest: d.into(),
            error: (!ok).then(|| "boom".into()),
            ..Rep::default()
        };
        let reps = [
            rep("a", true),
            rep("b", false),
            rep("b", false),
            rep("a", true),
            rep("c", true),
        ];
        assert_eq!(majority_digest(&reps), Some("a".into()));
        assert_eq!(majority_digest(&[]), None);
    }
}
