//! The traced repetition: the same work as an untraced one, run through
//! the timed wrappers of [`crate::timed`], followed by each workload's layer
//! analyses. It produces the per-layer metrics, a per-layer table, and
//! spans.
//!
//! The traced sweeps build their scenarios through a local copy of the
//! registry's label → adversary mapping; their outputs must equal the
//! untraced ones, which the runner checks by digest. Spans are kept in
//! memory at point and job granularity and written as JSONL at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ba_bench::check::{check_point, CheckLabel};
use ba_bench::dist::{input_bits, scenario_campaign_report, scenario_campaign_report_recorded};
use ba_check::CheckProgress;
use ba_core::lowerbound::FamilyRunner;
use ba_dist::{
    merge_campaign_report, plan_shards, point_seed, CoordEvent, Coordinator, Decode, Encode,
    LiveAggregates, ShardManifest, ShardReport,
};
use ba_obs::{json_escape, Aggregator, Recorder};
use ba_sim::{
    par_map, payload_reuse, Bit, CampaignReport, FullTrace, PayloadArena, ProcessId, Protocol,
    Round, ScenarioOutcome, ScenarioStats, StatsSink,
};

use crate::stats;
use crate::timed::{
    calibrate_clock, nanos, ns_since, ratio, run_timed, split_self_time, timed_factory, LayerClock,
    LayerTimes,
};
use crate::workload::{
    dist_spec, falsify_job, with_protocol, CheckJob, FalsifyJob, Input, Output, Sweep,
    DIST_WORKERS, THREADS,
};

/// Every per-layer metric a traced repetition reports, in `BENCHMARK.json`
/// order. A layer the workload does not exercise reports zero. The runner
/// adds `trace.overhead_frac`, which needs the untraced repetitions.
pub const LAYER_METRICS: &[&str] = &[
    "protocols.step_ns",
    "protocols.share",
    "crypto.keybook_share",
    "sim.fault.ns_per_msg",
    "sim.fault.share",
    "sim.sink.ns_per_msg",
    "sim.sink.share",
    "sim.sink.fulltrace_ns_per_msg",
    "sim.executor.ns_per_msg",
    "sim.executor.share",
    "sim.campaign.busy_frac",
    "sim.campaign.point_samples",
    "sim.campaign.point_us_p50",
    "sim.campaign.point_us_tail",
    "sim.campaign.point_tail_pct",
    "sim.msgs_per_point",
    "sim.rounds_per_point",
    "core.falsifier.executions",
    "core.falsifier.us_per_execution",
    "core.falsifier.survive_s",
    "core.falsifier.refute_s",
    "core.falsifier.verify_s",
    "core.falsifier.protocol_share",
    "sim.arena.distinct_frac",
    "sim.arena.compress_ns_per_payload",
    "check.states",
    "check.executions",
    "check.dedup_frac",
    "check.us_per_execution",
    "check.explore_s",
    "check.shrink_s",
    "check.verify_replay_s",
    "check.protocol_share",
    "dist.overhead_frac",
    "dist.first_point_ms",
    "dist.worker_busy_frac",
    "dist.encode_ns_per_point",
    "dist.decode_ns_per_point",
    "dist.wire_bytes_per_point",
    "dist.merge_ms",
    "dist.retries",
    "dist.fold_ns_per_event",
    "obs.recorder_overhead_frac",
];

// ---------------------------------------------------------------------------
// Spans, the layer table, and the traced result
// ---------------------------------------------------------------------------

/// One span: a named interval with the work counted inside it. Layer spans
/// cover their point's or job's interval and carry the layer's accumulated
/// busy time in `busy_ns`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Span {
    /// Identifier, unique within the repetition.
    pub id: u64,
    /// The enclosing span (`0` for the root).
    pub parent: u64,
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, in nanoseconds since the repetition's timed work began.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// The grid point or job index, when the span belongs to one.
    pub point: Option<usize>,
    /// Calls into the layer, or operations inside the span.
    pub calls: u64,
    /// Messages the span's executions carried.
    pub msgs: u64,
    /// Busy time inside the layer.
    pub busy_ns: u64,
}

/// One row of the per-layer table.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// Layer name.
    pub layer: &'static str,
    /// Calls into the layer.
    pub calls: u64,
    /// Time inside the layer, children included.
    pub busy_ns: u64,
    /// Time inside the layer, children excluded.
    pub self_ns: u64,
    /// Messages the layer handled.
    pub msgs: u64,
    /// Share of the workload's measured time (see the README).
    pub share: f64,
}

/// What a traced repetition reports besides its outputs.
#[derive(Clone, Default, Debug)]
pub struct Layers {
    /// Wall time of the traced version of the timed work: the numerator
    /// of `trace.overhead_frac`.
    pub work_s: f64,
    /// Every name in [`LAYER_METRICS`], with its value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The per-layer table.
    pub table: Vec<Row>,
    /// The spans, in creation order.
    pub spans: Vec<Span>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            metrics: LAYER_METRICS.iter().map(|&name| (name, 0.0)).collect(),
            ..Layers::default()
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.contains(&name),
            "undeclared layer metric {name}"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The `"layers"` and `"table"` members of the result line.
    pub fn to_json(&self) -> String {
        let mut out = format!("\"traced_work_s\":{},\"layers\":{{", self.work_s);
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push_str("},\"table\":[");
        for (i, r) in self.table.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"layer\":\"{}\",\"calls\":{},\"busy_ns\":{},\"self_ns\":{},\"msgs\":{},\"share\":{}}}",
                r.layer, r.calls, r.busy_ns, r.self_ns, r.msgs, r.share
            );
        }
        out.push(']');
        out
    }

    /// Writes the spans as JSONL.
    ///
    /// # Errors
    ///
    /// I/O errors, with the path.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("writing spans to {}: {e}", path.display());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for s in &self.spans {
            let point = s
                .point
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"point\":{point},\"calls\":{},\"msgs\":{},\"busy_ns\":{}}}",
                s.id,
                s.parent,
                json_escape(s.name),
                s.start_ns,
                s.end_ns,
                s.calls,
                s.msgs,
                s.busy_ns,
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

/// Span bookkeeping for one traced repetition.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// The root span's id.
const ROOT: u64 = 1;

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.origin))
    }

    #[allow(clippy::too_many_arguments)]
    fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        (start, end): (Instant, Instant),
        point: Option<usize>,
        calls: u64,
        msgs: u64,
        busy_ns: u64,
    ) -> u64 {
        let id = ROOT + 1 + self.spans.len() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            point,
            calls,
            msgs,
            busy_ns,
        };
        self.spans.push(span);
        id
    }

    fn finish(mut self, layers: &mut Layers, calls: u64) {
        let end = self.at(Instant::now());
        self.spans.insert(
            0,
            Span {
                id: ROOT,
                parent: 0,
                name: "rep",
                start_ns: 0,
                end_ns: end,
                point: None,
                calls,
                msgs: 0,
                busy_ns: end,
            },
        );
        layers.spans = self.spans;
    }
}

/// Runs a repetition traced: the same work as [`Input::run`], through the
/// timed wrappers, followed by the workload's layer analyses.
///
/// # Errors
///
/// As [`Input::run`], plus any mismatch between a traced and an untraced
/// result computed inside the repetition.
pub fn run(input: &Input, seed: u64) -> Result<(Output, Layers), String> {
    calibrate_clock();
    let mut tracer = Tracer::new();
    let mut layers = Layers::new();
    let output = match input {
        Input::Sweep(sweep) => traced_sweeps(sweep, &mut tracer, &mut layers)?,
        Input::Dist(sweep, worker) => traced_dist(sweep, worker, &mut tracer, &mut layers)?,
        Input::Falsify(jobs) => traced_falsify(jobs, &mut tracer, &mut layers)?,
        Input::Check(jobs, _) => traced_checks(jobs, seed, &mut tracer, &mut layers)?,
    };
    tracer.finish(&mut layers, input.operations());
    Ok((output, layers))
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

/// One traced point: when it ran, its layer totals and its size.
struct PointSample {
    start: Instant,
    end: Instant,
    times: LayerTimes,
    msgs: u64,
    rounds: u64,
}

fn traced_pass(
    sweep: &Sweep,
    base: u64,
) -> Result<(CampaignReport<Bit>, Vec<PointSample>), String> {
    // Reject unknown labels before fanning out.
    with_protocol!(sweep.protocol, 4, 1, _factory => ())?;
    let results = par_map(sweep.points.clone(), THREADS, |_, point| {
        let seed = point_seed(base, &point);
        let clock = Arc::new(LayerClock::default());
        let start = Instant::now();
        let result = with_protocol!(sweep.protocol, point.n, point.t, factory => {
            // The keybook (and the factory holding it) are point set-up.
            clock.add_build(start);
            run_timed(&point, seed, factory, &clock, StatsSink::new())
        })
        .and_then(|r| r);
        let end = Instant::now();
        let (msgs, rounds) = match &result {
            Ok(Ok(stats)) => (stats.total_messages, stats.rounds),
            _ => (0, 0),
        };
        let sample = PointSample {
            start,
            end,
            times: clock.times(),
            msgs,
            rounds,
        };
        (point, result, sample)
    });
    let mut outcomes = Vec::with_capacity(results.len());
    let mut samples = Vec::with_capacity(results.len());
    for (point, result, sample) in results {
        outcomes.push(ScenarioOutcome {
            point,
            result: result?,
        });
        samples.push(sample);
    }
    Ok((CampaignReport { outcomes }, samples))
}

fn traced_sweeps(
    sweep: &Sweep,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Output, String> {
    let mut reports = Vec::with_capacity(sweep.base_seeds.len());
    let mut totals = LayerTimes::default();
    let (mut point_ns, mut wall_ns, mut msgs, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let mut latencies_us = Vec::new();
    for &base in &sweep.base_seeds {
        let pass_start = Instant::now();
        let (report, samples) = traced_pass(sweep, base)?;
        let pass_end = Instant::now();
        wall_ns += nanos(pass_end - pass_start);
        let mut pass = LayerTimes::default();
        let (mut pass_point_ns, mut pass_msgs) = (0, 0);
        let pass_id = tracer.span(
            ROOT,
            "sweep",
            (pass_start, pass_end),
            None,
            samples.len() as u64,
            0,
            0,
        );
        for (index, s) in samples.iter().enumerate() {
            let ns = nanos(s.end - s.start);
            tracer.span(
                pass_id,
                "point",
                (s.start, s.end),
                Some(index),
                s.times.steps,
                s.msgs,
                ns,
            );
            pass += s.times;
            pass_point_ns += ns;
            pass_msgs += s.msgs;
            rounds += s.rounds;
            latencies_us.push(ns as f64 / 1e3);
        }
        let (parts, executor) = point_split(pass_point_ns, &pass);
        for (name, calls, busy) in [
            ("crypto", pass.builds, parts[0]),
            ("protocols", pass.steps, parts[1]),
            ("sim.fault", pass.fault_calls, parts[2]),
            ("sim.sink", pass.sink_calls, parts[3]),
            ("sim.executor", samples.len() as u64, executor),
        ] {
            tracer.span(
                pass_id,
                name,
                (pass_start, pass_end),
                None,
                calls,
                pass_msgs,
                busy,
            );
        }
        totals += pass;
        point_ns += pass_point_ns;
        msgs += pass_msgs;
        reports.push(report);
    }
    layers.work_s = wall_ns as f64 / 1e9;

    let points = latencies_us.len() as f64;
    let (parts, executor) = point_split(point_ns, &totals);
    let [crypto, protocol, fault, sink] = [parts[0], parts[1], parts[2], parts[3]];
    let share = |ns: u64| ratio(ns as f64, point_ns as f64);
    let per_msg = |ns: u64| ratio(ns as f64, msgs as f64);
    layers.set(
        "protocols.step_ns",
        ratio(protocol as f64, totals.steps as f64),
    );
    layers.set("protocols.share", share(protocol));
    layers.set("crypto.keybook_share", share(crypto));
    layers.set("sim.fault.ns_per_msg", per_msg(fault));
    layers.set("sim.fault.share", share(fault));
    layers.set("sim.sink.ns_per_msg", per_msg(sink));
    layers.set("sim.sink.share", share(sink));
    layers.set("sim.executor.ns_per_msg", per_msg(executor));
    layers.set("sim.executor.share", share(executor));
    layers.set(
        "sim.campaign.busy_frac",
        ratio(point_ns as f64, (THREADS as u64 * wall_ns) as f64),
    );
    layers.set("sim.campaign.point_samples", points);
    layers.set("sim.campaign.point_us_p50", stats::median(&latencies_us));
    if let Some((pct, value)) = stats::tail(&latencies_us) {
        layers.set("sim.campaign.point_tail_pct", f64::from(pct));
        layers.set("sim.campaign.point_us_tail", value);
    }
    layers.set("sim.msgs_per_point", ratio(msgs as f64, points));
    layers.set("sim.rounds_per_point", ratio(rounds as f64, points));
    layers.table = vec![
        row("crypto", totals.builds, crypto, crypto, msgs, share(crypto)),
        row(
            "protocols",
            totals.steps,
            protocol,
            protocol,
            msgs,
            share(protocol),
        ),
        row(
            "sim.fault",
            totals.fault_calls,
            fault,
            fault,
            msgs,
            share(fault),
        ),
        row("sim.sink", totals.sink_calls, sink, sink, msgs, share(sink)),
        row(
            "sim.executor",
            points as u64,
            point_ns - crypto,
            executor,
            msgs,
            share(executor),
        ),
        row(
            "sim.campaign",
            points as u64,
            point_ns,
            (THREADS as u64 * wall_ns).saturating_sub(point_ns),
            msgs,
            ratio(point_ns as f64, (THREADS as u64 * wall_ns) as f64),
        ),
    ];

    // The remaining analyses need Dolev–Strong's small points; on the
    // Phase King grid a full trace would hold tens of millions of
    // messages.
    if sweep.protocol == "dolev-strong" {
        full_trace_pass(sweep, sweep.base_seeds[0], &reports[0], tracer, layers)?;
        recorder_overhead(sweep, &reports[0], tracer, layers)?;
    }
    Ok(Output::Sweeps(reports))
}

/// Splits the points' wall time into crypto, protocol, fault and sink busy
/// time plus the executor's residual self time.
fn point_split(point_ns: u64, t: &LayerTimes) -> (Vec<u64>, u64) {
    split_self_time(
        point_ns,
        &[t.build_ns, t.protocol_ns, t.fault_ns, t.sink_ns],
    )
}

fn row(layer: &'static str, calls: u64, busy_ns: u64, self_ns: u64, msgs: u64, share: f64) -> Row {
    Row {
        layer,
        calls,
        busy_ns,
        self_ns,
        msgs,
        share,
    }
}

/// One `TraceMode::Full` pass over the grid at `base`, through the timed
/// sink: the full-trace recording cost per message, with every execution's
/// derived stats checked against `reference`, the stats-mode report.
fn full_trace_pass(
    sweep: &Sweep,
    base: u64,
    reference: &CampaignReport<Bit>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let start = Instant::now();
    let results = par_map(sweep.points.clone(), THREADS, |_, point| {
        let seed = point_seed(base, &point);
        let clock = Arc::new(LayerClock::default());
        let stats = with_protocol!(sweep.protocol, point.n, point.t, factory => {
            run_timed(&point, seed, factory, &clock, FullTrace::new())
                .map(|run| run.map(|exec| ScenarioStats::from_execution(&exec)))
        })
        .and_then(|r| r);
        (stats, clock.times().sink_ns)
    });
    let (mut sink_ns, mut msgs) = (0u64, 0u64);
    for ((stats, ns), outcome) in results.into_iter().zip(&reference.outcomes) {
        let stats = stats?;
        if stats != outcome.result {
            return Err(format!(
                "full-trace stats differ from stats mode at {}",
                outcome.point
            ));
        }
        if let Ok(s) = &stats {
            msgs += s.total_messages;
        }
        sink_ns += ns;
    }
    tracer.span(
        ROOT,
        "sim.sink.fulltrace",
        (start, Instant::now()),
        None,
        sweep.points.len() as u64,
        msgs,
        sink_ns,
    );
    layers.set(
        "sim.sink.fulltrace_ns_per_msg",
        ratio(sink_ns as f64, msgs as f64),
    );
    Ok(())
}

/// The telemetry recorder's cost: the first base seed's sweep with an
/// `Aggregator` installed against the bare sweep, three alternating pairs,
/// medians compared. Both must produce the same report.
fn recorder_overhead(
    sweep: &Sweep,
    reference: &CampaignReport<Bit>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let base = sweep.base_seeds[0];
    let (mut bare, mut recorded) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for _ in 0..3 {
        let t = Instant::now();
        let plain = scenario_campaign_report(&sweep.points, sweep.protocol, base, THREADS)?;
        bare.push(ns_since(t) as f64);
        let t = Instant::now();
        let observed = scenario_campaign_report_recorded(
            &sweep.points,
            sweep.protocol,
            base,
            THREADS,
            Arc::new(Aggregator::new()),
        )?;
        recorded.push(ns_since(t) as f64);
        if plain != *reference || observed != *reference {
            return Err("a recorded sweep differs from the bare sweep".into());
        }
    }
    tracer.span(
        ROOT,
        "obs.recorder",
        (start, Instant::now()),
        None,
        6,
        0,
        recorded.iter().sum::<f64>() as u64,
    );
    layers.set(
        "obs.recorder_overhead_frac",
        ratio(stats::median(&recorded), stats::median(&bare)) - 1.0,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Distributed sweep
// ---------------------------------------------------------------------------

fn traced_dist(
    sweep: &Sweep,
    worker: &ba_dist::WorkerCommand,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Output, String> {
    let events: Arc<Mutex<Vec<(Instant, CoordEvent)>>> = Arc::default();
    let sink = events.clone();
    let coordinator =
        Coordinator::new(worker.clone().with_progress(true), DIST_WORKERS).on_event(move |e| {
            let now = Instant::now();
            sink.lock()
                .expect("event log poisoned")
                .push((now, e.clone()));
        });
    let mut reports = Vec::with_capacity(sweep.base_seeds.len());
    let mut runs = Vec::with_capacity(sweep.base_seeds.len());
    for &base in &sweep.base_seeds {
        let start = Instant::now();
        let report = coordinator
            .run_campaign(&dist_spec(sweep, base))
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        tracer.span(
            ROOT,
            "dist.run",
            (start, end),
            None,
            sweep.points.len() as u64,
            0,
            nanos(end - start),
        );
        runs.push((start, end));
        reports.push(report);
    }
    let dist_ns: u64 = runs.iter().map(|(s, e)| nanos(*e - *s)).sum();
    layers.work_s = dist_ns as f64 / 1e9;
    let events = std::mem::take(&mut *events.lock().expect("event log poisoned"));

    // Per coordinator run: time to the first finished point, and each
    // shard's busy time (its last progress stamp, measured by the worker
    // from the start of its shard).
    let (mut first_ms, mut worker_busy_ns, mut retries) = (Vec::new(), 0u64, 0u64);
    for &(start, end) in &runs {
        let mut shard_busy: BTreeMap<usize, u64> = BTreeMap::new();
        let mut first: Option<Instant> = None;
        for (at, event) in events.iter().filter(|(at, _)| *at >= start && *at <= end) {
            match event {
                CoordEvent::Point(p) => {
                    first = Some(first.map_or(*at, |f| f.min(*at)));
                    let busy = shard_busy.entry(p.shard).or_default();
                    *busy = (*busy).max(p.elapsed_nanos);
                }
                CoordEvent::Retry { .. } => retries += 1,
                _ => {}
            }
        }
        if let Some(f) = first {
            first_ms.push(nanos(f - start) as f64 / 1e6);
        }
        worker_busy_ns += shard_busy.values().sum::<u64>();
    }
    layers.set("dist.first_point_ms", stats::median(&first_ms));
    layers.set(
        "dist.worker_busy_frac",
        ratio(
            worker_busy_ns as f64,
            (DIST_WORKERS as u64 * dist_ns) as f64,
        ),
    );
    layers.set("dist.retries", retries as f64);

    // The coordinator's fold of the event stream, replayed.
    let mut aggregates = LiveAggregates::new();
    let t = Instant::now();
    for (_, event) in &events {
        aggregates.ingest_coord(event);
    }
    let fold_ns = ns_since(t);
    layers.set(
        "dist.fold_ns_per_event",
        ratio(fold_ns as f64, events.len() as f64),
    );

    // The in-process reference on the same grid and seeds — merge(2) must
    // equal run(1) — and the wire codec and merge, timed on its outcomes.
    let (mut reference_ns, mut encode_ns, mut decode_ns, mut merge_ns, mut bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (&base, dist_report) in sweep.base_seeds.iter().zip(&reports) {
        let start = Instant::now();
        let reference = scenario_campaign_report(&sweep.points, sweep.protocol, base, THREADS)?;
        reference_ns += ns_since(start);
        tracer.span(
            ROOT,
            "dist.reference",
            (start, Instant::now()),
            None,
            sweep.points.len() as u64,
            0,
            ns_since(start),
        );
        if *dist_report != reference {
            return Err(format!(
                "merge({DIST_WORKERS}) differs from run(1) at base seed {base}"
            ));
        }
        let mut decoded = Vec::new();
        for manifest in plan_shards(&dist_spec(sweep, base), DIST_WORKERS) {
            let t = Instant::now();
            let manifest_wire = manifest.to_wire();
            encode_ns += ns_since(t);
            let t = Instant::now();
            let manifest_back =
                ShardManifest::from_wire(&manifest_wire).map_err(|e| e.to_string())?;
            decode_ns += ns_since(t);
            if manifest_back != manifest {
                return Err("a shard manifest does not survive its wire round trip".into());
            }
            let report = ShardReport {
                shard: manifest.shard,
                outcomes: manifest
                    .entries
                    .iter()
                    .map(|e| (e.index, reference.outcomes[e.index].result.clone()))
                    .collect(),
            };
            let t = Instant::now();
            let report_wire = report.to_wire();
            encode_ns += ns_since(t);
            let t = Instant::now();
            let report_back = ShardReport::<ScenarioStats<Bit>>::from_wire(&report_wire)
                .map_err(|e| e.to_string())?;
            decode_ns += ns_since(t);
            bytes += (manifest_wire.len() + report_wire.len()) as u64;
            decoded.push(report_back);
        }
        let t = Instant::now();
        let merged = merge_campaign_report(&sweep.points, decoded).map_err(|e| e.to_string())?;
        merge_ns += ns_since(t);
        if merged != reference {
            return Err(format!(
                "the wire-level merge differs from run(1) at base seed {base}"
            ));
        }
    }
    let points = (sweep.points.len() * sweep.base_seeds.len()) as f64;
    layers.set(
        "dist.overhead_frac",
        ratio(dist_ns as f64, reference_ns as f64) - 1.0,
    );
    layers.set("dist.encode_ns_per_point", ratio(encode_ns as f64, points));
    layers.set("dist.decode_ns_per_point", ratio(decode_ns as f64, points));
    layers.set("dist.wire_bytes_per_point", ratio(bytes as f64, points));
    layers.set("dist.merge_ms", merge_ns as f64 / 1e6);
    let share = |ns: u64| ratio(ns as f64, dist_ns as f64);
    let coordinator_self = dist_ns.saturating_sub(reference_ns);
    layers.table = vec![
        row(
            "dist.coordinator",
            runs.len() as u64,
            dist_ns,
            coordinator_self,
            0,
            share(coordinator_self),
        ),
        row(
            "dist.in-process",
            runs.len() as u64,
            reference_ns,
            reference_ns,
            0,
            share(reference_ns),
        ),
        row(
            "dist.encode",
            2 * DIST_WORKERS as u64 * runs.len() as u64,
            encode_ns,
            encode_ns,
            0,
            share(encode_ns),
        ),
        row(
            "dist.decode",
            2 * DIST_WORKERS as u64 * runs.len() as u64,
            decode_ns,
            decode_ns,
            0,
            share(decode_ns),
        ),
        row(
            "dist.merge",
            runs.len() as u64,
            merge_ns,
            merge_ns,
            0,
            share(merge_ns),
        ),
        row(
            "dist.fold",
            events.len() as u64,
            fold_ns,
            fold_ns,
            0,
            share(fold_ns),
        ),
    ];
    Ok(Output::Sweeps(reports))
}

// ---------------------------------------------------------------------------
// Falsifier
// ---------------------------------------------------------------------------

/// Counts the executions the falsifier constructs, from its telemetry.
#[derive(Default)]
struct ExecutionCounter(AtomicU64);

impl Recorder for ExecutionCounter {
    fn counter(&self, name: &str, delta: u64, _labels: &[(&str, &str)]) {
        if name == "falsifier.executions" {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// Payload-slot and distinct-payload counts of `E_B(1..4)` at a job's
/// size, with the time `Execution::compress` takes on them.
fn arena_profile<P, F>(job: &FalsifyJob, factory: &F) -> Result<(u64, u64, u64), String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let cfg = job.config();
    let runner = FamilyRunner::new(cfg.executor_config(), factory, cfg.partition());
    let (mut slots, mut distinct, mut compress_ns) = (0u64, 0u64, 0u64);
    for k in 1..=4 {
        let exec = runner
            .isolated_b::<P>(Round(k), Bit::Zero)
            .map_err(|e| format!("E_B({k}) at ({}, {}): {e}", job.n, job.t))?;
        let (s, d) = payload_reuse(&exec);
        let t = Instant::now();
        let compressed = exec.compress(&mut PayloadArena::new());
        compress_ns += ns_since(t);
        std::hint::black_box(compressed);
        slots += s as u64;
        distinct += d as u64;
    }
    Ok((slots, distinct, compress_ns))
}

fn traced_falsify(
    jobs: &[FalsifyJob],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Output, String> {
    let mut verdicts = Vec::with_capacity(jobs.len());
    let mut totals = LayerTimes::default();
    let (mut survive_ns, mut refute_ns, mut verify_ns, mut executions) = (0u64, 0u64, 0u64, 0u64);
    for (index, job) in jobs.iter().enumerate() {
        let clock = Arc::new(LayerClock::default());
        let counter = Arc::new(ExecutionCounter::default());
        let cfg = job.config().with_recorder(counter.clone());
        let mut verified = Duration::ZERO;
        let start = Instant::now();
        let verdict = with_protocol!(job.protocol, job.n, job.t, factory => {
            falsify_job(&cfg, timed_factory(factory, &clock), |d| verified = d)
        })??;
        let end = Instant::now();
        let falsify_ns = nanos(end - start).saturating_sub(nanos(verified));
        let times = clock.times();
        let job_id = tracer.span(
            ROOT,
            "falsify.job",
            (start, end),
            Some(index),
            times.steps,
            0,
            falsify_ns,
        );
        tracer.span(
            job_id,
            "protocols",
            (start, end),
            Some(index),
            times.steps,
            0,
            times.protocol_ns,
        );
        tracer.span(
            job_id,
            "core.falsifier.verify",
            (start, end),
            Some(index),
            u64::from(verdict.refuted),
            0,
            nanos(verified),
        );
        if verdict.refuted {
            refute_ns += falsify_ns;
        } else {
            survive_ns += falsify_ns;
        }
        verify_ns += nanos(verified);
        executions += counter.0.load(Ordering::Relaxed);
        totals += times;
        verdicts.push(verdict);
    }
    let falsify_ns = survive_ns + refute_ns;
    layers.work_s = (falsify_ns + verify_ns) as f64 / 1e9;

    let (mut slots, mut distinct, mut compress_ns) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for job in jobs {
        let (s, d, ns) =
            with_protocol!(job.protocol, job.n, job.t, factory => arena_profile(job, &factory))??;
        slots += s;
        distinct += d;
        compress_ns += ns;
    }
    tracer.span(
        ROOT,
        "sim.arena",
        (start, Instant::now()),
        None,
        4 * jobs.len() as u64,
        slots,
        compress_ns,
    );

    let capacity = THREADS as u64 * falsify_ns;
    let protocol_share = ratio(totals.protocol_ns as f64, capacity as f64);
    layers.set(
        "protocols.step_ns",
        ratio(totals.protocol_ns as f64, totals.steps as f64),
    );
    layers.set("protocols.share", protocol_share);
    layers.set("core.falsifier.executions", executions as f64);
    layers.set(
        "core.falsifier.us_per_execution",
        ratio(falsify_ns as f64 / 1e3, executions as f64),
    );
    layers.set("core.falsifier.survive_s", survive_ns as f64 / 1e9);
    layers.set("core.falsifier.refute_s", refute_ns as f64 / 1e9);
    layers.set("core.falsifier.verify_s", verify_ns as f64 / 1e9);
    layers.set("core.falsifier.protocol_share", protocol_share);
    layers.set(
        "sim.arena.distinct_frac",
        ratio(distinct as f64, slots as f64),
    );
    layers.set(
        "sim.arena.compress_ns_per_payload",
        ratio(compress_ns as f64, slots as f64),
    );
    let (parts, rest) = split_self_time(capacity, &[totals.protocol_ns]);
    layers.table = vec![
        row(
            "protocols",
            totals.steps,
            parts[0],
            parts[0],
            0,
            ratio(parts[0] as f64, capacity as f64),
        ),
        row(
            "core.falsifier",
            executions,
            capacity,
            rest,
            0,
            ratio(rest as f64, capacity as f64),
        ),
        row(
            "core.falsifier.verify",
            jobs.iter().filter(|j| j.refute).count() as u64,
            verify_ns,
            verify_ns,
            0,
            ratio(verify_ns as f64, falsify_ns as f64),
        ),
    ];
    Ok(Output::Falsify(verdicts))
}

// ---------------------------------------------------------------------------
// Model checker
// ---------------------------------------------------------------------------

/// One traced check: explore (until the checker's final progress flush),
/// shrink (the rest of `check`), then certificate re-verification and tape
/// replay exactly as `ba_bench::dist::registry_check` performs them.
fn traced_check<P, F>(
    job: &CheckJob,
    seed: u64,
    factory: F,
    clock: &Arc<LayerClock>,
) -> Result<(ba_bench::check::CheckSweepPoint, [Instant; 4]), String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let point = job.point();
    let proposals = input_bits(&point.inputs, point.n, point_seed(seed, &point));
    let factory = timed_factory(factory, clock);
    let last_progress = Mutex::new(None);
    let hook = |_: CheckProgress| {
        *last_progress.lock().expect("progress stamp poisoned") = Some(Instant::now());
    };
    let start = Instant::now();
    let (sweep, outcome) = check_point(&point, &factory, &proposals, THREADS, Some(&hook))?;
    let checked = Instant::now();
    let explored = last_progress
        .lock()
        .expect("progress stamp poisoned")
        .unwrap_or(checked);
    if let Some(found) = outcome.violation() {
        found
            .certificate
            .verify()
            .map_err(|e| format!("violation certificate failed to re-verify: {e}"))?;
        let spec = CheckLabel::parse(&point.adversary)?.to_spec(point.n, point.t);
        let replay = ba_check::replay(&spec, &factory, &proposals, &found.choices)
            .map_err(|e| format!("violation tape failed to replay: {e}"))?;
        if replay.corrupted != found.corrupted
            || replay.choices != found.choices
            || replay.violation.is_none()
            || replay.execution != found.certificate.execution
        {
            return Err(format!(
                "replayed tape diverges from the reported violation at {point}"
            ));
        }
    }
    Ok((sweep, [start, explored, checked, Instant::now()]))
}

fn traced_checks(
    jobs: &[CheckJob],
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Output, String> {
    let mut points = Vec::with_capacity(jobs.len());
    let mut totals = LayerTimes::default();
    let (mut explore_ns, mut shrink_ns, mut verify_ns) = (0u64, 0u64, 0u64);
    for (index, job) in jobs.iter().enumerate() {
        let clock = Arc::new(LayerClock::default());
        let (sweep, [start, explored, checked, end]) = with_protocol!(job.protocol, job.n, job.t, factory => traced_check(job, seed, factory, &clock))??;
        let times = clock.times();
        let job_id = tracer.span(
            ROOT,
            "check.job",
            (start, end),
            Some(index),
            sweep.executions,
            0,
            nanos(end - start),
        );
        tracer.span(
            job_id,
            "check.explore",
            (start, explored),
            Some(index),
            sweep.executions,
            0,
            nanos(explored - start),
        );
        tracer.span(
            job_id,
            "check.shrink",
            (explored, checked),
            Some(index),
            0,
            0,
            nanos(checked - explored),
        );
        tracer.span(
            job_id,
            "check.verify_replay",
            (checked, end),
            Some(index),
            u64::from(sweep.refuted),
            0,
            nanos(end - checked),
        );
        tracer.span(
            job_id,
            "protocols",
            (start, end),
            Some(index),
            times.steps,
            0,
            times.protocol_ns,
        );
        explore_ns += nanos(explored - start);
        shrink_ns += nanos(checked - explored);
        verify_ns += nanos(end - checked);
        totals += times;
        points.push(sweep);
    }
    let wall_ns = explore_ns + shrink_ns + verify_ns;
    layers.work_s = wall_ns as f64 / 1e9;
    let states: u64 = points.iter().map(|p| p.states()).sum();
    let executions: u64 = points.iter().map(|p| p.executions).sum();
    let capacity = THREADS as u64 * wall_ns;
    let protocol_share = ratio(totals.protocol_ns as f64, capacity as f64);
    layers.set(
        "protocols.step_ns",
        ratio(totals.protocol_ns as f64, totals.steps as f64),
    );
    layers.set("protocols.share", protocol_share);
    layers.set("check.states", states as f64);
    layers.set("check.executions", executions as f64);
    layers.set(
        "check.dedup_frac",
        1.0 - ratio(states as f64, executions as f64),
    );
    layers.set(
        "check.us_per_execution",
        ratio(explore_ns as f64 / 1e3, executions as f64),
    );
    layers.set("check.explore_s", explore_ns as f64 / 1e9);
    layers.set("check.shrink_s", shrink_ns as f64 / 1e9);
    layers.set("check.verify_replay_s", verify_ns as f64 / 1e9);
    layers.set("check.protocol_share", protocol_share);
    let share = |ns: u64| ratio(ns as f64, wall_ns as f64);
    layers.table = vec![
        row(
            "protocols",
            totals.steps,
            totals.protocol_ns,
            totals.protocol_ns,
            0,
            protocol_share,
        ),
        row(
            "check.explore",
            executions,
            explore_ns,
            explore_ns,
            0,
            share(explore_ns),
        ),
        row(
            "check.shrink",
            jobs.iter().filter(|j| j.refute).count() as u64,
            shrink_ns,
            shrink_ns,
            0,
            share(shrink_ns),
        ),
        row(
            "check.verify_replay",
            jobs.iter().filter(|j| j.refute).count() as u64,
            verify_ns,
            verify_ns,
            0,
            share(verify_ns),
        ),
    ];
    Ok(Output::Checks(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_wrappers_leave_stats_bit_identical_on_a_small_grid() {
        // Every adversary label and input profile at small sizes, for both
        // sweep protocols, stats and full-trace sinks alike.
        let grid = ba_sim::Campaign::grid(
            [(8, 1), (9, 2), (13, 4)],
            ba_bench::dist::ADVERSARIES,
            &["ones", "random", "alternating", "majority-one"],
        );
        for protocol in ["dolev-strong", "phase-king"] {
            let sweep = Sweep {
                protocol,
                points: grid.points().to_vec(),
                base_seeds: vec![7, 8],
            };
            for &base in &sweep.base_seeds {
                let plain = scenario_campaign_report(&sweep.points, protocol, base, 1).unwrap();
                let (timed, samples) = traced_pass(&sweep, base).unwrap();
                assert_eq!(timed, plain, "{protocol} at base seed {base}");
                assert!(samples
                    .iter()
                    .all(|s| s.times.steps > 0 && s.end >= s.start));
                let mut tracer = Tracer::new();
                let mut layers = Layers::new();
                full_trace_pass(&sweep, base, &plain, &mut tracer, &mut layers).unwrap();
            }
        }
    }

    #[test]
    fn every_layer_metric_is_declared_as_per_layer() {
        let spec = crate::spec::spec();
        for name in LAYER_METRICS {
            assert!(
                spec.per_layer.iter().any(|m| m.name == *name),
                "{name} is not declared"
            );
        }
        let layers = Layers::new();
        assert_eq!(layers.metrics.len(), LAYER_METRICS.len());
    }
}
