//! The worker side of distributed campaign sharding, plus the
//! coordinator-facing sweep entry points.
//!
//! `ba-dist` is deliberately protocol-agnostic: manifests name protocols by
//! **label**, and this module owns the registry that resolves labels into
//! concrete `ba-protocols` factories. Both halves of a distributed sweep run
//! through the *same* functions here — the worker executes
//! [`run_manifest`] on its shard, and the in-process reference paths
//! ([`scenario_campaign_report`], [`ba_bench::falsifier_sweep`](crate::falsifier_sweep))
//! execute the identical per-point computation — which is what makes
//! `coordinator(k shards) == run(1 process)` an equality of values, not an
//! approximation.
//!
//! ## Registry labels
//!
//! Scenario + falsifier protocols: `flood-set`, `dolev-strong`,
//! `leader-echo`, `own-proposal`, `one-round-all-to-all`, `paranoid-echo`,
//! `silent-constant-1`, `phase-king`, and `phase-king-weak` (Phase King cut
//! to `max(t, 1)` phases — deliberately unsafe prey for the adversary
//! search); the phase-king variants require `n > 3t` grids.
//!
//! Adversary labels (scenario mode): `none`, `isolation` (last process
//! isolated from round 2), `crash` (last process crash-stops at round 2),
//! `random-omission` (last process, seeded per-point drop coin-flips),
//! and the adaptive fault-model family — `adaptive-worst-case` (corrupts
//! and mutes the `t` chattiest processes after observing round 1),
//! `mobile` (corruption moves through the last `t` processes, two rounds
//! each), `scheduler` (seeded per-point delivery reordering against a
//! capacity-limited last process).
//! Input labels: `default`/`zeros`, `ones`, `alternating`, `one-hot`,
//! `majority-one` (all `1` except the last process), `random` (seeded
//! per-point).
//!
//! Search-mode manifests ([`ba_dist::ShardMode::Search`]) carry an encoded
//! `ba-search` strategy genome as each point's adversary label
//! (`genome:…`); the worker interprets it with
//! [`ba_search::GenomeModel`] and reports plain `ScenarioStats`, so a
//! coordinator can fan a search population out across shards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ba_check::{CheckError, CheckProgress, CheckSpec};
use ba_core::lowerbound::FalsifierConfig;
use ba_crypto::Keybook;
use ba_dist::{
    CoordEvent, Coordinator, Decode, DistError, Encode, ProgressEvent, ShardManifest, ShardMode,
    ShardReport, SweepSpec, WireError, WireReader, WorkerCommand,
};
use ba_obs::{FieldValue, Recorder};
use ba_protocols::broken::{
    LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_search::{genome_from_label, GenomeModel};
use ba_sim::{
    Adversary, Bit, Campaign, CampaignPoint, CampaignReport, ProcessId, Protocol,
    RandomOmissionPlan, Round, Scenario, SimRng, TraceMode,
};

use crate::check::{check_point, point_spec, CheckSweepPoint};
use crate::{falsify_point_recorded, FalsifierSweepPoint};

/// Labels resolvable by [`run_manifest`] (scenario and falsifier modes
/// alike). `phase-king` additionally requires `n > 3t` at every grid point.
pub const REGISTRY: &[&str] = &[
    "flood-set",
    "dolev-strong",
    "leader-echo",
    "own-proposal",
    "one-round-all-to-all",
    "paranoid-echo",
    "silent-constant-1",
    "phase-king",
    "phase-king-weak",
];

/// Adversary labels interpreted by scenario-mode workers.
pub const ADVERSARIES: &[&str] = &[
    "none",
    "isolation",
    "crash",
    "random-omission",
    "adaptive-worst-case",
    "mobile",
    "scheduler",
];

/// Input-profile labels interpreted by scenario-mode workers.
pub const INPUTS: &[&str] = &[
    "default",
    "zeros",
    "ones",
    "alternating",
    "one-hot",
    "majority-one",
    "random",
];

/// Resolves an input label into the `n` proposals scenario-mode and
/// search-mode workers hand to the processes, using the point seed for the
/// `random` label. Unknown labels fall back to all-zeros, matching
/// [`run_manifest`]'s behavior after validation.
pub fn input_bits(label: &str, n: usize, seed: u64) -> Vec<Bit> {
    match label {
        "ones" => vec![Bit::One; n],
        "alternating" => (0..n).map(|i| Bit::from(i % 2 == 1)).collect(),
        "one-hot" => (0..n).map(|i| Bit::from(i == 0)).collect(),
        "majority-one" => (0..n).map(|i| Bit::from(i + 1 != n)).collect(),
        "random" => {
            let mut rng = SimRng::seed_from_u64(seed ^ 0x1);
            (0..n).map(|_| Bit::from(rng.gen_bool(0.5))).collect()
        }
        // "default" / "zeros".
        _ => vec![Bit::Zero; n],
    }
}

/// Executes one shard manifest and returns the encoded [`ShardReport`] —
/// the entire body of the `campaign_worker` binary.
///
/// # Errors
///
/// Returns a human-readable message for unknown protocol / adversary /
/// input labels (the worker prints it to stderr and exits non-zero).
pub fn run_manifest(manifest: &ShardManifest) -> Result<String, String> {
    run_manifest_recorded(manifest, None)
}

/// [`run_manifest`] streaming one [`ProgressEvent`] per completed point to
/// `on_point` (from the campaign worker threads, as points finish) — the
/// body of `campaign_worker --progress`. Telemetry is observation-only: the
/// returned report is bit-identical to [`run_manifest`]'s.
///
/// # Errors
///
/// As [`run_manifest`].
pub fn run_manifest_with_progress(
    manifest: &ShardManifest,
    on_point: impl Fn(ProgressEvent) + Send + Sync + 'static,
) -> Result<String, String> {
    let recorder = ProgressRecorder {
        shard: manifest.shard,
        shards: manifest.shards,
        total: manifest.entries.len(),
        indices: manifest.entries.iter().map(|e| e.index).collect(),
        done: AtomicUsize::new(0),
        started: Instant::now(),
        on_point,
    };
    run_manifest_recorded(manifest, Some(Arc::new(recorder)))
}

/// [`run_manifest`] with an arbitrary telemetry [`Recorder`] installed on
/// the shard's campaign (e.g. a [`ba_obs::Aggregator`] for end-of-shard
/// summaries, or a [`ba_obs::JsonlRecorder`] for full event streams).
///
/// # Errors
///
/// As [`run_manifest`].
pub fn run_manifest_recorded(
    manifest: &ShardManifest,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<String, String> {
    let points: Vec<CampaignPoint> = manifest.entries.iter().map(|e| e.point.clone()).collect();
    match manifest.mode {
        ShardMode::Scenarios => {
            let seeds: BTreeMap<CampaignPoint, u64> = manifest
                .entries
                .iter()
                .map(|e| (e.point.clone(), e.seed))
                .collect();
            let report = scenario_report_with(
                &points,
                |point| seeds[point],
                manifest.threads,
                &manifest.protocol,
                TraceMode::Stats,
                recorder,
            )?;
            let shard_report = ShardReport {
                shard: manifest.shard,
                outcomes: manifest
                    .entries
                    .iter()
                    .zip(report.outcomes)
                    .map(|(entry, outcome)| (entry.index, outcome.result))
                    .collect(),
            };
            Ok(shard_report.to_wire())
        }
        ShardMode::Falsifier => {
            validate_falsifier_points(&points)?;
            let sweep =
                falsifier_report_with(&points, manifest.threads, &manifest.protocol, recorder)?;
            let shard_report = ShardReport {
                shard: manifest.shard,
                outcomes: manifest
                    .entries
                    .iter()
                    .zip(sweep)
                    .map(|(entry, fp)| (entry.index, Ok(fp)))
                    .collect(),
            };
            Ok(shard_report.to_wire())
        }
        ShardMode::Search => {
            let seeds: BTreeMap<CampaignPoint, u64> = manifest
                .entries
                .iter()
                .map(|e| (e.point.clone(), e.seed))
                .collect();
            let report = search_report_with(
                &points,
                |point| seeds[point],
                manifest.threads,
                &manifest.protocol,
                recorder,
            )?;
            let shard_report = ShardReport {
                shard: manifest.shard,
                outcomes: manifest
                    .entries
                    .iter()
                    .zip(report.outcomes)
                    .map(|(entry, outcome)| (entry.index, outcome.result))
                    .collect(),
            };
            Ok(shard_report.to_wire())
        }
        ShardMode::Check => {
            validate_check_labels(&points)?;
            with_registry_factory!(manifest.protocol.as_str(), factory => {
                ShardReport {
                    shard: manifest.shard,
                    outcomes: check_entries(manifest, factory, recorder, None, None)?,
                }
                .to_wire()
            })
        }
    }
}

/// Rejects malformed `check:` adversary labels, points the executor
/// cannot run (`t ≥ n`) and check spaces whose corruption enumeration is
/// refused as too large — *before* any work runs, so a worker never
/// half-explores a misconfigured sweep.
fn validate_check_labels(points: &[CampaignPoint]) -> Result<(), String> {
    for point in points {
        let spec: CheckSpec<Bit> = point_spec(point)?;
        spec.corruption_subsets()
            .map_err(|e| format!("check at {point}: {e}"))?;
    }
    Ok(())
}

/// Rejects falsifier points the Theorem 2 argument cannot run at (see
/// [`FalsifierConfig::try_new`]) before any work runs.
fn validate_falsifier_points(points: &[CampaignPoint]) -> Result<(), String> {
    for point in points {
        FalsifierConfig::try_new(point.n, point.t)
            .map_err(|e| format!("falsifier at {point}: {e}"))?;
    }
    Ok(())
}

type CheckOutcomes = Vec<(usize, Result<CheckSweepPoint, ba_sim::SimError>)>;

/// Runs a check-mode shard's entries **sequentially**: each entry is one
/// slice of an exhaustive model-check space (the slice assignment lives in
/// the point's `check:` label), and the explorer parallelizes internally
/// over the shard's thread budget — per-point parallelism on top would
/// oversubscribe without changing any outcome (the explorer is
/// thread-count invariant). Simulator failures surface as that point's
/// `Err` outcome; `on_progress` observes live exploration snapshots.
fn check_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    recorder: Option<Arc<dyn Recorder>>,
    on_progress: Option<&(dyn Fn(usize, CheckProgress) + Sync)>,
    sink: Option<&StreamSink<'_>>,
) -> Result<CheckOutcomes, String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let mut outcomes = Vec::with_capacity(manifest.entries.len());
    for (local, entry) in manifest.entries.iter().enumerate() {
        let spec: CheckSpec<P::Msg> = point_spec(&entry.point)?;
        let proposals = input_bits(&entry.point.inputs, entry.point.n, entry.seed);
        let hook = on_progress.map(|sink| move |p: CheckProgress| sink(local, p));
        let outcome = ba_check::check_with_progress(
            &spec,
            factory(&entry.point),
            &proposals,
            manifest.threads,
            hook.as_ref().map(|h| h as &(dyn Fn(CheckProgress) + Sync)),
        );
        let mut result = match outcome {
            Ok(outcome) => Ok(CheckSweepPoint::from_outcome(entry.point.clone(), &outcome)),
            Err(CheckError::Sim(e)) => Err(e),
            // Caught by eager validation; a late surprise is still fatal.
            Err(refused @ CheckError::SpaceTooLarge { .. }) => {
                return Err(format!("check at {}: {refused}", entry.point))
            }
        };
        let (messages, rounds, ok) = match &result {
            Ok(sweep) => (sweep.executions, sweep.max_depth, true),
            Err(_) => (0, 0, false),
        };
        if let Some(r) = recorder.as_ref() {
            r.event(
                "campaign.point.done",
                &[
                    ("index", FieldValue::U64(local as u64)),
                    ("messages", FieldValue::U64(messages)),
                    ("rounds", FieldValue::U64(rounds)),
                    ("ok", FieldValue::Bool(ok)),
                ],
            );
        }
        if let Some(s) = sink {
            result = s.point(entry.index, result, messages, rounds, ok);
        }
        outcomes.push((entry.index, result));
    }
    Ok(outcomes)
}

/// [`run_manifest`] in **streaming** mode — the body of `campaign_worker
/// --stream` and of the TCP shard server: one checksummed `outcome` wire
/// line per completed point is handed to `emit` *as the point finishes*
/// (from the worker threads), followed by the complete [`ShardReport`].
/// With `progress`, a JSONL [`ProgressEvent`] line follows each outcome.
///
/// The trailing report is bit-identical to [`run_manifest`]'s, and every
/// streamed outcome byte-matches the corresponding report item — streaming
/// is pure redundancy, which is exactly what point-level recovery needs: a
/// worker that dies after k points has already delivered those k outcomes,
/// and the coordinator's dedup-on-merge discards the duplication when the
/// report does arrive.
///
/// Every `emit` chunk is one or more complete `\n`-terminated lines;
/// callers only need to forward chunks verbatim (per-chunk locking makes
/// the interleaving from concurrent worker threads line-atomic).
///
/// # Errors
///
/// As [`run_manifest`]; label validation happens before anything is
/// emitted.
pub fn run_manifest_streaming(
    manifest: &ShardManifest,
    progress: bool,
    emit: &(dyn Fn(&str) + Sync),
) -> Result<(), String> {
    let points: Vec<CampaignPoint> = manifest.entries.iter().map(|e| e.point.clone()).collect();
    match manifest.mode {
        ShardMode::Scenarios => {
            validate_labels(&points)?;
            with_registry_factory!(manifest.protocol.as_str(), factory => {
                stream_scenario_entries(manifest, factory, false, progress, emit)
            })
        }
        ShardMode::Search => {
            validate_search_labels(&points)?;
            with_registry_factory!(manifest.protocol.as_str(), factory => {
                stream_scenario_entries(manifest, factory, true, progress, emit)
            })
        }
        ShardMode::Falsifier => {
            validate_falsifier_points(&points)?;
            with_registry_factory!(manifest.protocol.as_str(), factory => {
                stream_falsifier_entries(manifest, factory, progress, emit)
            })
        }
        ShardMode::Check => {
            validate_check_labels(&points)?;
            with_registry_factory!(manifest.protocol.as_str(), factory => {
                stream_check_entries(manifest, factory, progress, emit)?
            })
        }
    }
}

/// Runs one in-process exhaustive check for a named [`REGISTRY`] protocol
/// — the `model_check` binary's engine. The point's `check:` adversary
/// label carries the space, its input label resolves through
/// [`input_bits`] (seeded by [`ba_dist::point_seed`] for `random`). A
/// violation is end-to-end validated before it is reported: its
/// certificate must re-verify, and its shrunk choice tape must replay —
/// by direct fault-model interpretation — to the same corruption set,
/// canonical tape, and violating execution.
///
/// # Errors
///
/// Returns a message for unknown protocol labels, malformed check labels,
/// resilience bounds the executor cannot run (`t ≥ n`), refused spaces,
/// simulator failures, and violations that fail revalidation (an explorer
/// bug).
pub fn registry_check(
    point: &CampaignPoint,
    protocol: &str,
    base_seed: u64,
    threads: usize,
    hook: Option<&(dyn Fn(CheckProgress) + Sync)>,
) -> Result<CheckSweepPoint, String> {
    let proposals = input_bits(
        &point.inputs,
        point.n,
        ba_dist::point_seed(base_seed, point),
    );
    with_registry_factory!(protocol, factory => {
        let (sweep, outcome) = check_point(point, factory(point), &proposals, threads, hook)?;
        if let Some(found) = outcome.violation() {
            found
                .certificate
                .verify()
                .map_err(|e| format!("violation certificate failed to re-verify: {e}"))?;
            let spec = point_spec(point)?;
            let replay = ba_check::replay(&spec, factory(point), &proposals, &found.choices)
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
        sweep
    })
}

/// The check-mode streaming body: while a slice explores, live
/// [`CoordEvent::Check`] JSONL snapshots flow to `emit` (batched inside
/// the explorer, so the stream stays cheap), and each finished slice emits
/// the usual outcome + progress lines before the trailing report — the
/// states/s + frontier-depth feed `campaign_watch` renders live.
fn stream_check_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    progress: bool,
    emit: &(dyn Fn(&str) + Sync),
) -> Result<(), String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let sink = StreamSink::new(manifest, progress, emit);
    let started = Instant::now();
    let snapshot = move |_local: usize, p: CheckProgress| {
        let event = CoordEvent::Check {
            shard: manifest.shard,
            shards: manifest.shards,
            states: p.states,
            executions: p.executions,
            depth: p.depth,
            elapsed_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        emit(&format!("{}\n", event.to_json_line()));
    };
    let outcomes = check_entries(
        manifest,
        &factory,
        None,
        progress
            .then_some(&snapshot)
            .map(|s| s as &(dyn Fn(usize, CheckProgress) + Sync)),
        Some(&sink),
    )?;
    emit(
        &ShardReport {
            shard: manifest.shard,
            outcomes,
        }
        .to_wire(),
    );
    Ok(())
}

/// The shared per-point emission state behind [`run_manifest_streaming`]:
/// encodes one [`ba_dist::PointOutcome`] line (plus the optional progress
/// line) per finished point, counting completions monotonically.
struct StreamSink<'a> {
    emit: &'a (dyn Fn(&str) + Sync),
    shard: usize,
    shards: usize,
    total: usize,
    progress: bool,
    done: AtomicUsize,
    started: Instant,
}

impl<'a> StreamSink<'a> {
    fn new(manifest: &ShardManifest, progress: bool, emit: &'a (dyn Fn(&str) + Sync)) -> Self {
        StreamSink {
            emit,
            shard: manifest.shard,
            shards: manifest.shards,
            total: manifest.entries.len(),
            progress,
            done: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// Emits the point's outcome (and progress) lines and hands the result
    /// back for the trailing report.
    fn point<T: Encode>(
        &self,
        index: usize,
        result: Result<T, ba_sim::SimError>,
        messages: u64,
        rounds: u64,
        ok: bool,
    ) -> Result<T, ba_sim::SimError> {
        let outcome = ba_dist::PointOutcome { index, result };
        let mut chunk = String::new();
        outcome.encode(&mut chunk);
        if self.progress {
            let event = ProgressEvent {
                shard: self.shard,
                shards: self.shards,
                done: self.done.fetch_add(1, Ordering::SeqCst) + 1,
                total: self.total,
                index,
                messages,
                rounds,
                ok,
                elapsed_nanos: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            };
            chunk.push_str(&event.to_json_line());
            chunk.push('\n');
        }
        (self.emit)(&chunk);
        outcome.result
    }
}

fn stream_scenario_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    search: bool,
    progress: bool,
    emit: &(dyn Fn(&str) + Sync),
) where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let sink = StreamSink::new(manifest, progress, emit);
    let outcomes = ba_sim::par_map(
        manifest.entries.clone(),
        manifest.threads,
        |_local, entry| {
            let scenario = if search {
                search_scenario_for(&entry.point, entry.seed, factory(&entry.point))
            } else {
                scenario_for(&entry.point, entry.seed, factory(&entry.point))
            };
            let result = scenario.trace_mode(TraceMode::Stats).run_report();
            let (messages, rounds, ok) = match &result {
                Ok(stats) => (stats.total_messages, stats.rounds, true),
                Err(_) => (0, 0, false),
            };
            (
                entry.index,
                sink.point(entry.index, result, messages, rounds, ok),
            )
        },
    );
    emit(
        &ShardReport {
            shard: manifest.shard,
            outcomes,
        }
        .to_wire(),
    );
}

fn stream_falsifier_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    progress: bool,
    emit: &(dyn Fn(&str) + Sync),
) where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let sink = StreamSink::new(manifest, progress, emit);
    let outcomes = ba_sim::par_map(
        manifest.entries.clone(),
        manifest.threads,
        |_local, entry| {
            let fp = falsify_point_recorded(&entry.point, factory(&entry.point), None);
            let messages = fp.max_message_complexity;
            (
                entry.index,
                sink.point(entry.index, Ok(fp), messages, 0, true),
            )
        },
    );
    emit(
        &ShardReport {
            shard: manifest.shard,
            outcomes,
        }
        .to_wire(),
    );
}

/// Translates `campaign.point.done` telemetry events (emitted by the
/// campaign runner as each grid point completes, carrying the point's
/// shard-local index) into wire-ready [`ProgressEvent`]s: local index →
/// global manifest index, monotone completion counting, and worker
/// wall-clock stamping. All other telemetry is ignored.
struct ProgressRecorder<F> {
    shard: usize,
    shards: usize,
    total: usize,
    indices: Vec<usize>,
    done: AtomicUsize,
    started: Instant,
    on_point: F,
}

impl<F: Fn(ProgressEvent) + Send + Sync> Recorder for ProgressRecorder<F> {
    fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        if name != "campaign.point.done" {
            return;
        }
        let u64_field = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(v) if *k == key => Some(*v),
                _ => None,
            })
        };
        let ok = fields
            .iter()
            .any(|(k, v)| *k == "ok" && matches!(v, FieldValue::Bool(true)));
        let local = u64_field("index").unwrap_or(0) as usize;
        (self.on_point)(ProgressEvent {
            shard: self.shard,
            shards: self.shards,
            done: self.done.fetch_add(1, Ordering::SeqCst) + 1,
            total: self.total,
            index: self.indices.get(local).copied().unwrap_or(local),
            messages: u64_field("messages").unwrap_or(0),
            rounds: u64_field("rounds").unwrap_or(0),
            ok,
            elapsed_nanos: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// The in-process reference for a scenario sweep: runs the exact per-point
/// computation distributed workers run, on one local `Campaign` pool —
/// stats-only ([`TraceMode::Stats`]), like the workers.
///
/// `coordinator.run_campaign(spec) == scenario_campaign_report(…)` for the
/// same grid, protocol, and base seed — the shard-invariance property.
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
) -> Result<CampaignReport<Bit>, String> {
    scenario_campaign_report_mode(points, protocol, base_seed, threads, TraceMode::Stats)
}

/// [`scenario_campaign_report`] with a telemetry recorder attached: the
/// Campaign records per-point metrics and threads the recorder into every
/// scenario, whose executor mirrors its routing stream into it.
/// Observation-only — the returned report is bit-identical to the
/// recorder-less sweep (the benchmark's traced run asserts this at
/// benchmark scale and reports the wall-clock cost as
/// `obs.recorder_overhead_frac`).
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report_recorded(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
    recorder: Arc<dyn Recorder>,
) -> Result<CampaignReport<Bit>, String> {
    scenario_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
        TraceMode::Stats,
        Some(recorder),
    )
}

/// [`scenario_campaign_report`] with an explicit [`TraceMode`].
///
/// [`TraceMode::Full`] materializes (and validates) every execution before
/// deriving its stats; the sink-equivalence guarantee makes the report
/// value-identical to the stats-only sweep, which the cross-mode tests
/// assert end to end.
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report_mode(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
    mode: TraceMode,
) -> Result<CampaignReport<Bit>, String> {
    scenario_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
        mode,
        None,
    )
}

/// The single label → factory table behind [`REGISTRY`]: binds `$factory`
/// to the label's per-point protocol factory and evaluates `$body` with it
/// (once, in the matching arm — each arm monomorphizes `$body` for its
/// protocol type). Adding a protocol means one new arm here plus its label
/// in [`REGISTRY`]; scenario and falsifier modes pick it up together.
macro_rules! with_registry_factory {
    ($label:expr, $factory:ident => $body:expr) => {
        match $label {
            "flood-set" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| FloodSet::new();
                Ok($body)
            }
            "dolev-strong" => {
                let $factory = |point: &CampaignPoint| {
                    DolevStrong::factory(Keybook::new(point.n), ProcessId(0), Bit::Zero)
                };
                Ok($body)
            }
            "leader-echo" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| LeaderEcho::new(ProcessId(0));
                Ok($body)
            }
            "own-proposal" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| OwnProposal::new();
                Ok($body)
            }
            "one-round-all-to-all" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| OneRoundAllToAll::new();
                Ok($body)
            }
            "paranoid-echo" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| ParanoidEcho::new();
                Ok($body)
            }
            "silent-constant-1" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| SilentConstant::new(Bit::One);
                Ok($body)
            }
            "phase-king" => {
                let $factory = |point: &CampaignPoint| {
                    let (n, t) = (point.n, point.t);
                    move |_: ProcessId| PhaseKing::new(n, t)
                };
                Ok($body)
            }
            "phase-king-weak" => {
                let $factory = |point: &CampaignPoint| {
                    let (n, t) = (point.n, point.t);
                    move |_: ProcessId| PhaseKing::with_phases(n, t, (t as u64).max(1))
                };
                Ok($body)
            }
            other => Err(format!(
                "unknown protocol label {other:?} (known: {REGISTRY:?})"
            )),
        }
    };
}
pub(crate) use with_registry_factory;

fn scenario_report_with<S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    protocol: &str,
    mode: TraceMode,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<CampaignReport<Bit>, String>
where
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    validate_labels(points)?;
    with_registry_factory!(protocol, factory => run_points(points, &seed_of, threads, factory, mode, recorder))
}

fn falsifier_report_with(
    points: &[CampaignPoint],
    threads: usize,
    protocol: &str,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<Vec<FalsifierSweepPoint>, String> {
    with_registry_factory!(protocol, factory => falsify_points(points, threads, factory, recorder))
}

/// The in-process reference for a search-mode population evaluation: each
/// point's adversary label must be an encoded genome
/// ([`genome_label`](ba_search::genome_label)), interpreted by
/// [`GenomeModel`] against the registry protocol.
///
/// `coordinator(k shards) == search_campaign_report(…)` for the same grid,
/// protocol, and base seed, exactly as in scenario mode.
///
/// # Errors
///
/// As [`run_manifest`]: unknown protocol / input labels, or a point whose
/// adversary label is not a decodable `genome:` token.
pub fn search_campaign_report(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
) -> Result<CampaignReport<Bit>, String> {
    search_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
        None,
    )
}

fn search_report_with<S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    protocol: &str,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<CampaignReport<Bit>, String>
where
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    validate_search_labels(points)?;
    with_registry_factory!(protocol, factory => run_search_points(points, &seed_of, threads, factory, recorder))
}

fn run_search_points<P, F, G, S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    factory: G,
    recorder: Option<Arc<dyn Recorder>>,
) -> CampaignReport<Bit>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    let mut campaign = Campaign::over(points.to_vec()).trace_mode(TraceMode::Stats);
    if threads > 0 {
        campaign = campaign.threads(threads);
    }
    if let Some(r) = recorder {
        campaign = campaign.recorder(r);
    }
    campaign.run_scenarios(|point| search_scenario_for(point, seed_of(point), factory(point)))
}

/// [`scenario_for`]'s search-mode twin: the adversary label is an encoded
/// genome, interpreted by [`GenomeModel`]. Labels must be validated first.
fn search_scenario_for<P, F>(
    point: &CampaignPoint,
    seed: u64,
    protocol: F,
) -> ba_sim::ProtocolScenario<'static, P, F>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let genome = genome_from_label(&point.adversary)
        .expect("labels validated up front")
        .expect("labels validated up front");
    Scenario::new(point.n, point.t)
        .protocol(protocol)
        .inputs(input_bits(&point.inputs, point.n, seed))
        .adversary(Adversary::model(GenomeModel::new(genome)))
}

fn validate_search_labels(points: &[CampaignPoint]) -> Result<(), String> {
    for point in points {
        match genome_from_label(&point.adversary) {
            Ok(Some(_)) => {}
            Ok(None) => {
                return Err(format!(
                    "search-mode point {point} needs a {:?}-prefixed adversary label",
                    ba_search::GENOME_LABEL_PREFIX
                ))
            }
            Err(err) => {
                return Err(format!("undecodable genome label at {point}: {err}"));
            }
        }
        if !INPUTS.contains(&point.inputs.as_str()) {
            return Err(format!(
                "unknown input label {:?} at {point} (known: {INPUTS:?})",
                point.inputs
            ));
        }
    }
    Ok(())
}

fn validate_labels(points: &[CampaignPoint]) -> Result<(), String> {
    for point in points {
        if !ADVERSARIES.contains(&point.adversary.as_str()) {
            return Err(format!(
                "unknown adversary label {:?} at {point} (known: {ADVERSARIES:?})",
                point.adversary
            ));
        }
        if !INPUTS.contains(&point.inputs.as_str()) {
            return Err(format!(
                "unknown input label {:?} at {point} (known: {INPUTS:?})",
                point.inputs
            ));
        }
    }
    Ok(())
}

fn run_points<P, F, G, S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    factory: G,
    mode: TraceMode,
    recorder: Option<Arc<dyn Recorder>>,
) -> CampaignReport<Bit>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    let mut campaign = Campaign::over(points.to_vec()).trace_mode(mode);
    if threads > 0 {
        campaign = campaign.threads(threads);
    }
    if let Some(r) = recorder {
        campaign = campaign.recorder(r);
    }
    campaign.run_scenarios(|point| scenario_for(point, seed_of(point), factory(point)))
}

/// Builds the exact scenario a grid point denotes: protocol instance,
/// resolved inputs, and the adversary its label names. Both execution paths
/// — the `Campaign` pool ([`run_points`]) and the streaming per-point path
/// ([`run_manifest_streaming`]) — build through here, which is what keeps
/// streamed outcomes bit-identical to pooled ones.
fn scenario_for<P, F>(
    point: &CampaignPoint,
    seed: u64,
    protocol: F,
) -> ba_sim::ProtocolScenario<'static, P, F>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let n = point.n;
    let t = point.t;
    let last = ProcessId(n.saturating_sub(1));
    let scenario =
        Scenario::new(n, t)
            .protocol(protocol)
            .inputs(input_bits(&point.inputs, n, seed));
    match point.adversary.as_str() {
        "isolation" => scenario.adversary(Adversary::isolation([last], Round(2))),
        "crash" => scenario.adversary(Adversary::crash([(last, Round(2))])),
        "random-omission" => scenario.adversary(Adversary::omission(
            [last],
            RandomOmissionPlan::new([last], 0.25, 0.25, seed ^ 0x2),
        )),
        // The adaptive fault-model family: execution-observing
        // adversaries the closed enum could not express.
        "adaptive-worst-case" => scenario.adversary(Adversary::adaptive_worst_case(t)),
        "mobile" => scenario.adversary(Adversary::mobile(
            (n.saturating_sub(t)..n).map(ProcessId),
            2,
        )),
        "scheduler" => scenario.adversary(Adversary::scheduler(
            last,
            (n.saturating_sub(1)) / 2,
            seed ^ 0x3,
        )),
        // "none" (validated up front).
        _ => scenario,
    }
}

fn falsify_points<P, F, G>(
    points: &[CampaignPoint],
    threads: usize,
    factory: G,
    recorder: Option<Arc<dyn Recorder>>,
) -> Vec<FalsifierSweepPoint>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let mut campaign = Campaign::over(points.to_vec());
    if threads > 0 {
        campaign = campaign.threads(threads);
    }
    if let Some(r) = &recorder {
        campaign = campaign.recorder(r.clone());
    }
    campaign
        .map(|point| falsify_point_recorded(point, factory(point), recorder.clone()))
        .into_iter()
        .map(|(_, fp)| fp)
        .collect()
}

/// Runs a scenario sweep distributed over `shards` worker processes and
/// reassembles the exact single-process [`CampaignReport`].
///
/// # Errors
///
/// Any [`DistError`] from spawning, transport, decoding, or merging.
pub fn distributed_scenario_sweep(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    shards: usize,
    worker: WorkerCommand,
) -> Result<CampaignReport<Bit>, DistError> {
    let spec = SweepSpec::scenarios(points.to_vec(), protocol).base_seed(base_seed);
    Coordinator::new(worker, shards).run_campaign(&spec)
}

/// Runs the Theorem 2 falsifier sweep distributed over `shards` worker
/// processes; reproduces [`falsifier_sweep`](crate::falsifier_sweep) over
/// the same `(n, t)` grid exactly.
///
/// # Errors
///
/// Any [`DistError`] from spawning, transport, decoding, or merging.
///
/// # Panics
///
/// Panics if a worker reports a simulator error for a point — mirroring the
/// in-process sweep, which panics on simulator errors (protocol bugs).
pub fn distributed_falsifier_sweep(
    nts: &[(usize, usize)],
    protocol: &str,
    shards: usize,
    worker: WorkerCommand,
) -> Result<Vec<FalsifierSweepPoint>, DistError> {
    let points = crate::falsifier_points(nts);
    let spec = SweepSpec::falsifier(points, protocol);
    let merged = Coordinator::new(worker, shards).run::<FalsifierSweepPoint>(&spec)?;
    Ok(merged
        .into_iter()
        .map(|outcome| outcome.expect("falsifier run"))
        .collect())
}

impl Encode for FalsifierSweepPoint {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "fpoint refuted={} verdict={} max={} bound={}\n",
            self.refuted,
            ba_dist::wire::escape(&self.verdict),
            self.max_message_complexity,
            self.paper_bound,
        ));
        self.point.encode(out);
    }
}

impl Decode for FalsifierSweepPoint {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("fpoint")?;
        let refuted = rec.parse_field("refuted")?;
        let verdict = rec.text("verdict")?;
        let max_message_complexity = rec.parse_field("max")?;
        let paper_bound = rec.parse_field("bound")?;
        let point = CampaignPoint::decode(reader)?;
        Ok(FalsifierSweepPoint {
            point,
            refuted,
            verdict,
            max_message_complexity,
            paper_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_dist::plan_shards;

    fn mixed_grid() -> Vec<CampaignPoint> {
        Campaign::grid(
            [(4, 1), (5, 1), (6, 2)],
            ADVERSARIES,
            &["zeros", "ones", "random"],
        )
        .points()
        .to_vec()
    }

    #[test]
    fn falsifier_sweep_points_round_trip_on_the_wire() {
        let fp = FalsifierSweepPoint {
            point: CampaignPoint::new(8, 2).with_adversary("theorem-2-families"),
            refuted: true,
            verdict: "REFUTED (agreement violation)".into(),
            max_message_complexity: 14,
            paper_bound: 0,
        };
        let decoded = FalsifierSweepPoint::from_wire(&fp.to_wire()).unwrap();
        assert_eq!(decoded, fp);
    }

    #[test]
    fn manifest_execution_matches_the_in_process_reference() {
        let points = mixed_grid();
        let spec = SweepSpec::scenarios(points.clone(), "flood-set").base_seed(0xD15C);
        let reference = scenario_campaign_report(&points, "flood-set", 0xD15C, 1).unwrap();
        // Execute every shard of a 3-way split in this process and merge.
        let reports: Vec<ShardReport<ba_sim::ScenarioStats<Bit>>> = plan_shards(&spec, 3)
            .iter()
            .map(|m| {
                let wire = run_manifest(m).unwrap();
                ShardReport::from_wire(&wire).unwrap()
            })
            .collect();
        let merged = ba_dist::merge_campaign_report(&points, reports).unwrap();
        assert_eq!(merged, reference);
    }

    #[test]
    fn progress_streaming_is_observation_only_and_covers_every_point() {
        use std::sync::Mutex;
        let points = mixed_grid();
        let spec = SweepSpec::scenarios(points.clone(), "flood-set").base_seed(0xD15C);
        let manifest = plan_shards(&spec, 2).remove(1);
        let plain = run_manifest(&manifest).unwrap();
        let seen = Arc::new(Mutex::new(Vec::<ProgressEvent>::new()));
        let sink = seen.clone();
        let streamed =
            run_manifest_with_progress(&manifest, move |e| sink.lock().unwrap().push(e)).unwrap();
        assert_eq!(plain, streamed, "progress must not change the report");

        let events = seen.lock().unwrap();
        assert_eq!(events.len(), manifest.entries.len());
        // Every manifest entry's global index appears exactly once, and the
        // done counter is a permutation of 1..=total.
        let mut indices: Vec<usize> = events.iter().map(|e| e.index).collect();
        indices.sort_unstable();
        let mut expected: Vec<usize> = manifest.entries.iter().map(|e| e.index).collect();
        expected.sort_unstable();
        assert_eq!(indices, expected);
        let mut dones: Vec<usize> = events.iter().map(|e| e.done).collect();
        dones.sort_unstable();
        assert_eq!(dones, (1..=events.len()).collect::<Vec<_>>());
        for e in events.iter() {
            assert_eq!(e.shard, manifest.shard);
            assert_eq!(e.shards, manifest.shards);
            assert_eq!(e.total, manifest.entries.len());
            assert!(e.ok && e.messages > 0, "{e:?}");
        }
    }

    #[test]
    fn search_manifest_execution_matches_the_in_process_reference() {
        use ba_search::{genome_label, GenomeSpace};
        use ba_sim::SimRng;
        // A small genome population over two grid shapes, each point
        // carrying its genome as the adversary label.
        let mut rng = SimRng::seed_from_u64(0x5EA7C4);
        let points: Vec<CampaignPoint> = (0..12)
            .map(|i| {
                let (n, t) = if i % 2 == 0 { (5, 1) } else { (7, 2) };
                let genome = GenomeSpace::new(n, t, 6).random_genome(&mut rng);
                CampaignPoint::new(n, t)
                    .with_adversary(genome_label(&genome))
                    .with_inputs(if i % 3 == 0 { "majority-one" } else { "zeros" })
            })
            .collect();
        let reference = search_campaign_report(&points, "phase-king-weak", 0xF00D, 1).unwrap();
        let spec = SweepSpec::search(points.clone(), "phase-king-weak").base_seed(0xF00D);
        let reports: Vec<ShardReport<ba_sim::ScenarioStats<Bit>>> = plan_shards(&spec, 3)
            .iter()
            .map(|m| {
                let wire = run_manifest(m).unwrap();
                ShardReport::from_wire(&wire).unwrap()
            })
            .collect();
        let merged = ba_dist::merge_campaign_report(&points, reports).unwrap();
        assert_eq!(merged, reference);
    }

    #[test]
    fn search_mode_rejects_non_genome_adversary_labels() {
        let points = vec![CampaignPoint::new(4, 1).with_adversary("crash")];
        let err = search_campaign_report(&points, "flood-set", 0, 1).unwrap_err();
        assert!(err.contains("genome:"), "{err}");
        let garbage = vec![CampaignPoint::new(4, 1).with_adversary("genome:nonsense")];
        let err = search_campaign_report(&garbage, "flood-set", 0, 1).unwrap_err();
        assert!(err.contains("undecodable"), "{err}");
    }

    #[test]
    fn unknown_labels_are_rejected_with_helpful_messages() {
        let bad_protocol = run_manifest(
            &plan_shards(
                &SweepSpec::scenarios(vec![CampaignPoint::new(4, 1)], "no-such-protocol"),
                1,
            )[0],
        );
        assert!(bad_protocol.unwrap_err().contains("no-such-protocol"));

        let bad_adversary = scenario_campaign_report(
            &[CampaignPoint::new(4, 1).with_adversary("meteor-strike")],
            "flood-set",
            0,
            1,
        );
        assert!(bad_adversary.unwrap_err().contains("meteor-strike"));

        let bad_inputs = scenario_campaign_report(
            &[CampaignPoint::new(4, 1).with_inputs("seventeen")],
            "flood-set",
            0,
            1,
        );
        assert!(bad_inputs.unwrap_err().contains("seventeen"));
    }

    #[test]
    fn every_registry_protocol_resolves_in_both_modes() {
        // n = 13, t = 2 satisfies every registry constraint (incl. n > 3t)
        // and t ≥ 2 keeps the falsifier's family construction non-trivial.
        let points = vec![CampaignPoint::new(13, 2)
            .with_adversary("none")
            .with_inputs("ones")];
        for label in REGISTRY {
            let report = scenario_campaign_report(&points, label, 1, 1)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.outcomes.len(), 1, "{label}");
            let sweep = falsifier_report_with(&points, 1, label, None).unwrap();
            assert_eq!(sweep.len(), 1, "{label}");
        }
    }

    #[test]
    fn every_adversary_label_resolves_and_respects_the_model() {
        // One point per adversary label, all protocols stats-swept: the
        // adaptive family must execute without model violations (the
        // adaptive/mobile/scheduler adversaries may slow decisions but
        // never break the engine's execution guarantees).
        let points: Vec<CampaignPoint> = ADVERSARIES
            .iter()
            .map(|adv| {
                CampaignPoint::new(7, 2)
                    .with_adversary(*adv)
                    .with_inputs("ones")
            })
            .collect();
        let report = scenario_campaign_report(&points, "dolev-strong", 5, 1).unwrap();
        assert_eq!(report.outcomes.len(), ADVERSARIES.len());
        assert_eq!(report.errors().count(), 0, "{}", report.summary());
        // The adaptive worst case mutes the chattiest processes, so its
        // correct-sender complexity must differ from the fault-free point.
        let complexity = |label: &str| {
            report
                .stats()
                .find(|(p, _)| p.adversary == label)
                .map(|(_, s)| s.message_complexity)
                .unwrap()
        };
        assert!(complexity("adaptive-worst-case") < complexity("none"));
    }

    #[test]
    fn seeded_labels_are_deterministic_and_seed_sensitive() {
        let points: Vec<CampaignPoint> = (6..12)
            .map(|n| {
                CampaignPoint::new(n, 1)
                    .with_adversary("random-omission")
                    .with_inputs("random")
            })
            .collect();
        let a = scenario_campaign_report(&points, "flood-set", 7, 1).unwrap();
        let b = scenario_campaign_report(&points, "flood-set", 7, 1).unwrap();
        assert_eq!(a, b, "same base seed must reproduce exactly");
        // Different base seed → different per-point seeds, hence different
        // coin flips; across six points the aggregate stats diverge.
        for (p, q) in points.iter().zip(&points) {
            assert_eq!(ba_dist::point_seed(7, p), ba_dist::point_seed(7, q));
        }
        assert_ne!(
            ba_dist::point_seed(7, &points[0]),
            ba_dist::point_seed(8, &points[0])
        );
        let c = scenario_campaign_report(&points, "flood-set", 8, 1).unwrap();
        assert_ne!(a, c, "different base seeds should diverge");
    }
}
