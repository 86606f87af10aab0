//! Sink equivalence: the trace-free [`StatsSink`] engine path must produce
//! **value-identical** [`ScenarioStats`] to stats derived from the
//! [`FullTrace`] execution of the same scenario — for every protocol, every
//! adversary flavor (including mixed Byzantine+omission and seeded-random
//! omission), and every input profile.
//!
//! This is the property that lets campaigns default to stats-only sweeps
//! (`TraceMode::Stats`) without changing a single reported number.
//!
//! Over the same grid, the in-place [`FullTrace`] execution must equal the
//! arena-recorded [`CompressedTrace`] one hydrated through its arena, with
//! equal fingerprints — which pins `ba-check`'s state counts (it
//! fingerprints the compressed form) to the full traces bit for bit.

use ba_crypto::Keybook;
use ba_protocols::broken::{
    LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, EigConsensus, FloodSet, PhaseKing};
use ba_sim::{
    Adversary, Bit, Campaign, CompressedTrace, Payload, PayloadArena, ProcessId, Protocol,
    ProtocolScenario, RandomOmissionPlan, Round, Scenario, ScenarioStats, SilentByzantine, SimRng,
    TraceMode,
};

/// Adversary flavors under test. `mixed` corrupts two processes, so it only
/// applies when `t >= 2` (and `n >= 3` keeps the sets disjoint from p0).
/// The trailing three are the adaptive fault-model family: corruption
/// chosen mid-run, moved under a budget, or combined with seeded delivery
/// rescheduling — the equivalence must hold for execution-observing
/// adversaries too.
const ADVERSARIES: &[&str] = &[
    "none",
    "isolation",
    "crash",
    "random-omission",
    "byzantine-silent",
    "mixed",
    "adaptive-worst-case",
    "mobile",
    "scheduler",
];

const INPUTS: &[&str] = &["zeros", "ones", "alternating", "random"];

fn adversary<M: Payload>(label: &str, n: usize, t: usize, seed: u64) -> Adversary<'static, Bit, M> {
    let last = ProcessId(n - 1);
    match label {
        "none" => Adversary::none(),
        "isolation" => Adversary::isolation([last], Round(2)),
        "crash" => Adversary::crash([(last, Round(2))]),
        "random-omission" => Adversary::omission(
            [last],
            RandomOmissionPlan::new([last], 0.25, 0.25, seed ^ 0xA11CE),
        ),
        "byzantine-silent" => Adversary::one_byzantine(last, SilentByzantine),
        "mixed" => {
            let omission_faulty = ProcessId(n - 2);
            Adversary::mixed(
                [(last, Box::new(SilentByzantine) as _)],
                [omission_faulty],
                RandomOmissionPlan::new([omission_faulty], 0.3, 0.3, seed ^ 0xB0B),
            )
        }
        "adaptive-worst-case" => Adversary::adaptive_worst_case(t),
        "mobile" => Adversary::mobile((n - t..n).map(ProcessId), 2),
        "scheduler" => Adversary::scheduler(last, (n - 1) / 2, seed ^ 0xC0DE),
        other => panic!("unknown adversary label {other:?}"),
    }
}

fn inputs(label: &str, n: usize, seed: u64) -> Vec<Bit> {
    match label {
        "zeros" => vec![Bit::Zero; n],
        "ones" => vec![Bit::One; n],
        "alternating" => (0..n).map(|i| Bit::from(i % 2 == 1)).collect(),
        "random" => {
            let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED);
            (0..n).map(|_| Bit::from(rng.gen_bool(0.5))).collect()
        }
        other => panic!("unknown input label {other:?}"),
    }
}

/// One per-scenario property, checked for every protocol of the grid.
trait ScenarioCheck {
    fn check<P, F>(&self, context: &str, n: usize, t: usize, factory: F, adv: &str, inp: &str)
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P;
}

/// Builds one grid scenario; the seed depends on `(n, t)` only.
fn scenario<'a, P, F>(
    n: usize,
    t: usize,
    factory: &'a F,
    adv: &str,
    inp: &str,
) -> ProtocolScenario<'a, P, &'a F>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let seed = (n as u64) << 32 | (t as u64) << 16 | 7;
    Scenario::new(n, t)
        .protocol(factory)
        .inputs(inputs(inp, n, seed))
        .adversary(adversary(adv, n, t, seed))
}

/// Runs one scenario through both engines and asserts identical outcomes —
/// equal stats on success, equal typed errors on failure.
struct StatsMatchFullTrace;

impl ScenarioCheck for StatsMatchFullTrace {
    fn check<P, F>(&self, context: &str, n: usize, t: usize, factory: F, adv: &str, inp: &str)
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
    {
        let full = scenario(n, t, &factory, adv, inp).run().map(|exec| {
            exec.validate()
                .unwrap_or_else(|e| panic!("{context}: engine produced invalid execution: {e}"));
            ScenarioStats::from_execution(&exec)
        });
        let stats = scenario(n, t, &factory, adv, inp).run_stats();
        assert_eq!(
            full, stats,
            "{context}: StatsSink diverged from FullTrace-derived stats"
        );
    }
}

/// Runs one scenario through `FullTrace` and `CompressedTrace` and asserts
/// the hydrated compressed run equals the full one, with one fingerprint.
struct FullTraceMatchesArena;

impl ScenarioCheck for FullTraceMatchesArena {
    fn check<P, F>(&self, context: &str, n: usize, t: usize, factory: F, adv: &str, inp: &str)
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
    {
        let full = scenario(n, t, &factory, adv, inp).run();
        let mut arena = PayloadArena::new();
        let compressed =
            scenario(n, t, &factory, adv, inp).run_with_sink(CompressedTrace::new(&mut arena));
        let (full, compressed) = match (full, compressed) {
            (Ok(full), Ok(compressed)) => (full, compressed),
            (full, compressed) => {
                assert_eq!(
                    full.err(),
                    compressed.err(),
                    "{context}: the sinks disagree on the run's outcome"
                );
                return;
            }
        };
        assert_eq!(
            full,
            compressed.hydrate(&arena),
            "{context}: FullTrace diverged from the hydrated CompressedTrace"
        );
        let mut own = PayloadArena::new();
        assert_eq!(
            full.compress(&mut own).fingerprint(&own),
            compressed.fingerprint(&arena),
            "{context}: fingerprints differ across the two recorders"
        );
    }
}

/// Every protocol × adversary × input profile over a small `(n, t)` grid.
fn over_grid(property: &impl ScenarioCheck) {
    // n > 3t throughout so phase-king and EIG participate everywhere. Small
    // sizes on purpose: the property is about engine code paths (fates,
    // modes, violations), which tiny systems already exercise; scale
    // coverage comes from the large-n bench sweeps.
    let grid = [(4usize, 1usize), (5, 1), (7, 2)];
    for (n, t) in grid {
        for adv in ADVERSARIES {
            if *adv == "mixed" && (t < 2 || n < 3) {
                continue;
            }
            for inp in INPUTS {
                let ctx = |p: &str| format!("{p} n={n} t={t} adv={adv} in={inp}");
                property.check(&ctx("flood-set"), n, t, |_| FloodSet::new(), adv, inp);
                property.check(
                    &ctx("dolev-strong"),
                    n,
                    t,
                    DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero),
                    adv,
                    inp,
                );
                property.check(&ctx("phase-king"), n, t, |_| PhaseKing::new(n, t), adv, inp);
                property.check(
                    &ctx("eig"),
                    n,
                    t,
                    |_| EigConsensus::new(n, t, Bit::Zero),
                    adv,
                    inp,
                );
                property.check(
                    &ctx("leader-echo"),
                    n,
                    t,
                    |_: ProcessId| LeaderEcho::new(ProcessId(0)),
                    adv,
                    inp,
                );
                property.check(&ctx("own-proposal"), n, t, |_| OwnProposal::new(), adv, inp);
                property.check(
                    &ctx("one-round-all-to-all"),
                    n,
                    t,
                    |_| OneRoundAllToAll::new(),
                    adv,
                    inp,
                );
                property.check(
                    &ctx("paranoid-echo"),
                    n,
                    t,
                    |_| ParanoidEcho::new(),
                    adv,
                    inp,
                );
                property.check(
                    &ctx("silent-constant"),
                    n,
                    t,
                    |_| SilentConstant::new(Bit::One),
                    adv,
                    inp,
                );
            }
        }
    }
}

#[test]
fn stats_sink_matches_full_trace_for_all_protocols_and_adversaries() {
    over_grid(&StatsMatchFullTrace);
}

#[test]
fn full_trace_matches_the_hydrated_compressed_trace() {
    over_grid(&FullTraceMatchesArena);
}

/// Scenario errors (not just stats) must be identical across engines.
#[test]
fn both_engines_report_identical_typed_errors() {
    let full = Scenario::new(3, 3)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::Zero)
        .run()
        .unwrap_err();
    let stats = Scenario::new(3, 3)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::Zero)
        .run_stats()
        .unwrap_err();
    assert_eq!(full, stats);
}

/// The same equivalence holds one level up: a `Campaign` sweep forced to
/// `TraceMode::Full` must equal the default stats-only sweep, report for
/// report — including violation strings and grid order.
#[test]
fn campaign_sweeps_are_mode_invariant() {
    let build = |point: &ba_sim::CampaignPoint| {
        let (n, t) = (point.n, point.t);
        let scenario = Scenario::new(n, t)
            .protocol(move |_| PhaseKing::new(n, t))
            .inputs((0..n).map(|i| Bit::from(i % 2 == 0)));
        match point.adversary.as_str() {
            "isolation" => scenario.adversary(Adversary::isolation([ProcessId(n - 1)], Round(2))),
            _ => scenario,
        }
    };
    let grid = || {
        Campaign::grid(
            (4..12).map(|n| (n, (n - 1) / 3)),
            &["none", "isolation"],
            &["alternating"],
        )
    };
    let stats_mode = grid().trace_mode(TraceMode::Stats).run_scenarios(build);
    let full_mode = grid().trace_mode(TraceMode::Full).run_scenarios(build);
    let default_mode = grid().run_scenarios(build);
    assert_eq!(stats_mode, full_mode);
    assert_eq!(stats_mode, default_mode, "campaigns default to stats mode");
}

/// Attaching a telemetry recorder must not change a single reported value:
/// the campaign report with a live [`ba_obs::Aggregator`] installed is
/// bit-identical to the recorder-off report, in both trace modes — and the
/// deterministic telemetry channel itself is mode-invariant (the
/// [`TraceMode::Full`] engine observes the same routing the stats engine
/// does).
#[test]
fn recording_is_observation_only_in_both_trace_modes() {
    use ba_obs::Aggregator;
    use std::sync::Arc;

    let build = |point: &ba_sim::CampaignPoint| {
        let (n, t) = (point.n, point.t);
        let scenario = Scenario::new(n, t)
            .protocol(move |_| PhaseKing::new(n, t))
            .inputs((0..n).map(|i| Bit::from(i % 2 == 0)));
        match point.adversary.as_str() {
            "isolation" => scenario.adversary(Adversary::isolation([ProcessId(n - 1)], Round(2))),
            _ => scenario,
        }
    };
    let grid = || {
        Campaign::grid(
            (4..12).map(|n| (n, (n - 1) / 3)),
            &["none", "isolation"],
            &["alternating"],
        )
    };
    let bare = grid().run_scenarios(build);

    let stats_agg = Arc::new(Aggregator::new());
    let recorded_stats = grid()
        .trace_mode(TraceMode::Stats)
        .recorder(stats_agg.clone())
        .run_scenarios(build);
    assert_eq!(
        recorded_stats, bare,
        "a live recorder changed the stats-mode report"
    );

    let full_agg = Arc::new(Aggregator::new());
    let recorded_full = grid()
        .trace_mode(TraceMode::Full)
        .recorder(full_agg.clone())
        .run_scenarios(build);
    assert_eq!(
        recorded_full, bare,
        "a live recorder changed the full-trace report"
    );

    let stats_snapshot = stats_agg.snapshot();
    assert_eq!(
        stats_snapshot.deterministic(),
        full_agg.snapshot().deterministic(),
        "deterministic telemetry diverged across trace modes"
    );
    // Sanity: the deterministic channel actually carried the run.
    let det = stats_snapshot.deterministic();
    assert_eq!(
        det.counters.get("exec.runs").copied(),
        Some(grid().len() as u64)
    );
    assert_eq!(
        det.events.get("campaign.point.done").copied(),
        Some(grid().len() as u64)
    );
}
