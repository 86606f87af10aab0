//! Legacy-adversary equivalence through the `FaultModel` layer.
//!
//! The `Adversary` enum became constructors over the `FaultModel` trait;
//! this suite pins the refactor's contract: every legacy adversary flavor —
//! omission (isolation and seeded-random plans), Byzantine, crash, and
//! mixed — produces **bit-identical** `Execution`s and `ScenarioStats`
//! whether built through the legacy constructor sugar or through an
//! explicitly assembled fault model (`PlannedFaults` + behaviors), for
//! every protocol × trace mode. The static plans are fault models
//! themselves, so a third side passes the isolation, crash and
//! random-omission plans bare to `Adversary::model` and must match too.
//!
//! A second set of absolute pins guards against the refactor changing the
//! recorded behavior itself (both sides of the equivalence drifting
//! together): known fragment shapes for isolation and crash runs.

use ba_crypto::Keybook;
use ba_protocols::broken::LeaderEcho;
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_sim::{
    Adversary, Bit, BoxedBehavior, CrashPlan, FaultMode, IsolationPlan, NoFaults, PlannedFaults,
    ProcessId, Protocol, RandomOmissionPlan, Round, Scenario, ScenarioStats, SilentByzantine,
    TraceMode,
};

/// Legacy flavors under test; each returns the constructor-sugar adversary
/// and the explicit trait-level reconstruction that must match it exactly.
const FLAVORS: &[&str] = &[
    "none",
    "isolation",
    "crash",
    "random-omission",
    "byzantine",
    "mixed",
];

fn sugar<M: ba_sim::Payload>(label: &str, n: usize, seed: u64) -> Adversary<'static, Bit, M> {
    let last = ProcessId(n - 1);
    match label {
        "none" => Adversary::none(),
        "isolation" => Adversary::isolation([last], Round(2)),
        "crash" => Adversary::crash([(last, Round(2))]),
        "random-omission" => {
            Adversary::omission([last], RandomOmissionPlan::new([last], 0.25, 0.25, seed))
        }
        "byzantine" => Adversary::one_byzantine(last, SilentByzantine),
        "mixed" => {
            let om = ProcessId(n - 2);
            Adversary::mixed(
                [(last, Box::new(SilentByzantine) as _)],
                [om],
                RandomOmissionPlan::new([om], 0.3, 0.3, seed ^ 0xB0B),
            )
        }
        other => panic!("unknown flavor {other:?}"),
    }
}

/// The same flavor rebuilt by hand from `FaultModel` parts — what the sugar
/// constructors are documented to produce.
fn explicit<M: ba_sim::Payload>(label: &str, n: usize, seed: u64) -> Adversary<'static, Bit, M> {
    let last = ProcessId(n - 1);
    match label {
        "none" => Adversary::model(PlannedFaults::none()),
        "isolation" => Adversary::model(PlannedFaults::new(
            [last],
            IsolationPlan::new([last], Round(2)),
        )),
        "crash" => Adversary::model(PlannedFaults::new(
            [last],
            CrashPlan::new([(last, Round(2))]),
        )),
        "random-omission" => Adversary::model(PlannedFaults::new(
            [last],
            RandomOmissionPlan::new([last], 0.25, 0.25, seed),
        )),
        "byzantine" => Adversary::model_with_behaviors(
            [(
                last,
                Box::new(SilentByzantine) as BoxedBehavior<'static, Bit, M>,
            )],
            PlannedFaults::new([last], NoFaults),
        )
        .with_fault_mode(FaultMode::Byzantine),
        "mixed" => {
            let om = ProcessId(n - 2);
            Adversary::model_with_behaviors(
                [(
                    last,
                    Box::new(SilentByzantine) as BoxedBehavior<'static, Bit, M>,
                )],
                PlannedFaults::new(
                    [om, last],
                    RandomOmissionPlan::new([om], 0.3, 0.3, seed ^ 0xB0B),
                ),
            )
        }
        other => panic!("unknown flavor {other:?}"),
    }
}

/// The flavor's plan passed bare to `Adversary::model`, for the flavors
/// that are one plan: its own budget is the fault set.
fn bare<M: ba_sim::Payload>(
    label: &str,
    n: usize,
    seed: u64,
) -> Option<Adversary<'static, Bit, M>> {
    let last = ProcessId(n - 1);
    Some(match label {
        "isolation" => Adversary::model(IsolationPlan::new([last], Round(2))),
        "crash" => Adversary::model(CrashPlan::new([(last, Round(2))])),
        "random-omission" => Adversary::model(RandomOmissionPlan::new([last], 0.25, 0.25, seed)),
        _ => return None,
    })
}

fn assert_flavor_equivalent<P, F>(context: &str, n: usize, t: usize, factory: F)
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let seed = (n as u64) << 24 | (t as u64) << 8 | 0x5A;
    for flavor in FLAVORS {
        if *flavor == "mixed" && t < 2 {
            continue;
        }
        let scenario = |adv: Adversary<'static, Bit, P::Msg>| {
            Scenario::new(n, t)
                .protocol(&factory)
                .inputs((0..n).map(|i| Bit::from(i % 2 == 0)))
                .adversary(adv)
        };
        let ctx = format!("{context} flavor={flavor}");

        // Bit-identical full traces.
        let exec_sugar = scenario(sugar(flavor, n, seed)).run().unwrap();
        let exec_explicit = scenario(explicit(flavor, n, seed)).run().unwrap();
        exec_sugar
            .validate()
            .unwrap_or_else(|e| panic!("{ctx}: invalid execution: {e}"));
        assert_eq!(exec_sugar, exec_explicit, "{ctx}: executions diverged");
        if let Some(adv) = bare(flavor, n, seed) {
            let exec_bare = scenario(adv).run().unwrap();
            assert_eq!(exec_sugar, exec_bare, "{ctx}: bare plan diverged");
        }

        // Value-identical stats, per trace mode.
        for mode in [TraceMode::Stats, TraceMode::Full] {
            let stats_sugar = scenario(sugar(flavor, n, seed))
                .trace_mode(mode)
                .run_report()
                .unwrap();
            let stats_explicit = scenario(explicit(flavor, n, seed))
                .trace_mode(mode)
                .run_report()
                .unwrap();
            assert_eq!(
                stats_sugar, stats_explicit,
                "{ctx} mode={mode:?}: stats diverged"
            );
            if let Some(adv) = bare(flavor, n, seed) {
                let stats_bare = scenario(adv).trace_mode(mode).run_report().unwrap();
                assert_eq!(
                    stats_sugar, stats_bare,
                    "{ctx} mode={mode:?}: bare plan stats diverged"
                );
            }
            assert_eq!(
                stats_sugar,
                ScenarioStats::from_execution(&exec_sugar),
                "{ctx} mode={mode:?}: stats diverged from the trace"
            );
        }
    }
}

#[test]
fn legacy_flavors_are_bit_identical_through_the_fault_model_path() {
    // n > 3t so phase-king participates everywhere; t = 2 points exercise
    // the mixed flavor.
    for (n, t) in [(4usize, 1usize), (7, 2)] {
        assert_flavor_equivalent(&format!("flood-set n={n} t={t}"), n, t, |_| FloodSet::new());
        assert_flavor_equivalent(
            &format!("dolev-strong n={n} t={t}"),
            n,
            t,
            DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero),
        );
        assert_flavor_equivalent(&format!("phase-king n={n} t={t}"), n, t, |_| {
            PhaseKing::new(n, t)
        });
        assert_flavor_equivalent(&format!("leader-echo n={n} t={t}"), n, t, |_: ProcessId| {
            LeaderEcho::new(ProcessId(0))
        });
    }
}

/// Absolute pins: the recorded shape of legacy runs must not drift even if
/// both construction routes drift together.
#[test]
fn legacy_fragment_shapes_are_preserved() {
    let (n, t) = (4, 1);
    let exec = Scenario::new(n, t)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::One)
        .adversary(Adversary::isolation([ProcessId(3)], Round(2)))
        .run()
        .unwrap();
    // Round 1 delivered in full; from round 2 the isolated process
    // receive-omits all outside traffic.
    assert_eq!(exec.record(ProcessId(3)).fragments[0].received.len(), 3);
    assert_eq!(exec.record(ProcessId(3)).fragments[1].received.len(), 0);
    assert_eq!(
        exec.record(ProcessId(3)).fragments[1].receive_omitted.len(),
        3
    );
    assert_eq!(exec.mode, FaultMode::Omission);
    assert_eq!(exec.faulty, [ProcessId(3)].into_iter().collect());

    let exec = Scenario::new(n, t)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::Zero)
        .adversary(Adversary::crash([(ProcessId(1), Round(2))]))
        .run()
        .unwrap();
    assert_eq!(exec.record(ProcessId(1)).fragments[0].send_omitted.len(), 0);
    assert_eq!(exec.record(ProcessId(1)).fragments[1].send_omitted.len(), 3);
}

/// The legacy error surface is unchanged: oversize static sets are
/// `TooManyFaulty`, inconsistent behavior assignments `BehaviorMismatch`.
#[test]
fn legacy_error_surface_is_preserved() {
    let err = Scenario::new(3, 1)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::Zero)
        .adversary(Adversary::omission([ProcessId(0), ProcessId(1)], NoFaults))
        .run()
        .unwrap_err();
    assert_eq!(err, ba_sim::SimError::TooManyFaulty { got: 2, t: 1 });

    let err = Scenario::new(4, 2)
        .protocol(|_| FloodSet::new())
        .uniform_input(Bit::Zero)
        .adversary(Adversary::mixed(
            [(ProcessId(1), Box::new(SilentByzantine) as _)],
            [ProcessId(1)],
            NoFaults,
        ))
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ba_sim::SimError::BehaviorMismatch {
            process: ProcessId(1)
        }
    );
}
