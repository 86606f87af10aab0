//! Cross-crate validation of the exhaustive model checker.
//!
//! * **Differential harness** — on the single-process-omission subspace
//!   (static corruption, no forging, no reordering) the new branching
//!   explorer and the legacy mask-enumerating
//!   [`exhaustive_omission_check`] must agree *exactly*: same verdict,
//!   same violation kind, and the same minimal certificate execution.
//!   Every protocol in `ba-protocols` goes through the harness, including
//!   all the planted `broken` bugs — each must be caught.
//! * **Replay property** — every shrunk violation tape must replay, by
//!   direct fault-model interpretation, to the very violation it claims.
//! * **Determinism and sharding** — thread counts must not change the
//!   outcome, and merging a sharded wire-level sweep must reproduce the
//!   unsharded sweep value-for-value, on violating, exhausted, and
//!   budget-capped spaces alike.

use ba_bench::check::{merge_check_points, CheckLabel, CheckSweepPoint};
use ba_bench::dist::{registry_check, run_manifest};
use ba_check::{check, replay, CheckOutcome, CheckSpec, CorruptionSpace};
use ba_core::lowerbound::{exhaustive_omission_check, ExhaustiveConfig, ExhaustiveOutcome};
use ba_crypto::Keybook;
use ba_dist::{merge_reports, plan_shards, Decode, ShardReport, SweepSpec};
use ba_protocols::broken::{
    EchoChain, LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_sim::{Bit, CampaignPoint, ExecutorConfig, ProcessId, Protocol};

/// Runs both checkers over the same single-process-omission space and
/// asserts they agree exactly; returns whether the space was refuted.
fn differential<P, F>(
    label: &str,
    factory: F,
    (n, t): (usize, usize),
    rounds: u64,
    send_only: bool,
    proposals: &[Bit],
    corrupted: ProcessId,
) -> bool
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let cfg = ExecutorConfig::new(n, t);
    let mut bounds = ExhaustiveConfig::new(rounds);
    if send_only {
        bounds = bounds.send_only();
    }
    let legacy = exhaustive_omission_check(&cfg, &factory, proposals, corrupted, &bounds)
        .expect("legacy check runs");

    let mut spec: CheckSpec<P::Msg> = CheckSpec::new(cfg, rounds).static_corruption([corrupted]);
    if send_only {
        spec = spec.send_only();
    }
    let outcome = check(&spec, &factory, proposals, 1).expect("new check runs");
    assert!(
        outcome.report().complete,
        "{label}: differential space must be fully explored"
    );

    match (&legacy, &outcome) {
        (ExhaustiveOutcome::Robust(_), CheckOutcome::Exhausted(_)) => false,
        (ExhaustiveOutcome::Violation(legacy_cert, _), CheckOutcome::Violation(found, _)) => {
            assert_eq!(
                found.certificate.kind, legacy_cert.kind,
                "{label}: violation kinds must match"
            );
            assert_eq!(
                found.certificate.execution, legacy_cert.execution,
                "{label}: both checkers must pick the same minimal violating execution"
            );
            legacy_cert.verify().expect("legacy certificate verifies");
            found
                .certificate
                .verify()
                .expect("new certificate verifies");

            // Replay property: the shrunk tape, interpreted directly by the
            // fault layer, reproduces the exact claimed violation.
            let replayed =
                replay(&spec, &factory, proposals, &found.choices).expect("shrunk tape replays");
            assert_eq!(replayed.violation, Some(found.certificate.kind));
            assert_eq!(replayed.corrupted, found.corrupted);
            assert_eq!(replayed.choices, found.choices);
            assert_eq!(replayed.execution, found.certificate.execution);
            true
        }
        (legacy, fresh) => panic!("{label}: verdicts diverge — legacy {legacy:?} vs {fresh:?}"),
    }
}

#[test]
fn differential_harness_agrees_with_the_legacy_checker_on_every_protocol() {
    let (n, t) = (4, 1);
    let mixed: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 1)).collect();
    let zeros = vec![Bit::Zero; n];
    let ones = vec![Bit::One; n];

    // The planted bugs, each caught by both checkers with identical minimal
    // certificates.
    assert!(differential(
        "one-round-all-to-all",
        |_| OneRoundAllToAll::new(),
        (n, t),
        1,
        true,
        &zeros,
        ProcessId(0),
    ));
    assert!(differential(
        "paranoid-echo",
        |_| ParanoidEcho::new(),
        (n, t),
        2,
        true,
        &zeros,
        ProcessId(0),
    ));
    assert!(differential(
        "echo-chain",
        |_| EchoChain::new(2),
        (n, t),
        2,
        true,
        &zeros,
        ProcessId(0),
    ));
    // A unanimous-zero verdict omitted to one process in round 2 splits the
    // decisions; the corrupted leader is where the bug lives.
    assert!(differential(
        "leader-echo",
        |_| LeaderEcho::new(ProcessId(0)),
        (n, t),
        2,
        true,
        &zeros,
        ProcessId(0),
    ));
    assert!(differential(
        "own-proposal",
        |_| OwnProposal::new(),
        (n, t),
        1,
        false,
        &mixed,
        ProcessId(3),
    ));

    // The robust protocols: proofs by enumeration from both checkers, over
    // several proposal profiles and omission directions.
    for proposals in [&zeros, &ones, &mixed] {
        assert!(!differential(
            "dolev-strong",
            DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero),
            (n, t),
            2,
            false,
            proposals,
            ProcessId(3),
        ));
        assert!(!differential(
            "flood-set",
            |_| FloodSet::new(),
            (n, t),
            1,
            false,
            proposals,
            ProcessId(1),
        ));
        assert!(!differential(
            "phase-king",
            |_| PhaseKing::new(n, t),
            (n, t),
            1,
            true,
            proposals,
            ProcessId(2),
        ));
        assert!(!differential(
            "phase-king-weak",
            |_| PhaseKing::with_phases(n, t, 1),
            (n, t),
            1,
            true,
            proposals,
            ProcessId(2),
        ));
    }

    // silent-constant-1 stonewalls Termination/Agreement checks under a
    // *corrupted* process (its constant decision is unanimous), so the
    // omission-only differential space holds — on both checkers.
    assert!(!differential(
        "silent-constant-1",
        |_| SilentConstant::new(Bit::One),
        (n, t),
        1,
        false,
        &zeros,
        ProcessId(0),
    ));
}

#[test]
fn empty_corruption_root_catches_weak_validity_beyond_the_legacy_subspace() {
    // The legacy checker always corrupts one process, which makes Weak
    // Validity vacuous; the branching explorer's corruption point includes
    // the *empty* set, where a constant-deciding protocol is refutable.
    const N: usize = 4;
    let spec: CheckSpec<Bit> = CheckSpec::new(ExecutorConfig::new(N, 1), 1).up_to(0);
    let outcome =
        check(&spec, |_| SilentConstant::new(Bit::One), &[Bit::Zero; N], 1).expect("check runs");
    let found = outcome.violation().expect("weak validity must fall");
    assert!(found.corrupted.is_empty(), "fault-free violation");
    assert!(found.choices.is_empty(), "no adversary choices needed");
    found.certificate.verify().expect("certificate verifies");
    assert!(found.certificate.kind.to_string().contains("Validity"));
}

#[test]
fn thread_counts_do_not_change_registry_check_outcomes() {
    for (protocol, inputs) in [("one-round-all-to-all", "zeros"), ("dolev-strong", "ones")] {
        let point = CampaignPoint::new(4, 1)
            .with_adversary(CheckLabel::new(1).send_only().render())
            .with_inputs(inputs);
        let single = registry_check(&point, protocol, 7, 1, None).expect("1-thread check");
        let wide = registry_check(&point, protocol, 7, 8, None).expect("8-thread check");
        assert_eq!(single, wide, "{protocol}: outcome must be thread-invariant");
    }
}

/// Plans a check sweep over the label's `shards` slices, runs every shard
/// manifest through the worker entry point, decodes the wire reports, and
/// merges them back into one [`CheckSweepPoint`].
fn sharded_check(
    label: &CheckLabel,
    protocol: &str,
    inputs: &str,
    shards: usize,
) -> CheckSweepPoint {
    let points: Vec<CampaignPoint> = label
        .slices(shards)
        .into_iter()
        .map(|slice| {
            CampaignPoint::new(4, 1)
                .with_adversary(slice.render())
                .with_inputs(inputs)
        })
        .collect();
    let grid = points.len();
    let spec = SweepSpec::check(points, protocol).worker_threads(2);
    let reports: Vec<ShardReport<CheckSweepPoint>> = plan_shards(&spec, shards)
        .iter()
        .map(|manifest| {
            let wire = run_manifest(manifest).expect("shard runs");
            ShardReport::from_wire(&wire).expect("report decodes")
        })
        .collect();
    let slices: Vec<CheckSweepPoint> = merge_reports(grid, reports)
        .expect("all slices covered")
        .into_iter()
        .map(|outcome| outcome.expect("no simulator failures"))
        .collect();
    merge_check_points(&slices).expect("slices merge")
}

#[test]
fn sharded_wire_sweeps_merge_to_the_unsharded_outcome() {
    // (protocol, inputs, label, expect_refuted): a violating space, an
    // exhaustively-robust space, and a budget-capped violating space.
    let cases = [
        (
            "one-round-all-to-all",
            "zeros",
            CheckLabel::new(1).send_only(),
            true,
        ),
        (
            "dolev-strong",
            "zeros",
            CheckLabel::new(2).send_only(),
            false,
        ),
        (
            "one-round-all-to-all",
            "zeros",
            CheckLabel::new(1).send_only().max_executions(17),
            true,
        ),
    ];
    for (protocol, inputs, label, expect_refuted) in cases {
        let whole = sharded_check(&label, protocol, inputs, 1);
        let merged = sharded_check(&label, protocol, inputs, 3);
        assert_eq!(
            merged, whole,
            "{protocol}: merge(3 shards) must equal run(1 shard)"
        );
        assert_eq!(merged.refuted, expect_refuted, "{protocol}");
        // And both must equal the straight in-process check of the space.
        let point = CampaignPoint::new(4, 1)
            .with_adversary(label.render())
            .with_inputs(inputs);
        let reference = registry_check(&point, protocol, 0, 1, None).expect("in-process check");
        assert_eq!(whole, reference, "{protocol}: wire == in-process");
    }
}

#[test]
fn oversized_spaces_are_refused_not_truncated() {
    // An UpTo corruption bound over a large n explodes combinatorially;
    // the worker must refuse the manifest up front with a typed message
    // rather than half-exploring it.
    let label = CheckLabel::new(1).corruption(CorruptionSpace::UpTo(9));
    let point = CampaignPoint::new(24, 9)
        .with_adversary(label.render())
        .with_inputs("zeros");
    let spec = SweepSpec::check([point], "dolev-strong");
    let manifest = plan_shards(&spec, 1).remove(0);
    let err = run_manifest(&manifest).expect_err("space must be refused");
    assert!(err.contains("corruption space"), "{err}");
}

#[test]
fn benchmark_spaces_keep_their_exact_counts() {
    // Two of the `model-check` benchmark's spaces: all-zero proposals,
    // both omission directions, corruption up to t. Every execution here
    // is its own state, so a fingerprint that merges distinct executions
    // shows as fewer states, and a change to the enumeration as a changed
    // execution count or tape.
    let cases = [
        ("one-round-all-to-all", (5, 1), 1, 1_281, vec![1, 1]),
        (
            "paranoid-echo",
            (4, 1),
            2,
            16_385,
            vec![1, 0, 0, 0, 0, 0, 0, 1],
        ),
    ];
    for (protocol, (n, t), rounds, count, tape) in cases {
        let point = CampaignPoint::new(n, t)
            .with_adversary(CheckLabel::new(rounds).render())
            .with_inputs("zeros");
        let sweep = registry_check(&point, protocol, 0, 0, None).expect("check runs");
        assert!(sweep.refuted && sweep.complete, "{protocol}: {sweep:?}");
        assert_eq!(sweep.states(), count, "{protocol}: states");
        assert_eq!(sweep.executions, count, "{protocol}: executions");
        assert_eq!(sweep.choices, tape, "{protocol}: shrunk tape");
    }
}
