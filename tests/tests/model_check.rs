//! Cross-crate validation of the exhaustive model checker.
//!
//! * **Golden table** — on single-process omission spaces (static
//!   corruption, no forging, no reordering) every protocol in
//!   `ba-protocols`, including all the planted `broken` bugs, keeps the
//!   verdict, violation kind, shrunk tape and execution count pinned in
//!   `GOLDEN`. The verdicts and minimal certificates are those of the
//!   mask-enumerating legacy checker that this explorer replaced, read
//!   while the two still ran side by side and agreed on every row. Each
//!   legacy minimal adversary was one send omission of the corrupted
//!   process or none, so every certificate must equal the run under that
//!   explicit omission table.
//! * **Replay property** — every shrunk violation tape must replay, by
//!   direct fault-model interpretation, to the very violation it claims.
//! * **Determinism and sharding** — thread counts must not change the
//!   outcome, and merging a sharded wire-level sweep must reproduce the
//!   unsharded sweep value-for-value, on violating, exhausted, and
//!   budget-capped spaces alike.

use ba_bench::check::{merge_check_points, CheckLabel, CheckSweepPoint};
use ba_bench::dist::{registry_check, run_manifest};
use ba_check::{check, replay, CheckSpec, CorruptionSpace};
use ba_core::lowerbound::ViolationKind;
use ba_crypto::Keybook;
use ba_dist::{merge_reports, plan_shards, Decode, ShardReport, SweepSpec};
use ba_protocols::broken::{
    EchoChain, LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_sim::{
    Adversary, Bit, CampaignPoint, ExecutorConfig, ProcessId, Protocol, Round, Routing, Scenario,
    TableOmissionPlan,
};

/// A pinned outcome: a proof by enumeration, or the minimal violation.
enum Expect {
    Robust,
    Violated {
        kind: ViolationKind,
        /// ba-check's shrunk choice tape.
        tape: &'static [u32],
        /// The legacy minimal adversary: the corrupted process's one send
        /// omission `(round, receiver)`, or none.
        omission: Option<(u64, usize)>,
    },
}

const fn agreement(
    p: usize,
    q: usize,
    tape: &'static [u32],
    omission: Option<(u64, usize)>,
) -> Expect {
    Expect::Violated {
        kind: ViolationKind::Agreement {
            p: ProcessId(p),
            q: ProcessId(q),
        },
        tape,
        omission,
    }
}

/// `(protocol, corrupted, fault rounds, send-only, proposals, executions,
/// outcome)` of one space at n = 4, t = 1.
type Row = (&'static str, usize, u64, bool, [u8; 4], u64, Expect);

/// Every space of the former differential harness, then the legacy
/// checker's own unit-test spaces.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("one-round-all-to-all", 0, 1, true,  [0, 0, 0, 0],  8, agreement(1, 2, &[1], Some((1, 1)))),
    ("paranoid-echo",        0, 2, true,  [0, 0, 0, 0], 64, agreement(1, 2, &[0, 0, 0, 1], Some((2, 1)))),
    ("echo-chain",           0, 2, true,  [0, 0, 0, 0], 64, agreement(1, 2, &[0, 0, 0, 1], Some((2, 1)))),
    // A unanimous-zero verdict omitted to one process in round 2 splits
    // the decisions; the corrupted leader is where the bug lives.
    ("leader-echo",          0, 2, true,  [0, 0, 0, 0],  8, agreement(1, 2, &[1], Some((2, 1)))),
    ("own-proposal",         3, 1, false, [0, 1, 0, 1],  1, agreement(0, 1, &[], None)),
    ("dolev-strong",         3, 2, false, [0, 0, 0, 0], 36, Expect::Robust),
    ("dolev-strong",         3, 2, false, [1, 1, 1, 1], 36, Expect::Robust),
    ("dolev-strong",         3, 2, false, [0, 1, 0, 1], 36, Expect::Robust),
    ("flood-set",            1, 1, false, [0, 0, 0, 0], 64, Expect::Robust),
    ("flood-set",            1, 1, false, [1, 1, 1, 1], 64, Expect::Robust),
    ("flood-set",            1, 1, false, [0, 1, 0, 1], 64, Expect::Robust),
    ("phase-king",           2, 1, true,  [0, 0, 0, 0],  8, Expect::Robust),
    ("phase-king",           2, 1, true,  [1, 1, 1, 1],  8, Expect::Robust),
    ("phase-king",           2, 1, true,  [0, 1, 0, 1],  8, Expect::Robust),
    ("phase-king-weak",      2, 1, true,  [0, 0, 0, 0],  8, Expect::Robust),
    ("phase-king-weak",      2, 1, true,  [1, 1, 1, 1],  8, Expect::Robust),
    ("phase-king-weak",      2, 1, true,  [0, 1, 0, 1],  8, Expect::Robust),
    // silent-constant-1 stonewalls Termination/Agreement checks under a
    // *corrupted* process (its constant decision is unanimous).
    ("silent-constant-1",    0, 1, false, [0, 0, 0, 0],  1, Expect::Robust),
    ("one-round-all-to-all", 3, 1, true,  [0, 0, 0, 0],  8, agreement(0, 1, &[1], Some((1, 0)))),
    ("paranoid-echo",        3, 2, true,  [0, 0, 0, 0], 64, agreement(0, 1, &[0, 0, 0, 1], Some((2, 0)))),
    // Even the designated sender cannot split the correct processes.
    ("dolev-strong",         0, 2, true,  [1, 1, 1, 1],  8, Expect::Robust),
];

/// Checks one golden row's space and asserts its pinned outcome.
fn pin<P, F>(row: &Row, factory: F)
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let (label, corrupted, rounds, send_only, proposals, executions, expect) = row;
    let label = format!("{label} p{corrupted} {proposals:?}");
    let corrupted = ProcessId(*corrupted);
    let proposals = proposals.map(|b| Bit::from(b == 1));
    let cfg = ExecutorConfig::new(4, 1);
    let mut spec: CheckSpec<P::Msg> = CheckSpec::new(cfg, *rounds).static_corruption([corrupted]);
    if *send_only {
        spec = spec.send_only();
    }
    let outcome = check(&spec, &factory, &proposals, 1).expect("check runs");
    assert!(outcome.report().complete, "{label}: must be fully explored");
    assert_eq!(
        outcome.report().executions,
        *executions,
        "{label}: executions"
    );

    let Expect::Violated {
        kind,
        tape,
        omission,
    } = expect
    else {
        let kind = outcome.certificate().map(|c| c.kind);
        assert!(outcome.is_proof(), "{label}: verdict moved to {kind:?}");
        return;
    };
    let found = outcome
        .violation()
        .unwrap_or_else(|| panic!("{label}: verdict moved to exhausted"));
    assert_eq!(found.certificate.kind, *kind, "{label}: violation kind");
    assert_eq!(found.choices, *tape, "{label}: shrunk tape");
    found.certificate.verify().expect("certificate verifies");

    // The certificate is the legacy minimal adversary's run.
    let mut plan = TableOmissionPlan::new();
    if let Some((round, receiver)) = omission {
        plan.set(
            Round(*round),
            corrupted,
            ProcessId(*receiver),
            Routing::SendOmit,
        );
    }
    let table = Scenario::config(&cfg)
        .protocol(&factory)
        .inputs(proposals)
        .adversary(Adversary::omission([corrupted], plan))
        .run()
        .expect("table run");
    assert_eq!(
        found.certificate.execution, table,
        "{label}: minimal certificate"
    );

    // Replay property: the shrunk tape, interpreted directly by the fault
    // layer, reproduces the exact claimed violation.
    let replayed =
        replay(&spec, &factory, &proposals, &found.choices).expect("shrunk tape replays");
    assert_eq!(replayed.violation, Some(found.certificate.kind));
    assert_eq!(replayed.corrupted, found.corrupted);
    assert_eq!(replayed.choices, found.choices);
    assert_eq!(replayed.execution, found.certificate.execution);
}

#[test]
fn differential_harness_agrees_with_the_legacy_checker_on_every_protocol() {
    for row in GOLDEN {
        match row.0 {
            "one-round-all-to-all" => pin(row, |_| OneRoundAllToAll::new()),
            "paranoid-echo" => pin(row, |_| ParanoidEcho::new()),
            "echo-chain" => pin(row, |_| EchoChain::new(2)),
            "leader-echo" => pin(row, |_| LeaderEcho::new(ProcessId(0))),
            "own-proposal" => pin(row, |_| OwnProposal::new()),
            "dolev-strong" => pin(
                row,
                DolevStrong::factory(Keybook::new(4), ProcessId(0), Bit::Zero),
            ),
            "flood-set" => pin(row, |_| FloodSet::new()),
            "phase-king" => pin(row, |_| PhaseKing::new(4, 1)),
            "phase-king-weak" => pin(row, |_| PhaseKing::with_phases(4, 1, 1)),
            "silent-constant-1" => pin(row, |_| SilentConstant::new(Bit::One)),
            other => panic!("no factory for {other}"),
        }
    }
}

#[test]
fn empty_corruption_root_catches_weak_validity_beyond_the_legacy_subspace() {
    // The legacy checker always corrupted one process, which makes Weak
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
