//! Property tests of the static plans and the adversary hierarchy:
//! crash ⊊ omission, isolation per Definition 1, blame accounting, and
//! routing determinism.
//!
//! Cases are generated by the in-tree seeded [`SimRng`] (the workspace
//! builds without external crates, so there is no proptest); every run
//! explores the same deterministic case set.

use std::collections::BTreeSet;

use ba_sim::{
    CrashPlan, ExecutionView, FaultBudget, FaultModel, IsolationPlan, ProcessId,
    RandomOmissionPlan, Round, Routing, SimRng,
};

/// Deterministic sample of `(round, sender, receiver)` triples over a
/// 6-process system with `sender != receiver`.
fn triples(seed: u64, cases: usize) -> Vec<(u64, usize, usize)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cases);
    while out.len() < cases {
        let round = rng.gen_range(1, 8);
        let s = rng.gen_index(0, 6);
        let r = rng.gen_index(0, 6);
        if s != r {
            out.push((round, s, r));
        }
    }
    out
}

/// Routes one message `s → r` in `round` of the 6-process system.
fn route<P: FaultModel<()>>(plan: &mut P, round: u64, s: usize, r: usize) -> Routing<()> {
    let none = BTreeSet::new();
    let view = ExecutionView {
        round: Round(round),
        n: 6,
        t: 2,
        corrupted: &none,
        charged: &none,
        sent: &[0; 6],
        delivered: &[0; 6],
    };
    plan.route(view, ProcessId(s), ProcessId(r), &())
}

/// A crash plan's routings are exactly those of an omission adversary that
/// send-omits everything from the crash round: crash is expressible in
/// (hence weaker than) the omission model.
#[test]
fn crash_is_an_omission_special_case() {
    let mut rng = SimRng::seed_from_u64(0xC4A5);
    for (round, s, r) in triples(1, 256) {
        let crash_round = rng.gen_range(1, 6);
        let crashed = ProcessId(0);
        let mut plan = CrashPlan::new([(crashed, Round(crash_round))]);
        let routing = route(&mut plan, round, s, r);
        let expected = if s == 0 && round >= crash_round {
            Routing::SendOmit
        } else if r == 0 && round >= crash_round {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        };
        assert_eq!(
            routing, expected,
            "round {round}, {s} → {r}, crash at {crash_round}"
        );
        // Blame always lands on the crashed process.
        if let Some(blamed) = routing.blamed(ProcessId(s), ProcessId(r)) {
            assert_eq!(blamed, crashed);
        }
    }
}

/// Isolation plans are stateless and deterministic: the same query always
/// yields the same routing, and the routing matches Definition 1.
#[test]
fn isolation_fate_matches_definition() {
    let mut rng = SimRng::seed_from_u64(0x150);
    for (round, s, r) in triples(2, 256) {
        let from = rng.gen_range(1, 6);
        let group = [ProcessId(4), ProcessId(5)];
        let mut plan = IsolationPlan::new(group, Round(from));
        let first = route(&mut plan, round, s, r);
        let second = route(&mut plan, round, s, r);
        assert_eq!(first, second, "stateless determinism");
        let in_group = |i: usize| i >= 4;
        let expected = if round >= from && in_group(r) && !in_group(s) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        };
        assert_eq!(
            first, expected,
            "round {round}, {s} → {r}, isolated from {from}"
        );
    }
}

/// Every routing a seeded random plan returns blames only processes in its
/// declared [`FaultBudget::Static`] set, whatever its faulty set and
/// probabilities.
#[test]
fn random_plan_blames_only_its_budget() {
    let mut rng = SimRng::seed_from_u64(0xB1A3E);
    for case in 0..32u64 {
        let faulty: Vec<ProcessId> = (0..6)
            .filter(|_| rng.gen_bool(0.3))
            .map(ProcessId)
            .collect();
        let p_send = rng.gen_range(0, 5) as f64 / 4.0;
        let p_receive = rng.gen_range(0, 5) as f64 / 4.0;
        let mut plan = RandomOmissionPlan::new(faulty.iter().copied(), p_send, p_receive, case);
        let FaultBudget::Static(budget) = FaultModel::<()>::budget(&plan) else {
            panic!("a random plan declares a static budget");
        };
        assert_eq!(budget, faulty.iter().copied().collect::<BTreeSet<_>>());
        for (round, s, r) in triples(case, 64) {
            let routing = route(&mut plan, round, s, r);
            if let Some(blamed) = routing.blamed(ProcessId(s), ProcessId(r)) {
                assert!(
                    budget.contains(&blamed),
                    "case {case}: {routing:?} of {s} → {r} blames {blamed:?} outside {budget:?}"
                );
            }
        }
    }
}

/// `Routing::blamed` is total and correct for the four variants; forging
/// is not an omission and blames nobody.
#[test]
fn blame_assignment() {
    for (_, s, r) in triples(4, 64) {
        let (s, r) = (ProcessId(s), ProcessId(r));
        assert_eq!(Routing::<u8>::Deliver.blamed(s, r), None);
        assert_eq!(Routing::<u8>::SendOmit.blamed(s, r), Some(s));
        assert_eq!(Routing::<u8>::ReceiveOmit.blamed(s, r), Some(r));
        assert_eq!(Routing::Forge(7u8).blamed(s, r), None);
    }
}
