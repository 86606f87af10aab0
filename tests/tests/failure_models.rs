//! The failure-model boundary: crash ⊊ omission ⊊ Byzantine.
//!
//! The paper proves its Ω(t²) bound in the *omission* model, and the power
//! it draws on — honest-looking processes silently dropping messages — is
//! exactly what separates omission from crash. FloodSet makes the boundary
//! concrete: correct under crashes, broken under omission.

use ba_check::{check, CheckSpec};
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_protocols::FloodSet;
use ba_sim::{
    Adversary, Bit, ExecutorConfig, ProcessId, Round, Routing, Scenario, TableOmissionPlan,
};
use ba_tests::{assert_agreement, assert_certificate, correct_decisions, uniform};

#[test]
fn floodset_agreement_under_exhaustive_crash_schedules() {
    // Sweep every crash schedule of two processes over the first t+2
    // rounds: agreement must hold in all of them.
    let (n, t) = (5, 2);
    for r1 in 1..=(t as u64 + 2) {
        for r2 in 1..=(t as u64 + 2) {
            let exec = Scenario::new(n, t)
                .protocol(|_| FloodSet::new())
                .inputs([Bit::One, Bit::One, Bit::One, Bit::Zero, Bit::Zero])
                .adversary(Adversary::crash([
                    (ProcessId(3), Round(r1)),
                    (ProcessId(4), Round(r2)),
                ]))
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert_agreement(&exec);
        }
    }
}

#[test]
fn floodset_breaks_under_omission_sandbagging() {
    // The explicit sandbagger: hide a value behind send-omissions until the
    // last round, then reveal it to exactly one correct process.
    let (n, t) = (5, 2);
    let last = t as u64 + 1;
    let mut plan = TableOmissionPlan::new();
    for round in 1..=last {
        for receiver in 0..n - 1 {
            if round < last || receiver != 0 {
                plan.set(
                    Round(round),
                    ProcessId(4),
                    ProcessId(receiver),
                    Routing::SendOmit,
                );
            }
        }
    }
    let exec = Scenario::new(n, t)
        .protocol(|_| FloodSet::new())
        .inputs([Bit::One, Bit::One, Bit::One, Bit::One, Bit::Zero])
        .adversary(Adversary::omission([ProcessId(4)], plan))
        .run()
        .unwrap();
    exec.validate().unwrap();
    let decisions = correct_decisions(&exec);
    assert_eq!(
        decisions.len(),
        2,
        "sandbagging must split the correct processes"
    );
}

#[test]
fn floodset_survives_the_falsifier_as_it_is_quadratic() {
    // FloodSet sends (t+1)·n(n−1) messages — far above the floor — so the
    // Theorem 2 recipe rightly cannot refute it, even though it is broken
    // under general omission (the falsifier's isolation adversary never
    // sandbags: isolated processes receive-omit, they do not send-omit).
    for (n, t) in [(8usize, 2usize), (12, 4)] {
        let cfg = FalsifierConfig::new(n, t);
        let verdict = falsify(&cfg, |_| FloodSet::new()).unwrap();
        match verdict {
            Verdict::Survived(report) => {
                assert!(report.max_message_complexity >= report.paper_bound);
            }
            Verdict::Violation(cert) => {
                panic!("unexpected refutation at n={n}, t={t}: {:?}", cert.kind)
            }
        }
    }
}

#[test]
fn model_check_finds_floodset_omission_violations() {
    // Every send-omission pattern of p4 over the first t + 1 rounds; the
    // sandbagging pattern above is one of them, so the space is refuted
    // and its minimal certificate verifies.
    let spec = CheckSpec::new(ExecutorConfig::new(5, 2), 3)
        .static_corruption([ProcessId(4)])
        .send_only();
    let proposals = [Bit::One, Bit::One, Bit::One, Bit::One, Bit::Zero];
    let outcome = check(&spec, |_| FloodSet::new(), &proposals, 0).unwrap();
    let found = outcome.violation().expect("omissions must break FloodSet");
    assert_certificate(&found.certificate);
    let report = outcome.report();
    assert!(report.complete);
    // 2^(4 receivers · 3 rounds) send-omission patterns.
    assert_eq!(report.executions, 4_096);
}

#[test]
fn floodset_is_weak_consensus_in_fault_free_runs() {
    let (n, t) = (6, 2);
    for bit in Bit::ALL {
        let exec = Scenario::new(n, t)
            .protocol(|_| FloodSet::new())
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(bit));
    }
}
