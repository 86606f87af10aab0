//! EXP-TAB2 / EXP-T3 / EXP-C1: Algorithm 1 turns solutions of harder
//! problems into weak consensus at zero message cost, transferring the
//! Ω(t²) bound to every non-trivial problem; and the full composition
//! Algorithm 2 ∘ Algorithm 1 closes the circle.

use std::sync::Arc;

use ba_check::{check, CheckSpec};
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_core::reduction::{
    derive_reduction_inputs, ReductionInputs, ViaInteractiveConsistency, WeakFromAgreement,
};
use ba_core::solvability::check_containment_condition;
use ba_core::validity::{IcValidity, InputConfig, SenderValidity, StrongValidity, SystemParams};
use ba_crypto::Keybook;
use ba_protocols::interactive_consistency::authenticated_ic_factory;
use ba_protocols::{DolevStrong, EigConsensus, PhaseKing};
use ba_sim::{Bit, ExecutorConfig, ProcessId, Protocol, Scenario};
use ba_tests::uniform;

#[test]
fn weak_consensus_from_phase_king_zero_cost() {
    let (n, t) = (4, 1);
    let cfg = ExecutorConfig::new(n, t);
    let inputs =
        derive_reduction_inputs(&cfg, |_| PhaseKing::new(n, t), &StrongValidity::binary()).unwrap();
    for bit in Bit::ALL {
        let wrapped = Scenario::config(&cfg)
            .protocol(|_| WeakFromAgreement::new(PhaseKing::new(n, t), inputs.clone()))
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(wrapped.all_correct_decided(bit));
        // Zero added messages (Lemma 18): compare against the bare run on
        // the corresponding configuration.
        let bare_proposals = if bit == Bit::Zero {
            &inputs.c0
        } else {
            &inputs.c1
        };
        let bare = Scenario::config(&cfg)
            .protocol(|_| PhaseKing::new(n, t))
            .inputs(bare_proposals.iter().copied())
            .run()
            .unwrap();
        assert_eq!(wrapped.message_complexity(), bare.message_complexity());
    }
}

#[test]
fn weak_consensus_from_eig_strong_consensus() {
    let (n, t) = (4, 1);
    let cfg = ExecutorConfig::new(n, t);
    let inputs = derive_reduction_inputs(
        &cfg,
        |_| EigConsensus::new(n, t, Bit::Zero),
        &StrongValidity::binary(),
    )
    .unwrap();
    for bit in Bit::ALL {
        let exec = Scenario::config(&cfg)
            .protocol(|_| {
                WeakFromAgreement::new(EigConsensus::new(n, t, Bit::Zero), inputs.clone())
            })
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(bit));
    }
}

#[test]
fn weak_consensus_from_byzantine_broadcast() {
    let (n, t) = (5, 2);
    let cfg = ExecutorConfig::new(n, t);
    let book = Keybook::new(n);
    let vp = SenderValidity::new(ProcessId(0), vec![Bit::Zero, Bit::One]);
    let inputs = derive_reduction_inputs(
        &cfg,
        DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero),
        &vp,
    )
    .unwrap();
    for bit in Bit::ALL {
        let book = book.clone();
        let inputs_c = inputs.clone();
        let exec = Scenario::config(&cfg)
            .protocol(move |pid| {
                WeakFromAgreement::new(
                    DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero)(pid),
                    inputs_c.clone(),
                )
            })
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(bit));
    }
}

#[test]
fn weak_consensus_from_interactive_consistency() {
    // IC's decision domain is Vec<Bit> ≠ Bit: exactly the case that needs
    // the generic Output type of Algorithm 1.
    let (n, t) = (4, 1);
    let cfg = ExecutorConfig::new(n, t);
    let book = Keybook::new(n);
    let vp = IcValidity::new(vec![Bit::Zero, Bit::One]);
    let inputs =
        derive_reduction_inputs(&cfg, authenticated_ic_factory(book.clone(), Bit::Zero), &vp)
            .unwrap();
    assert_ne!(inputs.v0, inputs.v1);
    for bit in Bit::ALL {
        let book = book.clone();
        let inputs_c = inputs.clone();
        let exec = Scenario::config(&cfg)
            .protocol(move |pid| {
                WeakFromAgreement::new(
                    authenticated_ic_factory(book.clone(), Bit::Zero)(pid),
                    inputs_c.clone(),
                )
            })
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(bit));
    }
}

#[test]
fn theorem_3_composition_wrapped_protocols_face_the_falsifier() {
    // The bound transfer, demonstrated operationally: wrap Phase King into
    // weak consensus via Algorithm 1 and hand it to the falsifier. Phase
    // King is quadratic, so it survives — but the *same wrapper* applied to
    // a cheap "agreement" protocol is refuted, certificate included.
    let (n, t) = (8, 2);
    let cfg = ExecutorConfig::new(n, t);
    let inputs =
        derive_reduction_inputs(&cfg, |_| PhaseKing::new(n, t), &StrongValidity::binary()).unwrap();
    let fcfg = FalsifierConfig::new(n, t);
    let verdict = falsify(&fcfg, |_| {
        WeakFromAgreement::new(PhaseKing::new(n, t), inputs.clone())
    })
    .unwrap();
    match verdict {
        Verdict::Survived(report) => {
            assert!(report.max_message_complexity >= report.paper_bound);
        }
        Verdict::Violation(cert) => {
            panic!(
                "wrapped Phase King wrongly refuted: {:?}\n{:#?}",
                cert.kind, cert.provenance
            )
        }
    }
}

#[test]
fn full_circle_algorithm2_then_algorithm1() {
    // Close the loop of the paper's §4–§5: build strong consensus from IC
    // (Algorithm 2), then build weak consensus from that strong consensus
    // (Algorithm 1), and check the result solves weak consensus under
    // every omission adversary that acts in the first round.
    let (n, t) = (4, 1);
    let params = SystemParams::new(n, t);
    let vp = StrongValidity::binary();
    let gamma = Arc::new(
        check_containment_condition(&vp, &params)
            .gamma()
            .cloned()
            .unwrap(),
    );
    let book = Keybook::new(n);
    let cfg = ExecutorConfig::new(n, t);

    let strong_factory = {
        let book = book.clone();
        let gamma = gamma.clone();
        move |pid: ProcessId| {
            ViaInteractiveConsistency::new(
                authenticated_ic_factory(book.clone(), Bit::Zero)(pid),
                gamma.clone(),
            )
        }
    };
    let inputs = derive_reduction_inputs(&cfg, &strong_factory, &vp).unwrap();

    // Validate weak consensus behavior of the composed stack.
    for bit in Bit::ALL {
        let strong_factory = strong_factory.clone();
        let inputs_c = inputs.clone();
        let exec = Scenario::config(&cfg)
            .protocol(move |pid| WeakFromAgreement::new(strong_factory(pid), inputs_c.clone()))
            .inputs(uniform(n, bit))
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(bit));
    }

    // And under every first-round omission adversary it behaves like weak
    // consensus: a proof by enumeration.
    assert_weak_consensus_proof(&cfg, |pid| {
        WeakFromAgreement::new(strong_factory(pid), inputs.clone())
    });
}

/// Model-checks `factory` as weak consensus against every omission
/// adversary of at most `t` processes (both directions, first round) for
/// all-0, all-1 and alternating proposals, and requires a proof by
/// enumeration each time.
fn assert_weak_consensus_proof<P, F>(cfg: &ExecutorConfig, factory: F)
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let spec = CheckSpec::new(*cfg, 1);
    let alternating: Vec<Bit> = (0..cfg.n).map(|i| Bit::from(i % 2 == 1)).collect();
    for proposals in [
        uniform(cfg.n, Bit::Zero),
        uniform(cfg.n, Bit::One),
        alternating,
    ] {
        let outcome = check(&spec, &factory, &proposals, 0).unwrap();
        assert!(
            outcome.is_proof(),
            "weak consensus falls for {proposals:?}: {:?}",
            outcome.certificate().map(|c| c.kind)
        );
        // The fault-free root plus 2^6 omission patterns per corruptible
        // process at n = 4.
        assert_eq!(outcome.report().executions, 257);
    }
}

#[test]
fn corollary_1_shape_reduction_inputs_from_two_executions() {
    // External-validity algorithms escape the formalism, but Corollary 1
    // only needs two fully correct executions with different decisions.
    // Manufacture the inputs directly from executions, not from a validity
    // enumeration.
    let (n, t) = (4, 1);
    let cfg = ExecutorConfig::new(n, t);
    let run = |proposals: Vec<Bit>| {
        Scenario::config(&cfg)
            .protocol(|_| PhaseKing::new(n, t))
            .inputs(proposals)
            .run()
            .unwrap()
    };
    let e0 = run(uniform(n, Bit::Zero));
    let e1 = run(uniform(n, Bit::One));
    let all: Vec<ProcessId> = ProcessId::all(n).collect();
    let v0 = e0.unanimous_decision(all.iter()).unwrap();
    let v1 = e1.unanimous_decision(all.iter()).unwrap();
    assert_ne!(v0, v1);
    let inputs = ReductionInputs {
        c0: uniform(n, Bit::Zero),
        c1: uniform(n, Bit::One),
        v0,
        v1,
        c_star: InputConfig::full(uniform(n, Bit::One)),
    };
    assert_weak_consensus_proof(&cfg, |_| {
        WeakFromAgreement::new(PhaseKing::new(n, t), inputs.clone())
    });
}
