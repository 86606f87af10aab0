//! The Ω(t²) lower bound of paper §3, as executable machinery.
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Isolation (Definition 1) & the execution families of Table 1 | [`family`] |
//! | `swap_omission` (Algorithm 4, Lemma 15) | [`swap`] |
//! | Mergeable executions (Definition 2) & `merge` (Algorithm 5, Lemma 16) | the `merge` module |
//! | The WLOG bit-relabeling ("assume the default bit is 1") | [`flip`] |
//! | Critical round (Lemma 4) and the full Theorem 2 argument | [`falsifier`] |
//! | Weak consensus (Termination, Agreement, Weak Validity) of one execution | [`weak_consensus_violation`] |
//!
//! Exhaustive model checking over every omission (and forging) adversary of
//! at most `t` processes on tiny instances lives in the `ba-check` crate,
//! which classifies each explored execution with
//! [`weak_consensus_violation`] and certifies its findings as
//! [`Certificate`]s.
//!
//! The [`falsifier`] is the proof of Theorem 2 *run forward*: instead of
//! deriving a contradiction from an assumed cheap algorithm, it takes an
//! actual protocol and mechanically constructs the executions the proof
//! talks about. For genuinely sub-quadratic protocols it terminates with a
//! [`Certificate`] — a concrete omission-only execution, checkable by
//! [`Certificate::verify`], in which weak consensus is violated. For
//! protocols that send enough messages, the very steps of the proof fail in
//! the ways the paper predicts (the pigeonhole of Lemma 2 finds no
//! low-omission process), and the falsifier reports survival along with the
//! observed message complexity — at least `t²/32` for correct algorithms.

pub mod falsifier;
pub mod family;
pub mod flip;
pub mod merge;
pub mod swap;

pub use falsifier::{
    falsify, find_critical_round, lemma2_violation, weak_consensus_violation, Certificate,
    CertificateError, CriticalRoundReport, FalsifierConfig, FalsifyError, SurvivalReport, Verdict,
    ViolationKind,
};
pub use family::{FamilyRunner, Partition};
pub use flip::{unflip_execution, BitFlipped};
pub use merge::{merge, MergeError};
pub use swap::{swap_omission, SwapError};

/// Small single-process omission spaces settled by enumerating every
/// adversary with `ba-check`.
#[cfg(test)]
mod exhaustive {
    mod tests {
        use ba_check::{check, CheckSpec};
        use ba_crypto::Keybook;
        use ba_protocols::broken::{OneRoundAllToAll, ParanoidEcho};
        use ba_protocols::DolevStrong;
        use ba_sim::{Bit, ExecutorConfig, Payload, ProcessId};

        /// n = 4, t = 1, `p` statically corrupted for the first `rounds`.
        fn space<M: Payload>(p: usize, rounds: u64) -> CheckSpec<M> {
            CheckSpec::new(ExecutorConfig::new(4, 1), rounds).static_corruption([ProcessId(p)])
        }

        #[test]
        fn one_round_all_to_all_minimal_violation_is_one_omission() {
            let spec = space(3, 1).send_only();
            let outcome = check(&spec, |_| OneRoundAllToAll::new(), &[Bit::Zero; 4], 1).unwrap();
            let cert = outcome.certificate().expect("violation must exist");
            cert.verify().unwrap();
            // Minimality: a single send omission suffices, and the shrunk
            // certificate uses exactly one.
            let omissions: usize = cert
                .execution
                .records
                .iter()
                .map(|r| r.all_send_omitted().count() + r.all_receive_omitted().count())
                .sum();
            assert_eq!(omissions, 1);
        }

        #[test]
        fn paranoid_echo_violation_found_exhaustively() {
            let spec = space(3, 2).send_only();
            let outcome = check(&spec, |_| ParanoidEcho::new(), &[Bit::Zero; 4], 1).unwrap();
            let cert = outcome.certificate().expect("violation must exist");
            cert.verify().unwrap();
        }

        #[test]
        fn dolev_strong_is_robust_to_every_single_process_omission_adversary() {
            // A proof by enumeration (both directions, 2 rounds): no
            // omission adversary controlling p3 can break DS weak consensus.
            let book = Keybook::new(4);
            for proposals in [[Bit::Zero; 4], [Bit::One; 4]] {
                let ds = DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero);
                let outcome = check(&space(3, 2), ds, &proposals, 1).unwrap();
                let kind = outcome.certificate().map(|c| c.kind);
                assert!(outcome.is_proof(), "DS wrongly refuted: {kind:?}");
                assert_eq!(outcome.report().executions, 36);
            }
        }

        #[test]
        fn corrupting_the_sender_is_also_harmless_for_ds() {
            // Even the designated sender, under every send-omission pattern
            // of the first two rounds, cannot split the correct processes.
            let ds = DolevStrong::factory(Keybook::new(4), ProcessId(0), Bit::Zero);
            let outcome = check(&space(0, 2).send_only(), ds, &[Bit::One; 4], 1).unwrap();
            assert!(outcome.is_proof());
        }
    }
}
