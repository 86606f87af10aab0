//! `merge` (paper Definition 2, Algorithm 5, Lemma 16): combine two
//! mergeable isolation executions into one execution in which **both**
//! groups are simultaneously isolated and behave exactly as in their
//! respective originals.
//!
//! The construction re-runs all state machines: group `A` receives
//! everything addressed to it; groups `B` and `C` receive *exactly* the
//! messages they received in `E_B(k₁)_0` and `E_C(k₂)_b` respectively
//! (receive-omitting the rest). Lemma 16's receive-validity argument — that
//! every such message is in fact re-sent in the merged run — is not assumed
//! but **checked**: any divergence is reported as
//! [`MergeError::Diverged`].

use std::error::Error;
use std::fmt;

use ba_sim::{
    Adversary, Bit, Execution, ExecutorConfig, FnPlan, ProcessId, Protocol, Round, Routing,
    Scenario, SimError,
};

use super::family::Partition;

/// Why a merge failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MergeError {
    /// The two executions are not mergeable per Definition 2
    /// (`k₁ = k₂ = 1`, or `|k₁ − k₂| ≤ 1` with `b = 0`).
    NotMergeable {
        /// Isolation round of `B` in the first execution.
        kb: Round,
        /// Isolation round of `C` in the second execution.
        kc: Round,
        /// The proposal bit of the second execution.
        b: Bit,
    },
    /// The executor rejected the merged run.
    Sim(SimError),
    /// A process of an isolated group did not receive, in the merged run,
    /// exactly what it received in its original execution — the protocol is
    /// non-deterministic or the inputs were not the advertised families.
    Diverged {
        /// The process whose inbox diverged.
        process: ProcessId,
        /// The first round of divergence.
        round: Round,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NotMergeable { kb, kc, b } => {
                write!(
                    f,
                    "executions E_B({}) and E_C({})_{b} are not mergeable",
                    kb.0, kc.0
                )
            }
            MergeError::Sim(e) => write!(f, "merged run failed: {e}"),
            MergeError::Diverged { process, round } => {
                write!(
                    f,
                    "merged inbox of {process} diverged from the original in {round}"
                )
            }
        }
    }
}

impl Error for MergeError {}

impl From<SimError> for MergeError {
    fn from(e: SimError) -> Self {
        MergeError::Sim(e)
    }
}

/// Definition 2: are `E_B(k₁)_0` and `E_C(k₂)_b` mergeable?
pub fn mergeable(kb: Round, kc: Round, b: Bit) -> bool {
    (kb == Round(1) && kc == Round(1)) || (kb.0.abs_diff(kc.0) <= 1 && b == Bit::Zero)
}

/// Algorithm 5: construct the merged execution `E*`.
///
/// * `eb` must be `E_B(kb)_0` (all propose 0, `B` isolated from `kb`);
/// * `ec` must be `E_C(kc)_b` (all propose `b`, `C` isolated from `kc`);
/// * the merged run has `A ∪ B` proposing 0 and `C` proposing `b`, with
///   faulty set `B ∪ C`, `B` isolated from `kb` and `C` from `kc`.
///
/// On success the merged execution is indistinguishable from `eb` to every
/// process in `B` and from `ec` to every process in `C` (Lemma 16), which
/// the caller can (and the falsifier does) assert via
/// [`Execution::indistinguishable_to`].
///
/// # Errors
///
/// See [`MergeError`].
#[allow(clippy::too_many_arguments)]
pub fn merge<P, F>(
    cfg: &ExecutorConfig,
    factory: F,
    partition: &Partition,
    eb: &Execution<Bit, Bit, P::Msg>,
    kb: Round,
    ec: &Execution<Bit, Bit, P::Msg>,
    kc: Round,
    b: Bit,
) -> Result<Execution<Bit, Bit, P::Msg>, MergeError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    if !mergeable(kb, kc, b) {
        return Err(MergeError::NotMergeable { kb, kc, b });
    }

    // Proposals: A ∪ B propose 0, C proposes b (Algorithm 5 lines 4–7).
    let proposals: Vec<Bit> = ProcessId::all(cfg.n)
        .map(|p| {
            if partition.c().contains(&p) {
                b
            } else {
                Bit::Zero
            }
        })
        .collect();
    let faulty: std::collections::BTreeSet<ProcessId> =
        partition.b().union(partition.c()).copied().collect();

    // Delivery: A receives everything; B and C receive exactly their
    // original inboxes (lines 10–18).
    let plan = FnPlan(
        |round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg| {
            let original = if partition.b().contains(&receiver) {
                eb
            } else if partition.c().contains(&receiver) {
                ec
            } else {
                return Routing::Deliver;
            };
            let received_originally = original
                .record(receiver)
                .fragment(round)
                .is_some_and(|frag| frag.received.get(&sender) == Some(payload));
            if received_originally {
                Routing::Deliver
            } else {
                Routing::ReceiveOmit
            }
        },
    );

    let merged = Scenario::config(cfg)
        .protocol(&factory)
        .inputs(proposals)
        .adversary(Adversary::omission(faulty, plan))
        .run()?;

    // Lemma 16's receive-validity claim, checked: each isolated process
    // received exactly its original inbox, round by round.
    for (group, original) in [(partition.b(), eb), (partition.c(), ec)] {
        for pid in group {
            let horizon = merged.rounds.max(original.rounds);
            for round in Round::up_to(horizon) {
                let got = merged.record(*pid).fragment(round).map(|f| &f.received);
                let want = original.record(*pid).fragment(round).map(|f| &f.received);
                let empty = std::collections::BTreeMap::new();
                if got.unwrap_or(&empty) != want.unwrap_or(&empty) {
                    return Err(MergeError::Diverged {
                        process: *pid,
                        round,
                    });
                }
            }
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowerbound::family::FamilyRunner;
    use ba_crypto::Keybook;
    use ba_protocols::DolevStrong;

    fn setup(
        n: usize,
        t: usize,
    ) -> (
        ExecutorConfig,
        impl Fn(ProcessId) -> DolevStrong<Bit>,
        Partition,
    ) {
        let cfg = ExecutorConfig::new(n, t)
            .with_stop_when_quiescent(false)
            .with_max_rounds(10);
        let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero);
        let partition = Partition::paper_default(n, t);
        (cfg, factory, partition)
    }

    #[test]
    fn mergeability_follows_definition_2() {
        assert!(mergeable(Round(1), Round(1), Bit::One));
        assert!(mergeable(Round(1), Round(1), Bit::Zero));
        assert!(mergeable(Round(4), Round(3), Bit::Zero));
        assert!(mergeable(Round(3), Round(3), Bit::Zero));
        assert!(mergeable(Round(3), Round(4), Bit::Zero));
        assert!(
            !mergeable(Round(4), Round(2), Bit::Zero),
            "two rounds apart"
        );
        assert!(
            !mergeable(Round(2), Round(2), Bit::One),
            "b = 1 requires k = 1"
        );
        assert!(!mergeable(Round(1), Round(2), Bit::One));
    }

    #[test]
    fn merge_rejects_non_mergeable_inputs() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(4), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        let err = merge(
            &cfg,
            &factory,
            &partition,
            &eb,
            Round(4),
            &ec,
            Round(2),
            Bit::Zero,
        )
        .unwrap_err();
        assert!(matches!(err, MergeError::NotMergeable { .. }));
    }

    #[test]
    fn merged_execution_is_valid_and_isolates_both_groups() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        let merged = merge(
            &cfg,
            &factory,
            &partition,
            &eb,
            Round(2),
            &ec,
            Round(2),
            Bit::Zero,
        )
        .unwrap();
        merged.validate().unwrap();
        assert_eq!(
            merged.faulty,
            partition.b().union(partition.c()).copied().collect()
        );
        // Both groups receive nothing from outside their group from round 2.
        for group in [partition.b(), partition.c()] {
            for pid in group {
                for frag in &merged.record(*pid).fragments[1..] {
                    assert!(frag.received.keys().all(|s| group.contains(s)));
                }
            }
        }
    }

    #[test]
    fn lemma_16_indistinguishability_for_isolated_groups() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(1), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(1), Bit::One)
            .unwrap();
        let merged = merge(
            &cfg,
            &factory,
            &partition,
            &eb,
            Round(1),
            &ec,
            Round(1),
            Bit::One,
        )
        .unwrap();
        for pid in partition.b() {
            assert!(
                merged.indistinguishable_to(&eb, *pid),
                "{pid} distinguishes E* from E_B"
            );
        }
        for pid in partition.c() {
            assert!(
                merged.indistinguishable_to(&ec, *pid),
                "{pid} distinguishes E* from E_C"
            );
        }
        // Consequence: isolated groups decide in E* exactly as in their
        // originals.
        for pid in partition.b() {
            assert_eq!(merged.decision_of(*pid), eb.decision_of(*pid));
        }
        for pid in partition.c() {
            assert_eq!(merged.decision_of(*pid), ec.decision_of(*pid));
        }
    }

    #[test]
    fn merge_one_round_apart_works() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(3), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        let merged = merge(
            &cfg,
            &factory,
            &partition,
            &eb,
            Round(3),
            &ec,
            Round(2),
            Bit::Zero,
        )
        .unwrap();
        merged.validate().unwrap();
        for pid in partition.b() {
            assert!(merged.indistinguishable_to(&eb, *pid));
        }
        for pid in partition.c() {
            assert!(merged.indistinguishable_to(&ec, *pid));
        }
    }

    #[test]
    fn merged_message_complexity_counts_only_group_a() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(1), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(1), Bit::Zero)
            .unwrap();
        let merged = merge(
            &cfg,
            &factory,
            &partition,
            &eb,
            Round(1),
            &ec,
            Round(1),
            Bit::Zero,
        )
        .unwrap();
        let a_sent: u64 = partition
            .a()
            .iter()
            .map(|p| merged.record(*p).total_sent())
            .sum();
        assert_eq!(merged.message_complexity(), a_sent);
    }
}
