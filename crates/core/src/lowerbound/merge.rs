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

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use ba_sim::{
    Adversary, Bit, Execution, ExecutorConfig, FnPlan, FullTrace, Outline, Payload, ProcessId,
    Protocol, Round, Routing, Scenario, SimError, TraceSink, Value,
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
    /// An execution the merge reads an isolated process's inbox from did
    /// not record it (an [`Outline`] keeps only the inboxes it was asked
    /// to), so Lemma 16 cannot be checked for that process.
    UnrecordedInbox {
        /// The process whose inbox is missing.
        process: ProcessId,
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
            MergeError::UnrecordedInbox { process } => {
                write!(f, "the inbox of {process} was not recorded")
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

/// The per-round inboxes of a recorded run: what [`merge`] replays to the
/// isolated groups and checks Lemma 16 against. An [`Execution`] records
/// every process's inbox; an [`Outline`] only those it was asked to keep.
pub(crate) trait RecordedInboxes<M> {
    /// Number of rounds executed.
    fn rounds(&self) -> u64;

    /// What `pid` received in `round`: `Ok(None)` past the run's last
    /// round, where the inbox is empty.
    ///
    /// # Errors
    ///
    /// [`MergeError::UnrecordedInbox`] naming `pid` when the run did not
    /// record its inbox — never an empty map, which would pass Lemma 16's
    /// check for a process that was not checked.
    fn received(
        &self,
        pid: ProcessId,
        round: Round,
    ) -> Result<Option<&BTreeMap<ProcessId, M>>, MergeError>;
}

impl<I: Value, O: Value, M: Payload> RecordedInboxes<M> for Execution<I, O, M> {
    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn received(
        &self,
        pid: ProcessId,
        round: Round,
    ) -> Result<Option<&BTreeMap<ProcessId, M>>, MergeError> {
        Ok(self.record(pid).fragment(round).map(|f| &f.received))
    }
}

impl<I: Value, O: Value, M: Payload> RecordedInboxes<M> for Outline<I, O, M> {
    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn received(
        &self,
        pid: ProcessId,
        round: Round,
    ) -> Result<Option<&BTreeMap<ProcessId, M>>, MergeError> {
        let rounds = self
            .inbox(pid)
            .ok_or(MergeError::UnrecordedInbox { process: pid })?;
        Ok(rounds.get(round.index()))
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
    merge_with(cfg, factory, partition, eb, kb, ec, kc, b, FullTrace::new())
}

/// [`merge`] from originals recorded in any form that keeps the isolated
/// groups' inboxes, recorded by `sink`. The sink's output must keep them
/// too (for an [`OutlineSink`](ba_sim::OutlineSink), `B ∪ C`): the Lemma 16
/// check reads the merged inboxes back.
///
/// # Errors
///
/// See [`MergeError`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_with<P, F, E, S>(
    cfg: &ExecutorConfig,
    factory: F,
    partition: &Partition,
    eb: &E,
    kb: Round,
    ec: &E,
    kc: Round,
    b: Bit,
    sink: S,
) -> Result<S::Output, MergeError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
    E: RecordedInboxes<P::Msg>,
    S: TraceSink<P>,
    S::Output: RecordedInboxes<P::Msg>,
{
    let (proposals, adversary) = merged_adversary(cfg.n, partition, eb, kb, ec, kc, b)?;
    let merged = Scenario::config(cfg)
        .protocol(&factory)
        .inputs(proposals)
        .adversary(adversary)
        .run_with_sink(sink)?;
    check_lemma_16(partition, eb, ec, &merged)?;
    Ok(merged)
}

/// The proposals and the adversary of Algorithm 5, which depend on the
/// payload type only (not on the protocol or the sink, so every protocol
/// sharing a message type shares this code).
#[allow(clippy::type_complexity)]
fn merged_adversary<'a, M, E>(
    n: usize,
    partition: &'a Partition,
    eb: &'a E,
    kb: Round,
    ec: &'a E,
    kc: Round,
    b: Bit,
) -> Result<(Vec<Bit>, Adversary<'a, Bit, M>), MergeError>
where
    M: Payload,
    E: RecordedInboxes<M>,
{
    if !mergeable(kb, kc, b) {
        return Err(MergeError::NotMergeable { kb, kc, b });
    }
    // The plan below reads the originals' inboxes, so a missing one is an
    // error before anything runs.
    for (group, original) in [(partition.b(), eb), (partition.c(), ec)] {
        for pid in group {
            original.received(*pid, Round::FIRST)?;
        }
    }

    // Proposals: A ∪ B propose 0, C proposes b (Algorithm 5 lines 4–7).
    let proposals: Vec<Bit> = ProcessId::all(n)
        .map(|p| {
            if partition.c().contains(&p) {
                b
            } else {
                Bit::Zero
            }
        })
        .collect();
    let faulty: BTreeSet<ProcessId> = partition.b().union(partition.c()).copied().collect();

    // Delivery: A receives everything; B and C receive exactly their
    // original inboxes (lines 10–18).
    let plan = FnPlan(
        move |round: Round, sender: ProcessId, receiver: ProcessId, payload: &M| {
            let original = if partition.b().contains(&receiver) {
                eb
            } else if partition.c().contains(&receiver) {
                ec
            } else {
                return Routing::Deliver;
            };
            let received_originally = matches!(
                original.received(receiver, round),
                Ok(Some(inbox)) if inbox.get(&sender) == Some(payload)
            );
            if received_originally {
                Routing::Deliver
            } else {
                Routing::ReceiveOmit
            }
        },
    );
    Ok((proposals, Adversary::omission(faulty, plan)))
}

/// Lemma 16's receive-validity claim, checked: each isolated process
/// received in `merged` exactly its original inbox, round by round.
fn check_lemma_16<M, E, R>(
    partition: &Partition,
    eb: &E,
    ec: &E,
    merged: &R,
) -> Result<(), MergeError>
where
    M: Payload,
    E: RecordedInboxes<M>,
    R: RecordedInboxes<M>,
{
    let empty = BTreeMap::new();
    for (group, original) in [(partition.b(), eb), (partition.c(), ec)] {
        for pid in group {
            let horizon = merged.rounds().max(original.rounds());
            for round in Round::up_to(horizon) {
                let got = merged.received(*pid, round)?;
                let want = original.received(*pid, round)?;
                if got.unwrap_or(&empty) != want.unwrap_or(&empty) {
                    return Err(MergeError::Diverged {
                        process: *pid,
                        round,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowerbound::family::FamilyRunner;
    use ba_crypto::Keybook;
    use ba_protocols::DolevStrong;
    use ba_sim::OutlineSink;

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
    fn merging_outlines_equals_merging_full_traces() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let (kb, kc) = (Round(3), Round(2));
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(kb, Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(kc, Bit::Zero)
            .unwrap();
        let eb_outline = runner
            .isolated_b_with(kb, Bit::Zero, OutlineSink::keeping(partition.b().clone()))
            .unwrap();
        let ec_outline = runner
            .isolated_c_with(kc, Bit::Zero, OutlineSink::keeping(partition.c().clone()))
            .unwrap();
        let merged = merge(&cfg, &factory, &partition, &eb, kb, &ec, kc, Bit::Zero).unwrap();
        let from_outlines = merge_with(
            &cfg,
            &factory,
            &partition,
            &eb_outline,
            kb,
            &ec_outline,
            kc,
            Bit::Zero,
            FullTrace::new(),
        )
        .unwrap();
        assert_eq!(merged, from_outlines);
    }

    #[test]
    fn an_unrecorded_inbox_is_a_typed_error_naming_the_process() {
        let (cfg, factory, partition) = setup(6, 2);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let b_member = *partition.b().first().unwrap();
        let c_member = *partition.c().first().unwrap();
        let outline = |keep: &BTreeSet<ProcessId>| {
            runner
                .isolated_b_with(Round(1), Bit::Zero, OutlineSink::keeping(keep.clone()))
                .unwrap()
        };
        let (kept, unkept) = (outline(partition.b()), outline(&BTreeSet::new()));
        let ec = runner
            .isolated_c_with(
                Round(1),
                Bit::Zero,
                OutlineSink::keeping(partition.c().clone()),
            )
            .unwrap();
        // Reading it is the error, never an empty inbox.
        assert_eq!(
            unkept.received(b_member, Round(1)),
            Err(MergeError::UnrecordedInbox { process: b_member })
        );
        assert!(kept.received(b_member, Round(1)).unwrap().is_some());
        let merge_into = |eb, sink| {
            merge_with(
                &cfg,
                &factory,
                &partition,
                eb,
                Round(1),
                &ec,
                Round(1),
                Bit::Zero,
                sink,
            )
        };
        // An original without the isolated group's inboxes.
        assert_eq!(
            merge_into(
                &unkept,
                OutlineSink::keeping(partition.b().union(partition.c()).copied())
            )
            .unwrap_err(),
            MergeError::UnrecordedInbox { process: b_member }
        );
        // A merged outline that keeps only B cannot be checked for C.
        assert_eq!(
            merge_into(&kept, OutlineSink::keeping(partition.b().clone())).unwrap_err(),
            MergeError::UnrecordedInbox { process: c_member }
        );
        let merged = merge_into(
            &kept,
            OutlineSink::keeping(partition.b().union(partition.c()).copied()),
        )
        .unwrap();
        assert_eq!(
            merged.faulty,
            partition.b().union(partition.c()).copied().collect()
        );
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
