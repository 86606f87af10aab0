//! `swap_omission` (paper Algorithm 4, Lemma 15): re-attribute one
//! process's receive-omission faults to the senders as send-omission
//! faults, making that process correct.
//!
//! This is the engine of Lemma 2: if an isolated process `p` decides
//! "wrong" and only few correct processes ever addressed it, the swap
//! produces a *valid* execution — indistinguishable to every process, hence
//! with identical decisions — in which `p` is correct, turning the wrong
//! decision into a genuine Agreement/Termination violation.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use ba_sim::{Execution, Payload, ProcessId, Value};

/// Why a swap could not produce a valid execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SwapError {
    /// The pivot process also committed send-omission faults, so it remains
    /// faulty after the swap (Lemma 15 requires
    /// `all_send_omitted(B_i) = ∅`).
    PivotSendOmitted {
        /// The pivot process.
        pivot: ProcessId,
    },
    /// The swapped execution would blame more than `t` processes — the
    /// pigeonhole of Lemma 2 did not hold for this pivot (the protocol sent
    /// it too many messages).
    TooManyFaulty {
        /// Number of faulty processes after the swap.
        got: usize,
        /// The resilience bound.
        t: usize,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::PivotSendOmitted { pivot } => {
                write!(
                    f,
                    "pivot {pivot} send-omitted messages and would stay faulty"
                )
            }
            SwapError::TooManyFaulty { got, t } => {
                write!(
                    f,
                    "swap would need {got} faulty processes, exceeding t = {t}"
                )
            }
        }
    }
}

impl Error for SwapError {}

/// Applies Algorithm 4: every message receive-omitted by `pivot` becomes
/// send-omitted by its sender; `pivot`'s receive-omissions are cleared; the
/// fault set is recomputed as exactly the processes that still commit
/// omissions.
///
/// The returned execution is indistinguishable from the input to **every**
/// process (Lemma 15(2)): received messages, states, proposals, and
/// decisions are untouched — only fault attribution moves.
///
/// The post-swap fault set is sized before anything is copied: it is every
/// sender the pivot receive-omitted from, plus every other process that
/// already omits (the surgery only adds send-omissions at those senders and
/// clears the pivot's receive-omissions). An oversize set — the common
/// outcome against a quadratic protocol — is rejected without cloning the
/// execution.
///
/// # Errors
///
/// * [`SwapError::PivotSendOmitted`] if the pivot itself send-omitted
///   (it would stay faulty);
/// * [`SwapError::TooManyFaulty`] if the recomputed fault set exceeds `t`.
pub fn swap_omission<I, O, M>(
    exec: &Execution<I, O, M>,
    pivot: ProcessId,
) -> Result<Execution<I, O, M>, SwapError>
where
    I: Value,
    O: Value,
    M: Payload,
{
    let pivot_record = exec.record(pivot);
    if pivot_record.all_send_omitted().next().is_some() {
        return Err(SwapError::PivotSendOmitted { pivot });
    }

    // The fault set after the swap (Algorithm 4 lines 10–11).
    let mut faulty: BTreeSet<ProcessId> = pivot_record
        .all_receive_omitted()
        .map(|(_, sender, _)| sender)
        .collect();
    faulty.extend(ProcessId::all(exec.n).filter(|p| {
        let rec = exec.record(*p);
        *p != pivot
            && (rec.all_send_omitted().next().is_some()
                || rec.all_receive_omitted().next().is_some())
    }));
    if faulty.len() > exec.t {
        return Err(SwapError::TooManyFaulty {
            got: faulty.len(),
            t: exec.t,
        });
    }

    let mut out = exec.clone();
    for frag in &mut out.records[pivot.index()].fragments {
        frag.receive_omitted.clear();
    }
    // Re-attribute: the sender send-omitted the message instead.
    for (round, sender, _) in pivot_record.all_receive_omitted() {
        let frag = &mut out.records[sender.index()].fragments[round.index()];
        let payload = frag
            .sent
            .remove(&pivot)
            .expect("receive-validity: a receive-omitted message was sent");
        frag.send_omitted.insert(pivot, payload);
    }
    out.faulty = faulty;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{
        Adversary, Bit, Fate, Inbox, Outbox, ProcessCtx, Protocol, Round, Scenario, SimRng,
        TableOmissionPlan,
    };

    /// Everyone broadcasts its bit each round for `rounds` rounds, then
    /// decides its own proposal.
    #[derive(Clone)]
    struct Broadcaster {
        proposal: Bit,
        rounds: u64,
        decision: Option<Bit>,
    }

    impl Broadcaster {
        fn new(rounds: u64) -> Self {
            Broadcaster {
                proposal: Bit::Zero,
                rounds,
                decision: None,
            }
        }
    }

    impl Protocol for Broadcaster {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.proposal = proposal;
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            if round.0 >= self.rounds {
                self.decision = Some(self.proposal);
                return Outbox::new();
            }
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, self.proposal);
            out
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn isolated_run(n: usize, t: usize, group: &[usize], from: Round) -> Execution<Bit, Bit, Bit> {
        let group: BTreeSet<ProcessId> = group.iter().map(|i| ProcessId(*i)).collect();
        Scenario::new(n, t)
            .protocol(|_| Broadcaster::new(3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::isolation(group, from))
            .run()
            .unwrap()
    }

    #[test]
    fn swap_clears_pivot_and_blames_senders() {
        let exec = isolated_run(4, 3, &[3], Round(2));
        let swapped = swap_omission(&exec, ProcessId(3)).unwrap();
        swapped.validate().unwrap();
        // The pivot is correct now; the three senders take the blame.
        assert!(swapped.is_correct(ProcessId(3)));
        assert_eq!(
            swapped.faulty,
            [ProcessId(0), ProcessId(1), ProcessId(2)].into()
        );
        for sender in [ProcessId(0), ProcessId(1), ProcessId(2)] {
            assert!(swapped.record(sender).all_send_omitted().next().is_some());
        }
    }

    #[test]
    fn swap_preserves_indistinguishability_for_everyone() {
        let exec = isolated_run(5, 4, &[4], Round(2));
        let swapped = swap_omission(&exec, ProcessId(4)).unwrap();
        for pid in ProcessId::all(5) {
            assert!(
                exec.indistinguishable_to(&swapped, pid),
                "{pid} can distinguish"
            );
        }
        // Decisions are untouched.
        for pid in ProcessId::all(5) {
            assert_eq!(exec.decision_of(pid), swapped.decision_of(pid));
        }
    }

    #[test]
    fn swap_fails_when_too_many_senders_get_blamed() {
        // n = 4, t = 1: isolating p3 re-attributes to 3 senders > t.
        let exec = isolated_run(4, 1, &[3], Round(2));
        let err = swap_omission(&exec, ProcessId(3)).unwrap_err();
        assert_eq!(err, SwapError::TooManyFaulty { got: 3, t: 1 });
    }

    #[test]
    fn swap_fails_for_send_omitting_pivot() {
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(1), ProcessId(2), ProcessId(0), Fate::SendOmit);
        let exec = Scenario::new(3, 1)
            .protocol(|_| Broadcaster::new(2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission([ProcessId(2)], plan))
            .run()
            .unwrap();
        let err = swap_omission(&exec, ProcessId(2)).unwrap_err();
        assert_eq!(
            err,
            SwapError::PivotSendOmitted {
                pivot: ProcessId(2)
            }
        );
    }

    #[test]
    fn swap_result_passes_execution_validation() {
        let exec = isolated_run(6, 5, &[5], Round(1));
        let swapped = swap_omission(&exec, ProcessId(5)).unwrap();
        swapped.validate().unwrap();
        // Lemma 15: the pivot's messages are now send-omitted at the exact
        // rounds they were receive-omitted before.
        let before: Vec<_> = exec
            .record(ProcessId(5))
            .all_receive_omitted()
            .map(|(r, s, m)| (r, s, *m))
            .collect();
        let mut after: Vec<_> = Vec::new();
        for sender in ProcessId::all(6) {
            for (r, recv, m) in swapped.record(sender).all_send_omitted() {
                if recv == ProcessId(5) {
                    after.push((r, sender, *m));
                }
            }
        }
        after.sort();
        let mut before = before;
        before.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn swap_on_unomitted_process_is_identity_modulo_fault_set() {
        let exec = isolated_run(4, 2, &[3], Round(2));
        // p0 never omitted anything; swapping on it only recomputes the
        // fault set (which shrinks to the truly-omitting processes).
        let swapped = swap_omission(&exec, ProcessId(0)).unwrap();
        for pid in ProcessId::all(4) {
            assert_eq!(
                exec.record(pid).fragments,
                swapped.record(pid).fragments,
                "{pid} fragments changed"
            );
        }
        assert_eq!(swapped.faulty, [ProcessId(3)].into());
    }

    /// The processes that commit any omission in `exec`, read off its
    /// fragments (not its recorded fault set).
    fn omitting(exec: &Execution<Bit, Bit, Bit>) -> BTreeSet<ProcessId> {
        ProcessId::all(exec.n)
            .filter(|p| {
                let rec = exec.record(*p);
                rec.all_send_omitted().next().is_some()
                    || rec.all_receive_omitted().next().is_some()
            })
            .collect()
    }

    /// Seeded omission-table executions: a random fault set of size ≤ `t`,
    /// each faulty sender send-omitting and each faulty receiver
    /// receive-omitting a random share of its traffic.
    fn table_runs(seed: u64, count: usize) -> Vec<Execution<Bit, Bit, Bit>> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.gen_index(3, 9);
                let t = rng.gen_index(1, n);
                let mut ids: Vec<ProcessId> = ProcessId::all(n).collect();
                rng.shuffle(&mut ids);
                let faulty: BTreeSet<ProcessId> =
                    ids.into_iter().take(rng.gen_index(1, t + 1)).collect();
                let mut plan = TableOmissionPlan::new();
                for round in 1..=3 {
                    for sender in ProcessId::all(n) {
                        for receiver in ProcessId::all(n).filter(|r| *r != sender) {
                            if faulty.contains(&sender) && rng.gen_bool(0.3) {
                                plan.set(Round(round), sender, receiver, Fate::SendOmit);
                            } else if faulty.contains(&receiver) && rng.gen_bool(0.4) {
                                plan.set(Round(round), sender, receiver, Fate::ReceiveOmit);
                            }
                        }
                    }
                }
                Scenario::new(n, t)
                    .protocol(|_| Broadcaster::new(3))
                    .uniform_input(Bit::Zero)
                    .adversary(Adversary::omission(faulty, plan))
                    .run()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn early_rejection_counts_exactly_the_post_swap_fault_set() {
        let mut executions = table_runs(0x5EED_5A4B, 48);
        for n in 4..=7 {
            for t in 1..n {
                for size in 1..=t {
                    let group: Vec<usize> = (n - size..n).collect();
                    for from in 1..=2 {
                        executions.push(isolated_run(n, t, &group, Round(from)));
                    }
                }
            }
        }
        let mut rejected = 0;
        for exec in &executions {
            for pivot in ProcessId::all(exec.n) {
                // The same surgery with the budget out of the way.
                let mut unbounded = exec.clone();
                unbounded.t = unbounded.n;
                let surgery = swap_omission(&unbounded, pivot);
                match swap_omission(exec, pivot) {
                    Err(SwapError::TooManyFaulty { got, t }) => {
                        let swapped = surgery.expect("only the budget rejected the swap");
                        assert_eq!(t, exec.t);
                        assert!(got > t);
                        assert_eq!(got, omitting(&swapped).len(), "pivot {pivot}");
                        rejected += 1;
                    }
                    Ok(swapped) => {
                        assert_eq!(swapped.faulty, omitting(&swapped), "pivot {pivot}");
                        let mut surgery = surgery.unwrap();
                        surgery.t = exec.t;
                        assert_eq!(swapped, surgery);
                    }
                    Err(err @ SwapError::PivotSendOmitted { .. }) => {
                        assert_eq!(surgery, Err(err));
                    }
                }
            }
        }
        assert!(rejected > 0, "no swap exercised the early rejection");
    }
}
