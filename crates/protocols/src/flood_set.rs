//! FloodSet — the classic `t + 1`-round **crash**-tolerant consensus
//! (Lynch, *Distributed Algorithms* §6.2), included as the boundary exhibit
//! between failure models.
//!
//! Every process floods the set of values it has seen for `t + 1` rounds
//! and then decides the minimum. Under **crash** faults this solves
//! consensus: among `t + 1` rounds one is crash-free, after which all
//! correct processes hold identical sets.
//!
//! Under **general omission** — the model the paper proves its lower bound
//! in — FloodSet is *incorrect*: a send-omitting "sandbagger" can keep its
//! value hidden from every correct process until the final round and then
//! reveal it to just one of them, splitting the decision. The tests
//! construct that execution explicitly. This is exactly why the distinction
//! between crash and omission adversaries matters: the paper's Ω(t²) proof
//! draws its power from omissions that *honest-looking* processes commit.
//!
//! Validity: if all correct processes propose `v` and no other value enters
//! the system, `v` is decided — in particular Weak Validity holds, so
//! FloodSet is a legitimate (quadratic) weak-consensus baseline for the
//! falsifier, which it survives.

use std::collections::BTreeSet;

use ba_sim::{Inbox, Outbox, ProcessCtx, Protocol, Round, Value};

/// FloodSet consensus: flood seen-value sets for `t + 1` rounds, decide the
/// minimum.
///
/// ```
/// use ba_protocols::FloodSet;
/// use ba_sim::{Bit, Scenario};
///
/// let exec = Scenario::new(4, 1)
///     .protocol(|_| FloodSet::new())
///     .uniform_input(Bit::One)
///     .run()
///     .unwrap();
/// assert!(exec.all_correct_decided(Bit::One));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FloodSet<V> {
    known: BTreeSet<V>,
    decision: Option<V>,
}

impl<V: Value> FloodSet<V> {
    /// Creates the protocol.
    pub fn new() -> Self {
        FloodSet {
            known: BTreeSet::new(),
            decision: None,
        }
    }

    /// The set of values seen so far.
    pub fn known(&self) -> &BTreeSet<V> {
        &self.known
    }
}

impl<V: Value> Protocol for FloodSet<V> {
    type Input = V;
    type Output = V;
    type Msg = BTreeSet<V>;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: V) -> Outbox<Self::Msg> {
        self.known.insert(proposal);
        let mut out = Outbox::new();
        out.broadcast_to_others(ctx, self.known.clone());
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        let last = ctx.t as u64 + 1;
        let mut out = Outbox::new();
        if round.0 > last {
            return out;
        }
        for (_, set) in inbox.iter() {
            self.known.extend(set.iter().cloned());
        }
        if round.0 < last {
            out.broadcast_to_others(ctx, self.known.clone());
        } else {
            self.decision = Some(
                self.known
                    .iter()
                    .next()
                    .expect("own proposal is always known")
                    .clone(),
            );
        }
        out
    }

    fn decision(&self) -> Option<V> {
        self.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Adversary, Bit, Fate, ProcessId, Scenario, TableOmissionPlan};
    use std::collections::BTreeSet as Set;

    #[test]
    fn fault_free_decides_minimum() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| FloodSet::new())
            .inputs([Bit::One, Bit::Zero, Bit::One, Bit::One])
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert!(exec.all_correct_decided(Bit::Zero));
    }

    #[test]
    fn weak_validity_holds() {
        for bit in Bit::ALL {
            let exec = Scenario::new(5, 2)
                .protocol(|_| FloodSet::new())
                .uniform_input(bit)
                .run()
                .unwrap();
            assert!(exec.all_correct_decided(bit));
        }
    }

    #[test]
    fn message_complexity_matches_formula() {
        let (n, t) = (6, 2);
        let exec = Scenario::new(n, t)
            .protocol(|_| FloodSet::<Bit>::new())
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        assert_eq!(exec.message_complexity(), ((t + 1) * n * (n - 1)) as u64);
    }

    #[test]
    fn agreement_survives_crashes() {
        // Crash two processes at adversarial rounds: correct processes still
        // agree (the crash-free round equalizes the sets).
        for (r1, r2) in [(1u64, 1u64), (1, 2), (2, 3), (3, 3)] {
            let exec = Scenario::new(6, 2)
                .protocol(|_| FloodSet::new())
                .inputs([Bit::One, Bit::One, Bit::One, Bit::One, Bit::Zero, Bit::Zero])
                .adversary(Adversary::crash([
                    (ProcessId(4), Round(r1)),
                    (ProcessId(5), Round(r2)),
                ]))
                .run()
                .unwrap();
            exec.validate().unwrap();
            let decisions: Set<_> = exec
                .correct()
                .map(|p| exec.decision_of(p).cloned())
                .collect();
            assert_eq!(
                decisions.len(),
                1,
                "disagreement under crash at ({r1},{r2})"
            );
            assert!(decisions.iter().all(Option::is_some));
        }
    }

    #[test]
    fn sandbagger_breaks_agreement_under_general_omission() {
        // The boundary exhibit: a send-omission adversary keeps p3's value 0
        // hidden from everyone for rounds 1..t, then reveals it to p0 alone
        // in the final round t+1. p0 decides 0, other correct processes
        // decide 1 — FloodSet is NOT omission-tolerant.
        let (n, t) = (4, 2);
        let last = t as u64 + 1;
        let mut plan = TableOmissionPlan::new();
        for round in 1..=last {
            for receiver in 0..n - 1 {
                // Hide from everyone in rounds 1..t; in round t+1 reveal to
                // p0 only.
                if round < last || receiver != 0 {
                    plan.set(
                        Round(round),
                        ProcessId(3),
                        ProcessId(receiver),
                        Fate::SendOmit,
                    );
                }
            }
        }
        let exec = Scenario::new(n, t)
            .protocol(|_| FloodSet::new())
            .inputs([Bit::One, Bit::One, Bit::One, Bit::Zero])
            .adversary(Adversary::omission([ProcessId(3)], plan))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.decision_of(ProcessId(0)), Some(&Bit::Zero));
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
        assert!(exec.is_correct(ProcessId(0)) && exec.is_correct(ProcessId(1)));
    }

    #[test]
    fn multivalued_floodset_works() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| FloodSet::new())
            .inputs([30u32, 10, 20, 40])
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(10u32));
    }

    #[test]
    fn decision_round_is_t_plus_two() {
        let (n, t) = (5, 2);
        let exec = Scenario::new(n, t)
            .protocol(|_| FloodSet::<Bit>::new())
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        assert_eq!(exec.all_decided_by(), Some(Round(t as u64 + 2)));
    }
}
