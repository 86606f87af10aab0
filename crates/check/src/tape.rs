//! The tape-driven [`FaultModel`]: one adversary branch of the decision
//! tree, interpreted deterministically.
//!
//! Every nondeterministic choice the fault layer offers — which corruption
//! set to charge, each in-horizon message's fate (deliver / send-omit /
//! receive-omit / forge), and optionally the within-round delivery order —
//! is a **decision point** with a finite arity. A [`TapeModel`] resolves
//! the `j`-th decision point encountered during an execution from the
//! `j`-th digit of a choice tape; positions beyond the tape (or digits out
//! of range) take the *default* choice `0`, which always means "no fault"
//! (deliver, identity schedule, empty corruption when the space allows it).
//!
//! The model also **records** every decision point it encountered
//! ([`TapeModel::points`]): the recording is what lets the explorer
//! enumerate the children of a tape (each recorded point with arity `a`
//! spawns `a − 1` siblings of the default), and what gives every leaf its
//! canonical [`ViolationKey`](crate::ViolationKey) digits.
//!
//! Decision points carry a **rank**, a stable label independent of the
//! order in which points are consumed: `(round, edge, kind)` for routing
//! points, the round for schedule points, and `u64::MAX` for the
//! corruption point. Ranks exist so minimality between two adversary
//! branches can be compared positionally even when the branches encounter
//! their points in different orders. On a single-corruption omission space
//! the ranks ascend with the round, then sends before receives, then the
//! peer, so among branches with equally many omissions the minimal one is
//! the one whose latest omission comes earliest.

use std::collections::BTreeSet;

use ba_sim::{
    Envelope, ExecutionView, FaultBudget, FaultMode, FaultModel, Payload, ProcessId, Routing,
};

use crate::CheckSpec;

/// Longest routing queue a schedule decision point is created for. `5! =
/// 120` children per reorder point is already generous; longer queues are
/// delivered in natural order (no point, no branching).
pub const MAX_REORDER_QUEUE: usize = 5;

/// The rank reserved for the corruption decision point. It compares after
/// every routing/schedule rank, so among equal-weight violations the
/// corruption choice is the most significant digit.
pub const CORRUPTION_RANK: u64 = u64::MAX;

/// One decision point encountered while interpreting a tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PointRec {
    /// Number of alternatives at this point (`≥ 2`; unary "choices" are
    /// not points).
    pub arity: u32,
    /// Stable order label of this point (see the module docs).
    pub rank: u64,
    /// The choice taken (`0` = default / no fault).
    pub choice: u32,
}

/// `n!` for the tiny factorials a schedule point can have.
pub(crate) fn factorial(n: usize) -> usize {
    (1..=n).product::<usize>().max(1)
}

/// A [`FaultModel`] that replays one branch of the adversary decision tree
/// from a digit tape, recording every decision point it encounters.
#[derive(Debug)]
pub struct TapeModel<'a, M> {
    spec: &'a CheckSpec<M>,
    corrupted: BTreeSet<ProcessId>,
    tape: &'a [u32],
    points: Vec<PointRec>,
}

impl<'a, M: Payload> TapeModel<'a, M> {
    /// Builds the model for one tape. `subsets` is the corruption space in
    /// canonical order (see
    /// [`CheckSpec::corruption_subsets`](crate::CheckSpec::corruption_subsets));
    /// when it offers more than one subset, the first tape digit selects
    /// one (the corruption decision point), otherwise the single subset is
    /// taken unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `subsets` is empty.
    pub fn new(spec: &'a CheckSpec<M>, subsets: &[BTreeSet<ProcessId>], tape: &'a [u32]) -> Self {
        assert!(!subsets.is_empty(), "corruption space cannot be empty");
        let mut model = TapeModel {
            spec,
            corrupted: BTreeSet::new(),
            tape,
            points: Vec::new(),
        };
        let choice = if subsets.len() > 1 {
            model.next_choice(subsets.len() as u32, CORRUPTION_RANK)
        } else {
            0
        };
        model.corrupted = subsets[choice as usize].clone();
        model
    }

    /// The decision points encountered so far, in consumption order.
    pub fn points(&self) -> &[PointRec] {
        &self.points
    }

    /// The corruption set this branch charges.
    pub fn corrupted(&self) -> &BTreeSet<ProcessId> {
        &self.corrupted
    }

    /// Consumes the model after its run, handing over the recorded decision
    /// points and the corruption set without copying either.
    pub fn into_parts(self) -> (Vec<PointRec>, BTreeSet<ProcessId>) {
        (self.points, self.corrupted)
    }

    /// Consumes the next tape digit as a decision point of the given
    /// `arity`, recording it. Missing or out-of-range digits collapse to
    /// the default choice `0`.
    fn next_choice(&mut self, arity: u32, rank: u64) -> u32 {
        debug_assert!(arity >= 2, "unary choices are not decision points");
        let raw = self.tape.get(self.points.len()).copied().unwrap_or(0);
        let choice = if raw < arity { raw } else { 0 };
        self.points.push(PointRec {
            arity,
            rank,
            choice,
        });
        choice
    }

    /// Per-round rank stride: `3n²` edge labels (send-only / receive-only /
    /// mixed kinds) plus one schedule label.
    fn per_round(n: usize) -> u64 {
        let n = n as u64;
        3 * n * n + 1
    }
}

impl<M: Payload> FaultModel<M> for TapeModel<'_, M> {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.corrupted.clone())
    }

    fn mode(&self) -> FaultMode {
        if self.spec.forge_payloads.is_empty() || self.corrupted.is_empty() {
            FaultMode::Omission
        } else {
            FaultMode::Byzantine
        }
    }

    fn reorders(&self) -> bool {
        self.spec.reorder
    }

    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        if view.round.0 > self.spec.rounds {
            return;
        }
        let len = queue.len();
        if !(2..=MAX_REORDER_QUEUE).contains(&len) {
            return;
        }
        let n = view.n as u64;
        let rank = (view.round.0 - 1) * Self::per_round(view.n) + 3 * n * n;
        let choice = self.next_choice(factorial(len) as u32, rank) as usize;
        // Lehmer unrank: choice in factorial base selects a permutation;
        // each digit rotates the chosen element to the front of the
        // remaining subslice (envelopes can only be permuted, not cloned).
        let mut rest = choice;
        for i in 0..len {
            let base = factorial(len - 1 - i);
            let digit = rest / base;
            rest %= base;
            queue[i..=i + digit].rotate_right(1);
        }
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        if view.round.0 > self.spec.rounds {
            return Routing::Deliver;
        }
        let can_send_omit = self.spec.send_omissions && self.corrupted.contains(&sender);
        let can_receive_omit = self.spec.receive_omissions && self.corrupted.contains(&receiver);
        let can_forge = self.corrupted.contains(&sender)
            && self.spec.forge_payloads.iter().any(|f| f != payload);
        if !can_send_omit && !can_receive_omit && !can_forge {
            return Routing::Deliver;
        }

        let mut options: Vec<Routing<M>> = Vec::with_capacity(4);
        options.push(Routing::Deliver);
        if can_send_omit {
            options.push(Routing::SendOmit);
        }
        if can_receive_omit {
            options.push(Routing::ReceiveOmit);
        }
        if can_forge {
            options.extend(
                self.spec
                    .forge_payloads
                    .iter()
                    .filter(|f| *f != payload)
                    .map(|f| Routing::Forge(f.clone())),
            );
        }

        // The edge's rank kind is derived from its option set so that on
        // a single-corruption omission space (where every point is
        // send-only or receive-only) ranks ascend in one fixed layout:
        // sends of a round before its receives, rounds major.
        let n = view.n as u64;
        let base = (view.round.0 - 1) * Self::per_round(view.n);
        let (s, r) = (sender.0 as u64, receiver.0 as u64);
        let rank = if can_send_omit && !can_receive_omit && !can_forge {
            base + r * n + s
        } else if can_receive_omit && !can_send_omit && !can_forge {
            base + n * n + s * n + r
        } else {
            base + 2 * n * n + s * n + r
        };
        let choice = self.next_choice(options.len() as u32, rank);
        options.swap_remove(choice as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Bit, ExecutorConfig, Round};

    fn spec(rounds: u64) -> CheckSpec<Bit> {
        CheckSpec::new(ExecutorConfig::new(4, 1), rounds)
    }

    fn view<'a>(
        round: u64,
        corrupted: &'a BTreeSet<ProcessId>,
        counters: &'a [u64; 4],
    ) -> ExecutionView<'a> {
        ExecutionView {
            round: Round(round),
            n: 4,
            t: 1,
            corrupted,
            charged: corrupted,
            sent: counters,
            delivered: counters,
        }
    }

    #[test]
    fn default_tape_delivers_everything_and_still_records_points() {
        let spec = spec(1);
        let subsets = vec![[ProcessId(3)].into_iter().collect::<BTreeSet<_>>()];
        let mut model = TapeModel::new(&spec, &subsets, &[]);
        let (c, counters) = (subsets[0].clone(), [0u64; 4]);
        let v = view(1, &c, &counters);
        // Corrupted sender: a real decision point, defaulting to Deliver.
        assert_eq!(
            model.route(v, ProcessId(3), ProcessId(0), &Bit::Zero),
            Routing::Deliver
        );
        // Correct-to-correct edge: no fault available, no point consumed.
        assert_eq!(
            model.route(v, ProcessId(0), ProcessId(1), &Bit::Zero),
            Routing::Deliver
        );
        assert_eq!(model.points().len(), 1);
        assert_eq!(model.points()[0].arity, 2);
        assert_eq!(model.points()[0].choice, 0);
    }

    #[test]
    fn tape_digits_select_omissions_in_consumption_order() {
        let spec = spec(1);
        let subsets = vec![[ProcessId(3)].into_iter().collect::<BTreeSet<_>>()];
        let mut model = TapeModel::new(&spec, &subsets, &[0, 1]);
        let (c, counters) = (subsets[0].clone(), [0u64; 4]);
        let v = view(1, &c, &counters);
        assert_eq!(
            model.route(v, ProcessId(3), ProcessId(0), &Bit::Zero),
            Routing::Deliver
        );
        assert_eq!(
            model.route(v, ProcessId(3), ProcessId(1), &Bit::Zero),
            Routing::SendOmit
        );
        // Receive side of the corrupted process ranks after every send.
        assert_eq!(
            model.route(v, ProcessId(0), ProcessId(3), &Bit::Zero),
            Routing::Deliver
        );
        let ranks: Vec<u64> = model.points().iter().map(|p| p.rank).collect();
        assert!(ranks[0] < ranks[1], "send ranks ascend by receiver");
        assert!(ranks[1] < ranks[2], "receives rank after sends");
    }

    #[test]
    fn out_of_horizon_rounds_are_fault_free() {
        let spec = spec(1);
        let subsets = vec![[ProcessId(3)].into_iter().collect::<BTreeSet<_>>()];
        let mut model = TapeModel::new(&spec, &subsets, &[1]);
        let (c, counters) = (subsets[0].clone(), [0u64; 4]);
        assert_eq!(
            model.route(
                view(2, &c, &counters),
                ProcessId(3),
                ProcessId(0),
                &Bit::Zero
            ),
            Routing::Deliver
        );
        assert!(model.points().is_empty());
    }

    #[test]
    fn corruption_point_is_consumed_first_when_the_space_branches() {
        let spec = spec(1);
        let subsets: Vec<BTreeSet<ProcessId>> = vec![
            BTreeSet::new(),
            [ProcessId(0)].into_iter().collect(),
            [ProcessId(1)].into_iter().collect(),
        ];
        let model: TapeModel<'_, Bit> = TapeModel::new(&spec, &subsets, &[2]);
        assert_eq!(model.corrupted(), &subsets[2]);
        assert_eq!(model.points().len(), 1);
        assert_eq!(model.points()[0].rank, CORRUPTION_RANK);
        // Out-of-range digits collapse to the default (empty) subset.
        let model: TapeModel<'_, Bit> = TapeModel::new(&spec, &subsets, &[9]);
        assert!(model.corrupted().is_empty());
    }

    #[test]
    fn forge_options_exclude_the_payload_itself() {
        let mut spec = spec(1);
        spec.forge_payloads = vec![Bit::Zero, Bit::One];
        let subsets = vec![[ProcessId(3)].into_iter().collect::<BTreeSet<_>>()];
        // Choice 2 on a corrupted send edge: [Deliver, SendOmit, Forge(One)]
        // when the payload is Zero (forging Zero onto Zero is not a choice).
        let mut model = TapeModel::new(&spec, &subsets, &[2]);
        let (c, counters) = (subsets[0].clone(), [0u64; 4]);
        assert_eq!(
            model.route(
                view(1, &c, &counters),
                ProcessId(3),
                ProcessId(0),
                &Bit::Zero
            ),
            Routing::Forge(Bit::One)
        );
        assert_eq!(model.points()[0].arity, 3);
    }

    #[test]
    fn lehmer_unranking_enumerates_every_permutation() {
        // Indirectly: digits of the factorial-base decomposition cover all
        // orders of a 3-element slice.
        let mut seen = BTreeSet::new();
        for choice in 0..6usize {
            let mut items = [0, 1, 2];
            let mut rest = choice;
            for i in 0..3 {
                let base = factorial(2 - i);
                let digit = rest / base;
                rest %= base;
                items[i..=i + digit].rotate_right(1);
            }
            seen.insert(items);
        }
        assert_eq!(seen.len(), 6);
    }
}
