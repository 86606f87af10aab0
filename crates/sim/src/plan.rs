//! Static adversaries: fault models that route each message from its round
//! and endpoints alone.
//!
//! The omission failure model (paper §3) lets the static adversary corrupt up
//! to `t` processes that may *send-omit* or *receive-omit* messages while
//! otherwise following their state machine. Every plan here is a
//! [`FaultModel`] that corrupts a fixed set from round 1 on: it reads
//! [`ExecutionView::round`] and returns a [`Routing`], and its
//! [`budget`](FaultModel::budget) is the [`FaultBudget::Static`] set of
//! processes it can blame. The executor enforces *omission-validity*: a
//! routing other than [`Routing::Deliver`] is only legal if the blamed
//! process is corrupted. [`PlannedFaults`](crate::PlannedFaults) declares a
//! different fault set around any plan.

use std::collections::{BTreeMap, BTreeSet};

use crate::execution::FaultMode;
use crate::fault::{ExecutionView, FaultBudget, FaultModel, Routing};
use crate::ids::{ProcessId, Round};
use crate::mailbox::ReceiverMask;
use crate::rng::SimRng;
use crate::value::Payload;

/// The fault-free plan: every message is delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoFaults;

impl<M> FaultModel<M> for NoFaults {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(BTreeSet::new())
    }

    fn route(&mut self, _: ExecutionView<'_>, _: ProcessId, _: ProcessId, _: &M) -> Routing<M> {
        Routing::Deliver
    }

    fn route_broadcast(
        &mut self,
        _: ExecutionView<'_>,
        _: ProcessId,
        mask: &ReceiverMask,
        _: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        out.resize_with(out.len() + mask.len(), || Routing::Deliver);
    }
}

/// Group isolation, Definition 1 of the paper.
///
/// A group `G ⊊ Π` is *isolated from round k* iff every `p ∈ G` is faulty,
/// never send-omits, and receive-omits exactly the messages sent to it by
/// processes outside `G` in rounds `≥ k`.
///
/// ```
/// use std::collections::BTreeSet;
/// use ba_sim::{ExecutionView, FaultModel, IsolationPlan, ProcessId, Round, Routing};
/// let none = BTreeSet::new();
/// let at = |round| ExecutionView {
///     round: Round(round), n: 4, t: 2, corrupted: &none, charged: &none,
///     sent: &[0; 4], delivered: &[0; 4],
/// };
/// let mut plan = IsolationPlan::new([ProcessId(2), ProcessId(3)], Round(2));
/// // Round 1: everything delivered.
/// assert_eq!(plan.route(at(1), ProcessId(0), ProcessId(2), &()), Routing::Deliver);
/// // Round 2 onward: messages from outside the group are receive-omitted…
/// assert_eq!(plan.route(at(2), ProcessId(0), ProcessId(2), &()), Routing::ReceiveOmit);
/// // …but intra-group traffic and traffic to the outside still flow.
/// assert_eq!(plan.route(at(5), ProcessId(3), ProcessId(2), &()), Routing::Deliver);
/// assert_eq!(plan.route(at(5), ProcessId(2), ProcessId(0), &()), Routing::Deliver);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IsolationPlan {
    group: BTreeSet<ProcessId>,
    from: Round,
}

impl IsolationPlan {
    /// Isolates `group` from round `from` (inclusive).
    pub fn new<I: IntoIterator<Item = ProcessId>>(group: I, from: Round) -> Self {
        IsolationPlan {
            group: group.into_iter().collect(),
            from,
        }
    }
}

impl<M> FaultModel<M> for IsolationPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.group.clone())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        if view.round >= self.from
            && self.group.contains(&receiver)
            && !self.group.contains(&sender)
        {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }

    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        _: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        // Pre-fill Deliver, then patch the (few) isolated receivers by rank:
        // O(fan-out + |group|) instead of a set lookup per receiver.
        let base = out.len();
        out.resize_with(base + mask.len(), || Routing::Deliver);
        if view.round < self.from || self.group.contains(&sender) {
            return;
        }
        for &p in &self.group {
            if let Some(rank) = mask.rank(p) {
                out[base + rank] = Routing::ReceiveOmit;
            }
        }
    }
}

/// An explicit table of exceptions over a default of [`Routing::Deliver`].
///
/// Useful for hand-crafted counterexample executions in tests. It can blame
/// the processes its omissions name, and charges the sender of each
/// [`Routing::Forge`] entry (a table with one is stamped
/// [`FaultMode::Byzantine`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableOmissionPlan<M> {
    entries: BTreeMap<(Round, ProcessId, ProcessId), Routing<M>>,
}

impl<M> Default for TableOmissionPlan<M> {
    fn default() -> Self {
        TableOmissionPlan {
            entries: BTreeMap::new(),
        }
    }
}

impl<M> TableOmissionPlan<M> {
    /// Creates an empty table (all messages delivered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the routing of the message from `sender` to `receiver` in
    /// `round`.
    pub fn set(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        routing: Routing<M>,
    ) -> &mut Self {
        self.entries.insert((round, sender, receiver), routing);
        self
    }

    /// The number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the table has no exceptions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<M: Payload> FaultModel<M> for TableOmissionPlan<M> {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(
            self.entries
                .iter()
                .filter_map(|(&(_, sender, receiver), routing)| match routing {
                    Routing::Forge(_) => Some(sender),
                    omission => omission.blamed(sender, receiver),
                })
                .collect(),
        )
    }

    fn mode(&self) -> FaultMode {
        if self
            .entries
            .values()
            .any(|r| matches!(r, Routing::Forge(_)))
        {
            FaultMode::Byzantine
        } else {
            FaultMode::Omission
        }
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        self.entries
            .get(&(view.round, sender, receiver))
            .cloned()
            .unwrap_or(Routing::Deliver)
    }
}

/// A seeded random omission adversary: every message touching a faulty
/// process is dropped with the configured probabilities.
///
/// Deterministic for a fixed seed because the executor routes messages in a
/// deterministic order. Used for failure-injection testing.
#[derive(Clone, Debug)]
pub struct RandomOmissionPlan {
    faulty: BTreeSet<ProcessId>,
    p_send_omit: f64,
    p_receive_omit: f64,
    rng: SimRng,
}

impl RandomOmissionPlan {
    /// Creates a plan in which each message from a faulty sender is
    /// send-omitted with probability `p_send_omit`, and (otherwise) each
    /// message to a faulty receiver is receive-omitted with probability
    /// `p_receive_omit`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new<I: IntoIterator<Item = ProcessId>>(
        faulty: I,
        p_send_omit: f64,
        p_receive_omit: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_send_omit),
            "p_send_omit out of range"
        );
        assert!(
            (0.0..=1.0).contains(&p_receive_omit),
            "p_receive_omit out of range"
        );
        RandomOmissionPlan {
            faulty: faulty.into_iter().collect(),
            p_send_omit,
            p_receive_omit,
            rng: SimRng::seed_from_u64(seed),
        }
    }
}

impl<M> FaultModel<M> for RandomOmissionPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.faulty.clone())
    }

    fn route(
        &mut self,
        _: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        if self.faulty.contains(&sender) && self.rng.gen_bool(self.p_send_omit) {
            Routing::SendOmit
        } else if self.faulty.contains(&receiver) && self.rng.gen_bool(self.p_receive_omit) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }
}

/// The crash adversary, expressed in the omission model: each listed
/// process send-omits (and receive-omits) everything from its crash round
/// onward — the classic crash-stop failure, strictly weaker than general
/// omission.
///
/// Useful for protocols like FloodSet that tolerate crashes but *not*
/// general omission: the distinction is exactly the adversarial power the
/// paper's lower-bound proof draws on.
///
/// ```
/// use std::collections::BTreeSet;
/// use ba_sim::{CrashPlan, ExecutionView, FaultModel, ProcessId, Round, Routing};
/// let none = BTreeSet::new();
/// let at = |round| ExecutionView {
///     round: Round(round), n: 3, t: 1, corrupted: &none, charged: &none,
///     sent: &[0; 3], delivered: &[0; 3],
/// };
/// let mut plan = CrashPlan::new([(ProcessId(1), Round(2))]);
/// assert_eq!(plan.route(at(1), ProcessId(1), ProcessId(0), &()), Routing::Deliver);
/// assert_eq!(plan.route(at(2), ProcessId(1), ProcessId(0), &()), Routing::SendOmit);
/// assert_eq!(plan.route(at(3), ProcessId(0), ProcessId(1), &()), Routing::ReceiveOmit);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CrashPlan {
    crashes: BTreeMap<ProcessId, Round>,
}

impl CrashPlan {
    /// Creates a plan crashing each listed process at the start of its
    /// round (inclusive).
    pub fn new<I: IntoIterator<Item = (ProcessId, Round)>>(crashes: I) -> Self {
        CrashPlan {
            crashes: crashes.into_iter().collect(),
        }
    }
}

impl<M> FaultModel<M> for CrashPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.crashes.keys().copied().collect())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        let crashed = |p: ProcessId| self.crashes.get(&p).is_some_and(|r| view.round >= *r);
        if crashed(sender) {
            Routing::SendOmit
        } else if crashed(receiver) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }
}

/// Adapts a closure `(round, sender, receiver, payload) → Routing` into a
/// [`FaultModel`].
///
/// It declares no faulty processes, so wrap it in
/// [`Adversary::omission`](crate::Adversary::omission) (or
/// [`PlannedFaults`](crate::PlannedFaults)) with the processes it blames.
///
/// ```
/// use ba_sim::{Adversary, Bit, FnPlan, ProcessId, Routing};
/// let drop_all_to_p0 = FnPlan(|_round, _s, r: ProcessId, _m: &u8| {
///     if r == ProcessId(0) { Routing::ReceiveOmit } else { Routing::Deliver }
/// });
/// let adversary: Adversary<'_, Bit, u8> = Adversary::omission([ProcessId(0)], drop_all_to_p0);
/// assert_eq!(adversary.faulty_set(), [ProcessId(0)].into_iter().collect());
/// ```
#[derive(Clone, Debug)]
pub struct FnPlan<F>(pub F);

impl<M, F> FaultModel<M> for FnPlan<F>
where
    F: FnMut(Round, ProcessId, ProcessId, &M) -> Routing<M>,
{
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(BTreeSet::new())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        (self.0)(view.round, sender, receiver, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes one `u8` message in `round` of a 3-process system.
    fn route<P: FaultModel<u8>>(
        plan: &mut P,
        round: u64,
        sender: usize,
        receiver: usize,
    ) -> Routing<u8> {
        let none = BTreeSet::new();
        let view = ExecutionView {
            round: Round(round),
            n: 3,
            t: 1,
            corrupted: &none,
            charged: &none,
            sent: &[0; 3],
            delivered: &[0; 3],
        };
        plan.route(view, ProcessId(sender), ProcessId(receiver), &0)
    }

    #[test]
    fn isolation_blocks_only_inbound_cross_group_after_start() {
        let mut plan = IsolationPlan::new([ProcessId(1)], Round(3));
        assert_eq!(
            FaultModel::<u8>::budget(&plan),
            FaultBudget::Static([ProcessId(1)].into_iter().collect())
        );
        // Before the start round everything is delivered.
        assert_eq!(route(&mut plan, 2, 0, 1), Routing::Deliver);
        // From the start round, inbound cross-group messages are dropped.
        assert_eq!(route(&mut plan, 3, 0, 1), Routing::ReceiveOmit);
        assert_eq!(route(&mut plan, 9, 2, 1), Routing::ReceiveOmit);
        // The isolated group never send-omits.
        assert_eq!(route(&mut plan, 9, 1, 0), Routing::Deliver);
    }

    #[test]
    fn table_plan_defaults_to_deliver() {
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(1), ProcessId(0), ProcessId(1), Routing::SendOmit);
        assert_eq!(route(&mut plan, 1, 0, 1), Routing::SendOmit);
        assert_eq!(route(&mut plan, 2, 0, 1), Routing::Deliver);
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan.budget(),
            FaultBudget::Static([ProcessId(0)].into_iter().collect())
        );
        assert_eq!(plan.mode(), FaultMode::Omission);
        plan.set(Round(1), ProcessId(2), ProcessId(1), Routing::Forge(7));
        assert_eq!(
            plan.budget(),
            FaultBudget::Static([ProcessId(0), ProcessId(2)].into_iter().collect())
        );
        assert_eq!(plan.mode(), FaultMode::Byzantine);
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let observe = |seed: u64| -> Vec<Routing<u8>> {
            let mut plan = RandomOmissionPlan::new([ProcessId(0)], 0.5, 0.5, seed);
            (0..32)
                .map(|i| route(&mut plan, 1, i % 3, (i + 1) % 3))
                .collect()
        };
        assert_eq!(observe(7), observe(7));
        assert_ne!(
            observe(7),
            observe(8),
            "different seeds should differ (w.h.p.)"
        );
    }

    #[test]
    fn random_plan_never_blames_correct_processes() {
        let mut plan = RandomOmissionPlan::new([ProcessId(2)], 1.0, 1.0, 3);
        // Message between two correct processes is always delivered.
        assert_eq!(route(&mut plan, 1, 0, 1), Routing::Deliver);
        // Faulty sender always send-omits at p = 1.
        assert_eq!(route(&mut plan, 1, 2, 1), Routing::SendOmit);
    }
}
