//! Execution-observing fault models: the executor's one adversary
//! interface.
//!
//! The paper's lower bound is driven by adversaries that *react* to the
//! unfolding execution. A [`FaultModel`] is the executor's single adversary
//! interface: every round it receives an [`ExecutionView`] (round number,
//! routed traffic so far, current corruption set, fault budget `t`) and
//! answers with
//!
//! * **corruption directives** ([`FaultModel::begin_round`]): corrupt a
//!   process now (adaptive corruption, chosen mid-run from the trace) or
//!   release it again (mobile corruption — released processes stay
//!   *charged* against the budget, so `|ever-corrupted| ≤ t` and every
//!   produced [`Execution`](crate::Execution) still validates);
//! * **routing decisions** ([`FaultModel::route`]): deliver, send-omit,
//!   receive-omit (the omission model's three fates, paper §3) or
//!   **forge** — replace a corrupted sender's payload in transit (the
//!   routing-level Byzantine capability);
//! * optionally a **delivery schedule** ([`FaultModel::schedule`]): a
//!   permutation of the round's routing queue, which is what makes
//!   message-scheduling adversaries (rushing, bounded-capacity links)
//!   expressible — later routing decisions observe the traffic routed
//!   earlier in the same round.
//!
//! The static adversaries are models too: the plans of the `plan` module
//! ([`NoFaults`](crate::NoFaults), [`IsolationPlan`](crate::IsolationPlan),
//! [`CrashPlan`](crate::CrashPlan), …) route from the round alone and
//! declare the fixed set they blame, and [`PlannedFaults`] declares a
//! different fixed set around any model. The adaptive regime studied in
//! "Breaking the O(n²) Bit Barrier" and "Make Every Word Count" is covered
//! by [`AdaptiveWorstCase`] (corrupt the chattiest processes after
//! observing round 1), [`MobileOmission`] (corruption that moves between
//! processes under a budget), and [`SchedulerOmission`] (seeded delivery
//! reordering against a capacity-limited victim).
//!
//! Budgets are validated **centrally at build time**: a model whose
//! eventual corruption set can exceed `t` is rejected with a typed
//! [`SimError`](crate::SimError) before round 1, never a mid-run panic.

use std::collections::BTreeSet;

use crate::execution::FaultMode;
use crate::ids::{ProcessId, Round};
use crate::mailbox::ReceiverMask;
use crate::plan::NoFaults;
use crate::rng::SimRng;
use crate::value::Payload;

/// What one routing decision does to a message in transit.
///
/// The first three variants are the omission model's fates (paper §3);
/// [`Routing::Forge`] is the routing-level Byzantine capability: the
/// (corrupted) sender's payload is replaced in transit and the receiver
/// observes the forged message as a regular delivery.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Routing<M> {
    /// Deliver the message unchanged.
    Deliver,
    /// The (corrupted) sender omits sending.
    SendOmit,
    /// The message is sent, but the (corrupted) receiver omits receiving it.
    ReceiveOmit,
    /// Replace the (corrupted) sender's payload with a forged one; the
    /// receiver sees the forged payload as a normal delivery.
    Forge(M),
}

impl<M> Routing<M> {
    /// Which process an omission decision blames, if any. Forging blames the
    /// sender but is checked separately (it is not an omission).
    pub fn blamed(&self, sender: ProcessId, receiver: ProcessId) -> Option<ProcessId> {
        match self {
            Routing::Deliver | Routing::Forge(_) => None,
            Routing::SendOmit => Some(sender),
            Routing::ReceiveOmit => Some(receiver),
        }
    }
}

/// The ceiling on the processes a [`FaultModel`] may ever corrupt,
/// validated against `t` before round 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultBudget {
    /// The model corrupts exactly this set, from round 1 on (the legacy
    /// static regime). An oversize set is rejected with
    /// [`SimError::TooManyFaulty`](crate::SimError::TooManyFaulty), exactly
    /// as the pre-trait executor did.
    Static(BTreeSet<ProcessId>),
    /// The model picks up to this many victims at run time (adaptive /
    /// mobile regimes). A budget above `t` is a configuration-level
    /// resilience mismatch and is rejected with
    /// [`SimError::InvalidResilience`](crate::SimError::InvalidResilience)
    /// at build time.
    Adaptive(usize),
}

/// A corruption-set update emitted by [`FaultModel::begin_round`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDirective {
    /// Corrupt the process from this round on. Charges the budget unless
    /// the process was corrupted before (re-corruption is free).
    Corrupt(ProcessId),
    /// Release the process: it is no longer *currently* corrupted (the
    /// model must stop blaming it) but stays charged against the budget —
    /// it remains in the execution's fault set, which is what keeps mobile
    /// corruption inside the model's `|F| ≤ t` guarantee.
    Release(ProcessId),
}

/// One emitted message awaiting routing, as shown to
/// [`FaultModel::schedule`].
///
/// Deliberately neither `Clone` nor constructible outside the crate: a
/// scheduler can only *permute* the queue (`swap`, `sort`, `rotate`,
/// `reverse`), never inject, duplicate, or drop envelopes — dropping and
/// forging go through [`FaultModel::route`] where they are budget-checked.
#[derive(PartialEq, Eq, Debug)]
pub struct Envelope {
    pub(crate) sender: ProcessId,
    pub(crate) receiver: ProcessId,
}

impl Envelope {
    /// The message's sender.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The message's receiver.
    pub fn receiver(&self) -> ProcessId {
        self.receiver
    }
}

/// The executor's per-round disclosure to the fault model: everything a
/// full-information adaptive adversary is entitled to observe.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionView<'a> {
    /// The round being routed.
    pub round: Round,
    /// Number of processes `n`.
    pub n: usize,
    /// The fault budget `t`.
    pub t: usize,
    /// Processes currently corrupted (blamable right now).
    pub corrupted: &'a BTreeSet<ProcessId>,
    /// Processes ever corrupted — the budget accounting set and the
    /// execution's eventual fault set.
    pub charged: &'a BTreeSet<ProcessId>,
    /// Routed traffic so far: per-sender count of successfully sent
    /// messages (delivered or receive-omitted), including the already
    /// routed prefix of the current round.
    pub sent: &'a [u64],
    /// Routed traffic so far: per-receiver count of delivered messages,
    /// including the already routed prefix of the current round.
    pub delivered: &'a [u64],
}

/// An execution-observing adversary strategy.
///
/// The executor consults the model in a fixed deterministic order:
/// [`budget`](FaultModel::budget) once before round 1, then per round
/// [`begin_round`](FaultModel::begin_round) (before any routing),
/// [`schedule`](FaultModel::schedule) (only if
/// [`reorders`](FaultModel::reorders) is `true`), and
/// [`route`](FaultModel::route) once per emitted message in routing order —
/// ascending `(sender, receiver)` unless rescheduled. Stateful (seeded)
/// models are therefore reproducible.
pub trait FaultModel<M> {
    /// The ceiling on the processes this model may ever corrupt; validated
    /// against `t` before round 1.
    fn budget(&self) -> FaultBudget;

    /// The [`FaultMode`] stamped on produced executions. Defaults to
    /// [`FaultMode::Omission`]; forging models report
    /// [`FaultMode::Byzantine`].
    fn mode(&self) -> FaultMode {
        FaultMode::Omission
    }

    /// Called at the start of every round, before any routing. Directives
    /// are applied in order and budget-checked by the executor.
    fn begin_round(&mut self, _view: ExecutionView<'_>) -> Vec<FaultDirective> {
        Vec::new()
    }

    /// `true` iff this model may reorder routing within a round. The
    /// executor materializes an envelope queue (and calls
    /// [`schedule`](FaultModel::schedule)) only when set, so non-scheduling
    /// models keep the dense per-sender fast path.
    fn reorders(&self) -> bool {
        false
    }

    /// Permutes the round's routing queue. Only consulted when
    /// [`reorders`](FaultModel::reorders) is `true`.
    fn schedule(&mut self, _view: ExecutionView<'_>, _queue: &mut [Envelope]) {}

    /// Decides the routing of one message, consulted once per emitted
    /// message. Omissions may only blame *currently* corrupted processes;
    /// forging requires a currently corrupted sender.
    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M>;

    /// Decides the routing of one broadcast fan-out: pushes exactly one
    /// [`Routing`] per mask bit into `out`, in ascending receiver order.
    /// The executor rejects any other count as
    /// [`SimError::RoutingCount`](crate::SimError::RoutingCount).
    ///
    /// The executor calls this **once per broadcasting sender** instead of
    /// [`route`](FaultModel::route) per edge, so the default body's `route`
    /// calls dispatch statically (and inline) inside each concrete model —
    /// the per-edge virtual call disappears from the all-to-all hot path.
    /// `view` is the disclosure as of the start of the fan-out; the traffic
    /// counters exclude the fan-out's own edges (they are applied after the
    /// decisions come back), which is observationally identical for every
    /// model that does not read the counters between two edges of a single
    /// sender's emission — no shipped model does.
    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        out.extend(
            mask.iter()
                .map(|receiver| self.route(view, sender, receiver, payload)),
        );
    }
}

impl<M, T: FaultModel<M> + ?Sized> FaultModel<M> for &mut T {
    fn budget(&self) -> FaultBudget {
        (**self).budget()
    }
    fn mode(&self) -> FaultMode {
        (**self).mode()
    }
    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        (**self).begin_round(view)
    }
    fn reorders(&self) -> bool {
        (**self).reorders()
    }
    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        (**self).schedule(view, queue)
    }
    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        (**self).route(view, sender, receiver, payload)
    }
    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        (**self).route_broadcast(view, sender, mask, payload, out)
    }
}

impl<M, T: FaultModel<M> + ?Sized> FaultModel<M> for Box<T> {
    fn budget(&self) -> FaultBudget {
        (**self).budget()
    }
    fn mode(&self) -> FaultMode {
        (**self).mode()
    }
    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        (**self).begin_round(view)
    }
    fn reorders(&self) -> bool {
        (**self).reorders()
    }
    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        (**self).schedule(view, queue)
    }
    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        (**self).route(view, sender, receiver, payload)
    }
    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        (**self).route_broadcast(view, sender, mask, payload, out)
    }
}

/// A fixed fault set declared around any fault model: corrupts `faulty`
/// from round 1 on and leaves every decision to the wrapped model.
///
/// This is how a plan blames a set other than its own
/// [`budget`](FaultModel::budget), and how an [`FnPlan`](crate::FnPlan),
/// which declares no faulty processes, names the ones it blames.
/// [`Adversary::omission`](crate::Adversary::omission),
/// [`Adversary::byzantine`](crate::Adversary::byzantine) and
/// [`Adversary::mixed`](crate::Adversary::mixed) build it. Only
/// [`budget`](FaultModel::budget) is overridden; every other method
/// forwards, so routing is decision-for-decision that of the wrapped model.
#[derive(Clone, Debug)]
pub struct PlannedFaults<F> {
    faulty: BTreeSet<ProcessId>,
    model: F,
}

impl<F> PlannedFaults<F> {
    /// A model corrupting `faulty` (from round 1), deciding via `model`.
    pub fn new(faulty: impl IntoIterator<Item = ProcessId>, model: F) -> Self {
        PlannedFaults {
            faulty: faulty.into_iter().collect(),
            model,
        }
    }
}

impl PlannedFaults<NoFaults> {
    /// The fault-free model: nobody is corrupted, everything is delivered.
    pub fn none() -> Self {
        PlannedFaults::new([], NoFaults)
    }
}

impl<M, F: FaultModel<M>> FaultModel<M> for PlannedFaults<F> {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.faulty.clone())
    }
    fn mode(&self) -> FaultMode {
        self.model.mode()
    }
    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        self.model.begin_round(view)
    }
    fn reorders(&self) -> bool {
        self.model.reorders()
    }
    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        self.model.schedule(view, queue)
    }
    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        self.model.route(view, sender, receiver, payload)
    }
    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        self.model.route_broadcast(view, sender, mask, payload, out)
    }
}

/// The adaptive worst-case adversary: it watches round 1 fault-free,
/// then corrupts the `budget` processes that sent the most observed
/// traffic (ties broken toward lower ids) and mutes them — every message
/// they emit from the strike round on is send-omitted.
///
/// This is the "corrupt the chattiest" strategy adaptive-adversary papers
/// build on: against protocols whose progress is carried by a few loud
/// processes (leaders, kings, designated senders) it is maximally
/// disruptive, while static adversaries must guess the hot set in advance.
#[derive(Clone, Debug)]
pub struct AdaptiveWorstCase {
    budget: usize,
    strike: Round,
    victims: BTreeSet<ProcessId>,
}

impl AdaptiveWorstCase {
    /// Corrupts the `budget` top senders at the start of round 2.
    pub fn new(budget: usize) -> Self {
        Self::striking_at(budget, Round(2))
    }

    /// Corrupts the `budget` top senders (of all traffic observed so far)
    /// at the start of `strike`.
    pub fn striking_at(budget: usize, strike: Round) -> Self {
        AdaptiveWorstCase {
            budget,
            strike,
            victims: BTreeSet::new(),
        }
    }

    /// The victims picked at strike time (empty before the strike round).
    pub fn victims(&self) -> &BTreeSet<ProcessId> {
        &self.victims
    }
}

impl<M> FaultModel<M> for AdaptiveWorstCase {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Adaptive(self.budget)
    }

    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        if view.round != self.strike || self.budget == 0 {
            return Vec::new();
        }
        // Rank senders by observed traffic, descending; ties toward lower
        // ids (sort is stable and ids ascend).
        let mut ranked: Vec<ProcessId> = ProcessId::all(view.n).collect();
        ranked.sort_by_key(|p| std::cmp::Reverse(view.sent[p.index()]));
        self.victims = ranked.into_iter().take(self.budget).collect();
        self.victims
            .iter()
            .map(|p| FaultDirective::Corrupt(*p))
            .collect()
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        _receiver: ProcessId,
        _payload: &M,
    ) -> Routing<M> {
        if view.round >= self.strike && self.victims.contains(&sender) {
            Routing::SendOmit
        } else {
            Routing::Deliver
        }
    }
}

/// The mobile adversary: corruption moves through a pool of victims, one at
/// a time, dwelling `dwell` rounds on each before releasing it and
/// corrupting the next.
///
/// Budget accounting: the pool is the eventual charged set, so the model
/// declares an adaptive budget of `|pool|` — a pool larger than `t` is
/// rejected at build time. The *currently* corrupted set has size ≤ 1;
/// released victims behave correctly again but stay in the execution's
/// fault set (they omitted messages while held).
#[derive(Clone, Debug)]
pub struct MobileOmission {
    pool: Vec<ProcessId>,
    dwell: u64,
    active: Option<ProcessId>,
}

impl MobileOmission {
    /// Visits `pool` in order, `dwell` rounds per victim (cycling). The
    /// held victim send-omits everything. Duplicate pool entries are
    /// dropped (first occurrence wins); `dwell` is clamped to ≥ 1.
    pub fn new(pool: impl IntoIterator<Item = ProcessId>, dwell: u64) -> Self {
        let mut seen = BTreeSet::new();
        let pool: Vec<ProcessId> = pool.into_iter().filter(|p| seen.insert(*p)).collect();
        MobileOmission {
            pool,
            dwell: dwell.max(1),
            active: None,
        }
    }

    /// The victim pool, in visiting order.
    pub fn pool(&self) -> &[ProcessId] {
        &self.pool
    }

    /// The currently held victim.
    pub fn active(&self) -> Option<ProcessId> {
        self.active
    }
}

impl<M> FaultModel<M> for MobileOmission {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Adaptive(self.pool.len())
    }

    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        if self.pool.is_empty() {
            return Vec::new();
        }
        let slot = ((view.round.0 - 1) / self.dwell) as usize;
        let next = self.pool[slot % self.pool.len()];
        if self.active == Some(next) {
            return Vec::new();
        }
        let mut directives = Vec::with_capacity(2);
        if let Some(prev) = self.active {
            directives.push(FaultDirective::Release(prev));
        }
        directives.push(FaultDirective::Corrupt(next));
        self.active = Some(next);
        directives
    }

    fn route(
        &mut self,
        _view: ExecutionView<'_>,
        sender: ProcessId,
        _receiver: ProcessId,
        _payload: &M,
    ) -> Routing<M> {
        if self.active == Some(sender) {
            Routing::SendOmit
        } else {
            Routing::Deliver
        }
    }
}

/// The message-scheduling adversary: a seeded permutation of every round's
/// delivery order, against a capacity-limited victim that receive-omits all
/// but the first `cap` messages addressed to it *in scheduled order*.
///
/// Which senders get through to the victim therefore depends on the
/// schedule — the observable essence of adversarial message scheduling
/// (bounded-capacity links, rushing delivery) — while every other process
/// sees a full round. Deterministic for a fixed seed.
#[derive(Clone, Debug)]
pub struct SchedulerOmission {
    victim: ProcessId,
    cap: usize,
    rng: SimRng,
    victim_deliveries: usize,
}

impl SchedulerOmission {
    /// Shuffles each round's routing queue with a generator seeded by
    /// `seed`; `victim` receives at most `cap` messages per round.
    pub fn new(victim: ProcessId, cap: usize, seed: u64) -> Self {
        SchedulerOmission {
            victim,
            cap,
            rng: SimRng::seed_from_u64(seed),
            victim_deliveries: 0,
        }
    }

    /// The capacity-limited victim.
    pub fn victim(&self) -> ProcessId {
        self.victim
    }
}

impl<M> FaultModel<M> for SchedulerOmission {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static([self.victim].into_iter().collect())
    }

    fn begin_round(&mut self, _view: ExecutionView<'_>) -> Vec<FaultDirective> {
        self.victim_deliveries = 0;
        Vec::new()
    }

    fn reorders(&self) -> bool {
        true
    }

    fn schedule(&mut self, _view: ExecutionView<'_>, queue: &mut [Envelope]) {
        // Fisher-Yates on the envelope queue: a uniform seeded permutation.
        for i in (1..queue.len()).rev() {
            let j = self.rng.gen_index(0, i + 1);
            queue.swap(i, j);
        }
    }

    fn route(
        &mut self,
        _view: ExecutionView<'_>,
        _sender: ProcessId,
        receiver: ProcessId,
        _payload: &M,
    ) -> Routing<M> {
        if receiver == self.victim {
            if self.victim_deliveries < self.cap {
                self.victim_deliveries += 1;
                Routing::Deliver
            } else {
                Routing::ReceiveOmit
            }
        } else {
            Routing::Deliver
        }
    }
}

/// The routing-level forging adversary: every message emitted by a
/// corrupted sender is replaced in transit with a fixed forged payload.
///
/// This is Byzantine power expressed at the fault layer rather than the
/// slot layer — the corrupted processes still run the honest state machine,
/// but the network lies on their behalf. Unforgeable signature objects
/// inside `M` still cannot be fabricated: the forged payload is a value the
/// adversary constructed up front from capabilities it legitimately has.
#[derive(Clone, Debug)]
pub struct ForgingFaults<M> {
    faulty: BTreeSet<ProcessId>,
    forged: M,
}

impl<M: Payload> ForgingFaults<M> {
    /// Replaces every message sent by a member of `faulty` with `forged`.
    pub fn new(faulty: impl IntoIterator<Item = ProcessId>, forged: M) -> Self {
        ForgingFaults {
            faulty: faulty.into_iter().collect(),
            forged,
        }
    }
}

impl<M: Payload> FaultModel<M> for ForgingFaults<M> {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.faulty.clone())
    }

    fn mode(&self) -> FaultMode {
        FaultMode::Byzantine
    }

    fn route(
        &mut self,
        _view: ExecutionView<'_>,
        sender: ProcessId,
        _receiver: ProcessId,
        _payload: &M,
    ) -> Routing<M> {
        if self.faulty.contains(&sender) {
            Routing::Forge(self.forged.clone())
        } else {
            Routing::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IsolationPlan;

    fn view<'a>(
        round: Round,
        n: usize,
        corrupted: &'a BTreeSet<ProcessId>,
        charged: &'a BTreeSet<ProcessId>,
        sent: &'a [u64],
        delivered: &'a [u64],
    ) -> ExecutionView<'a> {
        ExecutionView {
            round,
            n,
            t: n / 3,
            corrupted,
            charged,
            sent,
            delivered,
        }
    }

    #[test]
    fn planned_faults_mirror_the_wrapped_plan() {
        let group = [ProcessId(2)];
        let mut model = PlannedFaults::new(group, IsolationPlan::new(group, Round(2)));
        assert_eq!(
            FaultModel::<u8>::budget(&model),
            FaultBudget::Static(group.into_iter().collect())
        );
        let (c, g, s, d) = (BTreeSet::new(), BTreeSet::new(), [0u64; 3], [0u64; 3]);
        let v1 = view(Round(1), 3, &c, &g, &s, &d);
        let v2 = view(Round(2), 3, &c, &g, &s, &d);
        assert_eq!(
            model.route(v1, ProcessId(0), ProcessId(2), &9u8),
            Routing::Deliver
        );
        assert_eq!(
            model.route(v2, ProcessId(0), ProcessId(2), &9u8),
            Routing::ReceiveOmit
        );
    }

    #[test]
    fn adaptive_worst_case_picks_top_senders_with_ties_toward_low_ids() {
        let mut model = AdaptiveWorstCase::new(2);
        let (c, g) = (BTreeSet::new(), BTreeSet::new());
        let sent = [3u64, 7, 3, 1];
        let delivered = [0u64; 4];
        // Round 1: silent observation.
        let directives =
            FaultModel::<u8>::begin_round(&mut model, view(Round(1), 4, &c, &g, &sent, &delivered));
        assert!(directives.is_empty());
        // Round 2: corrupt p1 (7 sends) and p0 (3 sends, ties beat p2 by id).
        let directives =
            FaultModel::<u8>::begin_round(&mut model, view(Round(2), 4, &c, &g, &sent, &delivered));
        assert_eq!(
            directives,
            vec![
                FaultDirective::Corrupt(ProcessId(0)),
                FaultDirective::Corrupt(ProcessId(1)),
            ]
        );
        // Victims are muted from the strike round on; others flow.
        let v2 = view(Round(2), 4, &c, &g, &sent, &delivered);
        assert_eq!(
            model.route(v2, ProcessId(1), ProcessId(3), &0u8),
            Routing::SendOmit
        );
        assert_eq!(
            model.route(v2, ProcessId(2), ProcessId(3), &0u8),
            Routing::Deliver
        );
    }

    #[test]
    fn mobile_omission_moves_and_releases() {
        let mut model = MobileOmission::new([ProcessId(0), ProcessId(2)], 2);
        assert_eq!(FaultModel::<u8>::budget(&model), FaultBudget::Adaptive(2));
        let (c, g, s, d) = (BTreeSet::new(), BTreeSet::new(), [0u64; 3], [0u64; 3]);
        let d1 = FaultModel::<u8>::begin_round(&mut model, view(Round(1), 3, &c, &g, &s, &d));
        assert_eq!(d1, vec![FaultDirective::Corrupt(ProcessId(0))]);
        // Dwell 2: round 2 keeps the same victim.
        let d2 = FaultModel::<u8>::begin_round(&mut model, view(Round(2), 3, &c, &g, &s, &d));
        assert!(d2.is_empty());
        assert_eq!(
            model.route(
                view(Round(2), 3, &c, &g, &s, &d),
                ProcessId(0),
                ProcessId(1),
                &0u8
            ),
            Routing::SendOmit
        );
        // Round 3: release p0, corrupt p2.
        let d3 = FaultModel::<u8>::begin_round(&mut model, view(Round(3), 3, &c, &g, &s, &d));
        assert_eq!(
            d3,
            vec![
                FaultDirective::Release(ProcessId(0)),
                FaultDirective::Corrupt(ProcessId(2)),
            ]
        );
        assert_eq!(
            model.route(
                view(Round(3), 3, &c, &g, &s, &d),
                ProcessId(0),
                ProcessId(1),
                &0u8
            ),
            Routing::Deliver,
            "released victims behave correctly again"
        );
    }

    #[test]
    fn scheduler_caps_the_victim_and_shuffles_deterministically() {
        let run = |seed: u64| {
            let mut model = SchedulerOmission::new(ProcessId(0), 1, seed);
            let (c, g, s, d) = (BTreeSet::new(), BTreeSet::new(), [0u64; 4], [0u64; 4]);
            let _ = FaultModel::<u8>::begin_round(&mut model, view(Round(1), 4, &c, &g, &s, &d));
            let mut queue: Vec<Envelope> = (1..4)
                .map(|i| Envelope {
                    sender: ProcessId(i),
                    receiver: ProcessId(0),
                })
                .collect();
            FaultModel::<u8>::schedule(&mut model, view(Round(1), 4, &c, &g, &s, &d), &mut queue);
            let order: Vec<ProcessId> = queue.iter().map(Envelope::sender).collect();
            let fates: Vec<Routing<u8>> = queue
                .iter()
                .map(|e| {
                    model.route(
                        view(Round(1), 4, &c, &g, &s, &d),
                        e.sender(),
                        e.receiver(),
                        &0u8,
                    )
                })
                .collect();
            (order, fates)
        };
        let (order_a, fates_a) = run(9);
        let (order_b, fates_b) = run(9);
        assert_eq!(order_a, order_b, "same seed, same schedule");
        assert_eq!(fates_a, fates_b);
        // Exactly one message reaches the victim; the rest are omitted.
        assert_eq!(
            fates_a.iter().filter(|r| **r == Routing::Deliver).count(),
            1
        );
        assert_eq!(
            fates_a
                .iter()
                .filter(|r| **r == Routing::ReceiveOmit)
                .count(),
            2
        );
    }

    #[test]
    fn forging_replaces_only_corrupted_senders() {
        let mut model = ForgingFaults::new([ProcessId(1)], 99u8);
        assert_eq!(FaultModel::<u8>::mode(&model), FaultMode::Byzantine);
        let (c, g, s, d) = (BTreeSet::new(), BTreeSet::new(), [0u64; 3], [0u64; 3]);
        let v = view(Round(1), 3, &c, &g, &s, &d);
        assert_eq!(
            model.route(v, ProcessId(1), ProcessId(0), &7u8),
            Routing::Forge(99)
        );
        assert_eq!(
            model.route(v, ProcessId(0), ProcessId(1), &7u8),
            Routing::Deliver
        );
    }

    #[test]
    fn mobile_pool_deduplicates_preserving_order() {
        let model = MobileOmission::new([ProcessId(2), ProcessId(0), ProcessId(2)], 0);
        assert_eq!(model.pool(), &[ProcessId(2), ProcessId(0)]);
        assert_eq!(FaultModel::<u8>::budget(&model), FaultBudget::Adaptive(2));
    }
}
