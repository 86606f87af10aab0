//! The lock-step synchronous executor.
//!
//! All executions are driven by one engine, [`run_slots`], reached through
//! the [`Scenario`](crate::Scenario) builder: honest state machines and
//! Byzantine behaviors occupy per-process slots, and a
//! [`FaultModel`] decides — observing the unfolding execution — who is
//! corrupted and what happens to each message (deliver, omit, forge, and
//! optionally in what order the round's messages are routed). Routing runs
//! over dense, run-long mailbox slabs (no per-round map allocation), and
//! what gets *recorded* is delegated to a [`TraceSink`]: the
//! [`FullTrace`](crate::FullTrace) sink produces trace-complete
//! [`Execution`](crate::Execution) values that satisfy the model's
//! execution guarantees by construction (re-checkable via
//! [`Execution::validate`](crate::Execution::validate)), while
//! [`StatsSink`](crate::StatsSink) aggregates
//! [`ScenarioStats`](crate::ScenarioStats) without materializing a trace.
//!
use std::collections::BTreeSet;

use ba_obs::Recorder;

use crate::error::SimError;
use crate::execution::FaultMode;
use crate::fault::{Envelope, ExecutionView, FaultBudget, FaultDirective, FaultModel, Routing};
use crate::ids::{ProcessId, Round};
use crate::mailbox::{Inbox, Outbox};
use crate::protocol::{ProcessCtx, Protocol};
use crate::scenario::BoxedBehavior;
use crate::sink::{RunSummary, TraceMode, TraceSink};
use crate::telemetry::Telemetry;
use crate::value::Payload;

/// Static configuration of an execution run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecutorConfig {
    /// Number of processes `n`.
    pub n: usize,
    /// Resilience bound `t < n`.
    pub t: usize,
    /// Hard horizon: the executor runs at most this many rounds.
    ///
    /// The paper works with infinite executions; a finite prefix suffices
    /// because every quantity the proofs inspect stabilizes once all correct
    /// processes have decided and no messages are in flight. The executor
    /// detects that quiescent point and stops early (see
    /// [`ExecutorConfig::stop_when_quiescent`]); `max_rounds` bounds
    /// protocols that never quiesce.
    pub max_rounds: u64,
    /// Stop as soon as every correct process has decided and no process
    /// emitted a message for the next round. Defaults to `true`.
    pub stop_when_quiescent: bool,
    /// What stats-producing entry points record (see [`TraceMode`]).
    /// Defaults to [`TraceMode::Stats`]; entry points whose result type
    /// *is* the trace ([`Scenario::run`](crate::ProtocolScenario::run), the
    /// proof constructions) always record a full trace regardless.
    pub trace_mode: TraceMode,
}

impl ExecutorConfig {
    /// Default horizon multiplier: `max_rounds = HORIZON_FACTOR * (t + 2)`.
    /// Every protocol in this repository decides within `t + 2` rounds; the
    /// slack catches slow-downs introduced by adversaries.
    pub const HORIZON_FACTOR: u64 = 4;

    /// Creates a configuration with the default horizon, reporting an
    /// invalid resilience bound as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidResilience`] unless `t < n`.
    pub fn try_new(n: usize, t: usize) -> Result<Self, SimError> {
        if t >= n {
            return Err(SimError::InvalidResilience { n, t });
        }
        Ok(ExecutorConfig {
            n,
            t,
            max_rounds: Self::HORIZON_FACTOR * (t as u64 + 2) + 8,
            stop_when_quiescent: true,
            trace_mode: TraceMode::default(),
        })
    }

    /// Creates a configuration with the default horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `t < n`. Fallible callers (and
    /// [`Scenario::run`](crate::ProtocolScenario::run), which never panics
    /// on bad parameters) use [`ExecutorConfig::try_new`].
    pub fn new(n: usize, t: usize) -> Self {
        Self::try_new(n, t).unwrap_or_else(|_| panic!("require t < n (got t = {t}, n = {n})"))
    }

    /// Sets the hard horizon.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables or disables early stopping at quiescence.
    pub fn with_stop_when_quiescent(mut self, stop: bool) -> Self {
        self.stop_when_quiescent = stop;
        self
    }

    /// Sets the [`TraceMode`] for stats-producing entry points.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }
}

/// One process slot during a run: either an honest protocol instance or a
/// Byzantine behavior.
pub(crate) enum Slot<'a, P: Protocol> {
    Honest(P),
    Byzantine(BoxedBehavior<'a, P::Input, P::Msg>),
}

impl<P: Protocol> Slot<'_, P> {
    fn propose(&mut self, ctx: &ProcessCtx, proposal: P::Input) -> Outbox<P::Msg> {
        match self {
            Slot::Honest(p) => p.propose(ctx, proposal),
            Slot::Byzantine(b) => b.propose(ctx, proposal),
        }
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<P::Msg>) -> Outbox<P::Msg> {
        match self {
            Slot::Honest(p) => p.round(ctx, round, inbox),
            Slot::Byzantine(b) => b.round(ctx, round, inbox),
        }
    }

    fn decision(&self) -> Option<P::Output> {
        match self {
            Slot::Honest(p) => p.decision(),
            Slot::Byzantine(_) => None,
        }
    }
}

/// The execution engine: drives the slots round by round, routing every
/// message through the [`FaultModel`], enforcing the model's guarantees,
/// and emitting every routing event to `sink`. All adversary flavors —
/// none, omission, Byzantine, crash, mixed, adaptive, mobile, scheduling —
/// reduce to a slot assignment plus a fault model; what the run *produces*
/// is the sink's choice.
///
/// Routing buffers are dense and run-long: one reusable [`Inbox`] slab per
/// process (cleared by the sink each round), outboxes drained by move. A
/// delivered payload is moved — never cloned — from the sender's outbox into
/// the receiver's inbox; only a full-trace sink pays clone costs. The
/// envelope queue for delivery rescheduling is materialized **only** when
/// the model asks for it ([`FaultModel::reorders`]), so non-scheduling
/// models keep the dense per-sender fast path.
///
/// Corruption is dynamic: the model's [`FaultModel::begin_round`]
/// directives evolve the *currently corrupted* set (who may be blamed right
/// now) while the *charged* set — every process ever corrupted — is what
/// the budget bounds and what the produced execution records as its fault
/// set, so adaptive and mobile runs still satisfy `|F| ≤ t`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_slots<P, S>(
    cfg: &ExecutorConfig,
    mut slots: Vec<Slot<'_, P>>,
    proposals: &[P::Input],
    byzantine: &BTreeSet<ProcessId>,
    model: &mut dyn FaultModel<P::Msg>,
    mode: FaultMode,
    mut sink: S,
    recorder: Option<&dyn Recorder>,
) -> Result<S::Output, SimError>
where
    P: Protocol,
    S: TraceSink<P>,
{
    let n = cfg.n;
    if proposals.len() != n {
        return Err(SimError::ProposalCount {
            got: proposals.len(),
            expected: n,
        });
    }

    // Central build-time budget validation: a model whose eventual
    // corruption set can exceed `t` is rejected here, before round 1.
    // Byzantine slot processes are corrupted by construction and count
    // against the same joint budget.
    let (mut corrupted, cap) = match model.budget() {
        FaultBudget::Static(set) => {
            let mut all = set;
            all.extend(byzantine.iter().copied());
            if all.len() > cfg.t {
                return Err(SimError::TooManyFaulty {
                    got: all.len(),
                    t: cfg.t,
                });
            }
            if let Some(p) = all.iter().find(|p| p.index() >= n) {
                return Err(SimError::BehaviorMismatch { process: *p });
            }
            let cap = all.len();
            (all, cap)
        }
        FaultBudget::Adaptive(k) => {
            // A run-time budget the scenario's `t` cannot host is a
            // resilience mismatch of the configuration itself, distinct
            // from an explicit oversize fault set (`TooManyFaulty`).
            if byzantine.len() + k > cfg.t {
                return Err(SimError::InvalidResilience { n, t: cfg.t });
            }
            if let Some(p) = byzantine.iter().find(|p| p.index() >= n) {
                return Err(SimError::BehaviorMismatch { process: *p });
            }
            (byzantine.clone(), byzantine.len() + k)
        }
    };
    let mut charged = corrupted.clone();

    let ctxs: Vec<ProcessCtx> = ProcessId::all(n)
        .map(|pid| ProcessCtx::new(pid, n, cfg.t))
        .collect();

    sink.init(n, proposals);
    let mut telemetry = recorder.map(Telemetry::start);
    let mut decisions: Vec<Option<(P::Output, Round)>> = vec![None; n];

    // Round-1 outboxes come from `propose` (paper §A.1.3: first-round
    // messages depend only on the initial state).
    let mut outboxes: Vec<Outbox<P::Msg>> = Vec::with_capacity(n);
    for (i, slot) in slots.iter_mut().enumerate() {
        let out = slot.propose(&ctxs[i], proposals[i].clone());
        validate_outbox(ProcessId(i), &out, n, Round::FIRST)?;
        outboxes.push(out);
        observe_decision(&mut decisions[i], slot, ProcessId(i), Round::FIRST)?;
    }

    // Run-long dense routing buffers: one inbox slab per process, reused
    // across rounds (the sink drains or clears them via `absorb_inbox`).
    let mut inboxes: Vec<Inbox<P::Msg>> = (0..n).map(|_| Inbox::with_capacity(n)).collect();

    // Routed-traffic counters, the model's observation window.
    let mut sent_count = vec![0u64; n];
    let mut delivered_count = vec![0u64; n];
    // Every message routed, sent or send-omitted (telemetry only).
    let mut routed = 0u64;

    let reorders = model.reorders();
    let mut queue: Vec<Envelope> = Vec::new();
    // Reusable per-broadcast routing decisions (one alloc per run).
    let mut routings: Vec<Routing<P::Msg>> = Vec::new();

    let mut rounds_run = 0u64;
    let mut quiescent = false;

    // The model's per-call disclosure; rebuilt per call because the
    // corruption sets and traffic counters evolve between calls.
    macro_rules! view {
        ($round:expr) => {
            ExecutionView {
                round: $round,
                n,
                t: cfg.t,
                corrupted: &corrupted,
                charged: &charged,
                sent: &sent_count,
                delivered: &delivered_count,
            }
        };
    }

    for round in Round::up_to(cfg.max_rounds) {
        rounds_run = round.0;
        sink.begin_round(round);

        let directives = model.begin_round(view!(round));
        if !directives.is_empty() {
            apply_directives::<P, S>(
                directives,
                &mut corrupted,
                &mut charged,
                cap,
                n,
                round,
                &mut sink,
                telemetry.as_ref(),
            )?;
        }

        if !reorders {
            // Fast path: route every emitted message in deterministic
            // ascending (sender, receiver) order — the dense drain yields
            // exactly the order the old map iteration did, which keeps
            // stateful (seeded) models reproducible across engines.
            //
            // A pure-broadcast outbox (the dominant shape: every implemented
            // protocol is all-to-all) is fanned out **by reference** from its
            // single payload: the model still observes one `route` call per
            // (sender, receiver) edge in the identical order, but no clone
            // happens until final delivery into the receiver's inbox slot.
            for sender in ProcessId::all(n) {
                let mut outbox = std::mem::take(&mut outboxes[sender.index()]);
                if outbox.unicast_len() == 0 {
                    let Some((payload, mask)) = outbox.take_broadcast() else {
                        continue;
                    };
                    // One virtual call per fan-out: the model batches its
                    // per-receiver decisions (statically dispatched — and
                    // inlined — inside its own `route_broadcast` body).
                    routings.clear();
                    routed += mask.len() as u64;
                    model.route_broadcast(view!(round), sender, &mask, &payload, &mut routings);
                    debug_assert_eq!(
                        routings.len(),
                        mask.len(),
                        "route_broadcast must decide exactly one routing per mask bit"
                    );
                    for (receiver, routing) in mask.iter().zip(routings.drain(..)) {
                        route_shared::<P, S>(
                            routing,
                            round,
                            sender,
                            receiver,
                            &payload,
                            &corrupted,
                            &mut sent_count,
                            &mut delivered_count,
                            &mut inboxes,
                            &mut sink,
                        )?;
                    }
                } else {
                    // Mixed unicast + broadcast round (rare): the merged
                    // drain preserves ascending receiver order, cloning the
                    // broadcast payload per receiver like the legacy path.
                    routed += outbox.len() as u64;
                    for (receiver, payload) in outbox.drain() {
                        let routing = model.route(view!(round), sender, receiver, &payload);
                        route_one::<P, S>(
                            routing,
                            round,
                            sender,
                            receiver,
                            payload,
                            &corrupted,
                            &mut sent_count,
                            &mut delivered_count,
                            &mut inboxes,
                            &mut sink,
                        )?;
                    }
                }
            }
        } else {
            // Scheduling path: materialize the round's envelope queue, let
            // the model permute it, and route in the chosen order — later
            // decisions observe the traffic routed earlier in the round.
            queue.clear();
            for sender in ProcessId::all(n) {
                queue.extend(
                    outboxes[sender.index()]
                        .iter()
                        .map(|(receiver, _)| Envelope { sender, receiver }),
                );
            }
            model.schedule(view!(round), &mut queue);
            routed += queue.len() as u64;
            for envelope in &queue {
                let (sender, receiver) = (envelope.sender(), envelope.receiver());
                let payload = outboxes[sender.index()]
                    .take(receiver)
                    .expect("envelope queues are permutations of the round's messages");
                let routing = model.route(view!(round), sender, receiver, &payload);
                route_one::<P, S>(
                    routing,
                    round,
                    sender,
                    receiver,
                    payload,
                    &corrupted,
                    &mut sent_count,
                    &mut delivered_count,
                    &mut inboxes,
                    &mut sink,
                )?;
            }
        }

        // Deliver inboxes and compute next-round outboxes.
        let mut any_pending = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            let out = slot.round(&ctxs[i], round, &inboxes[i]);
            validate_outbox(ProcessId(i), &out, n, round.next())?;
            any_pending |= !out.is_empty();
            outboxes[i] = out;
            sink.absorb_inbox(round, ProcessId(i), &mut inboxes[i]);
            // Conforming sinks leave the inbox empty (then this is O(1));
            // clearing unconditionally keeps a non-conforming custom sink
            // from corrupting later rounds with stale redeliveries.
            inboxes[i].clear();
            observe_decision(&mut decisions[i], slot, ProcessId(i), round.next())?;
        }
        if let Some(telemetry) = telemetry.as_mut() {
            telemetry.round_done(sent_count.iter().sum());
        }

        // Quiescence: nothing in flight and every correct process decided.
        if cfg.stop_when_quiescent && !any_pending {
            let all_correct_decided = ProcessId::all(n)
                .filter(|p| !charged.contains(p))
                .all(|p| decisions[p.index()].is_some());
            if all_correct_decided {
                quiescent = true;
                break;
            }
        }
    }

    if !quiescent {
        // The horizon was reached; the prefix is still a valid execution,
        // but flag whether messages were pending beyond it.
        quiescent = outboxes.iter().all(Outbox::is_empty);
    }

    let summary = RunSummary {
        n,
        t: cfg.t,
        mode,
        faulty: charged,
        decisions,
        sent_counts: sent_count,
        rounds: rounds_run,
        quiescent,
    };
    if let Some(telemetry) = &telemetry {
        telemetry.finish(&summary, routed, delivered_count.iter().sum());
    }
    Ok(sink.finish(summary))
}

/// Applies one round's corruption directives, enforcing the joint budget:
/// `|charged|` may never exceed the model's validated cap (itself ≤ `t`).
/// The reported bound is the *violated* one — the cap the model declared —
/// not the scenario's `t`, so the diagnostic stays truthful when a model
/// overruns a budget smaller than `t`. Set changes are reported to the
/// sink's (default no-op) directive hooks and the telemetry, in directive
/// order.
#[allow(clippy::too_many_arguments)]
fn apply_directives<P, S>(
    directives: Vec<FaultDirective>,
    corrupted: &mut BTreeSet<ProcessId>,
    charged: &mut BTreeSet<ProcessId>,
    cap: usize,
    n: usize,
    round: Round,
    sink: &mut S,
    telemetry: Option<&Telemetry<'_>>,
) -> Result<(), SimError>
where
    P: Protocol,
    S: TraceSink<P>,
{
    for directive in directives {
        match directive {
            FaultDirective::Corrupt(p) => {
                if p.index() >= n {
                    return Err(SimError::BehaviorMismatch { process: p });
                }
                if charged.insert(p) && charged.len() > cap {
                    return Err(SimError::TooManyFaulty {
                        got: charged.len(),
                        t: cap,
                    });
                }
                if corrupted.insert(p) {
                    if let Some(telemetry) = telemetry {
                        telemetry.corrupted(round, p);
                    }
                    sink.corrupted(round, p);
                }
            }
            FaultDirective::Release(p) => {
                if corrupted.remove(&p) {
                    if let Some(telemetry) = telemetry {
                        telemetry.released(round, p);
                    }
                    sink.released(round, p);
                }
            }
        }
    }
    Ok(())
}

/// Executes one routing decision: enforces blame/forge validity against the
/// currently corrupted set, updates the traffic counters, and emits the
/// sink events. Inlined into both routing paths — this is the per-message
/// hot path and must not cost a call on top of the model's dyn dispatch.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn route_one<P, S>(
    routing: Routing<P::Msg>,
    round: Round,
    sender: ProcessId,
    receiver: ProcessId,
    payload: P::Msg,
    corrupted: &BTreeSet<ProcessId>,
    sent_count: &mut [u64],
    delivered_count: &mut [u64],
    inboxes: &mut [Inbox<P::Msg>],
    sink: &mut S,
) -> Result<(), SimError>
where
    P: Protocol,
    S: TraceSink<P>,
{
    if let Some(blamed) = routing.blamed(sender, receiver) {
        if !corrupted.contains(&blamed) {
            return Err(SimError::OmissionByCorrect {
                process: blamed,
                round,
            });
        }
    }
    match routing {
        Routing::Deliver => {
            sink.sent(round, sender, receiver, &payload);
            sent_count[sender.index()] += 1;
            delivered_count[receiver.index()] += 1;
            inboxes[receiver.index()].deliver(sender, payload);
        }
        Routing::SendOmit => {
            sink.send_omitted(round, sender, receiver, payload);
        }
        Routing::ReceiveOmit => {
            sink.sent(round, sender, receiver, &payload);
            sent_count[sender.index()] += 1;
            sink.receive_omitted(round, sender, receiver, payload);
        }
        Routing::Forge(forged) => {
            if !corrupted.contains(&sender) {
                return Err(SimError::ForgeByCorrect {
                    process: sender,
                    round,
                });
            }
            sink.sent(round, sender, receiver, &forged);
            sent_count[sender.index()] += 1;
            delivered_count[receiver.index()] += 1;
            inboxes[receiver.index()].deliver(sender, forged);
        }
    }
    Ok(())
}

/// [`route_one`] for a broadcast edge: the payload stays shared; a clone
/// happens only when this edge actually delivers into an inbox slot or when
/// a sink takes ownership of an omitted/forged payload. Same blame rules,
/// counters, and sink-event order as the owned path.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn route_shared<P, S>(
    routing: Routing<P::Msg>,
    round: Round,
    sender: ProcessId,
    receiver: ProcessId,
    payload: &P::Msg,
    corrupted: &BTreeSet<ProcessId>,
    sent_count: &mut [u64],
    delivered_count: &mut [u64],
    inboxes: &mut [Inbox<P::Msg>],
    sink: &mut S,
) -> Result<(), SimError>
where
    P: Protocol,
    S: TraceSink<P>,
{
    if let Some(blamed) = routing.blamed(sender, receiver) {
        if !corrupted.contains(&blamed) {
            return Err(SimError::OmissionByCorrect {
                process: blamed,
                round,
            });
        }
    }
    match routing {
        Routing::Deliver => {
            sink.sent(round, sender, receiver, payload);
            sent_count[sender.index()] += 1;
            delivered_count[receiver.index()] += 1;
            inboxes[receiver.index()].deliver(sender, payload.clone());
        }
        Routing::SendOmit => {
            sink.send_omitted(round, sender, receiver, payload.clone());
        }
        Routing::ReceiveOmit => {
            sink.sent(round, sender, receiver, payload);
            sent_count[sender.index()] += 1;
            sink.receive_omitted(round, sender, receiver, payload.clone());
        }
        Routing::Forge(forged) => {
            if !corrupted.contains(&sender) {
                return Err(SimError::ForgeByCorrect {
                    process: sender,
                    round,
                });
            }
            sink.sent(round, sender, receiver, &forged);
            sent_count[sender.index()] += 1;
            delivered_count[receiver.index()] += 1;
            inboxes[receiver.index()].deliver(sender, forged);
        }
    }
    Ok(())
}

fn validate_outbox<M: Payload>(
    sender: ProcessId,
    out: &Outbox<M>,
    n: usize,
    round: Round,
) -> Result<(), SimError> {
    // Broadcast part: O(1) bitmask checks instead of a per-receiver scan.
    let bcast_ok = match out.broadcast_part() {
        None => true,
        Some((_, mask)) => !mask.contains(sender) && mask.max_id().map_or(0, |hi| hi.index()) < n,
    };
    if bcast_ok {
        if out.unicast_len() == 0 {
            return Ok(());
        }
        let mut violation = false;
        for (receiver, _) in out.unicast_iter() {
            if receiver == sender || receiver.index() >= n {
                violation = true;
                break;
            }
        }
        if !violation {
            return Ok(());
        }
    }
    // A violation exists somewhere; rescan the merged view so the reported
    // error is the first offender in ascending receiver order, exactly as
    // the per-receiver engine reported it.
    for (receiver, _) in out.iter() {
        if receiver == sender {
            return Err(SimError::SelfSend {
                process: sender,
                round,
            });
        }
        if receiver.index() >= n {
            return Err(SimError::InvalidReceiver {
                process: sender,
                receiver,
                n,
            });
        }
    }
    Ok(())
}

fn observe_decision<P: Protocol>(
    decision: &mut Option<(P::Output, Round)>,
    slot: &Slot<'_, P>,
    pid: ProcessId,
    round: Round,
) -> Result<(), SimError> {
    match (slot.decision(), &*decision) {
        (Some(v), None) => {
            *decision = Some((v, round));
            Ok(())
        }
        (Some(v), Some((prev, _))) if &v != prev => Err(SimError::DecisionChanged {
            process: pid,
            round,
        }),
        (None, Some(_)) => Err(SimError::DecisionChanged {
            process: pid,
            round,
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{IsolationPlan, NoFaults};
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

    /// Broadcast-your-proposal-every-round protocol that decides its own
    /// proposal at the start of round `decide_at`.
    #[derive(Clone)]
    struct Chatter {
        proposal: Bit,
        decision: Option<Bit>,
        decide_at: u64,
        stop_after: u64,
    }

    impl Chatter {
        fn new(decide_at: u64, stop_after: u64) -> Self {
            Chatter {
                proposal: Bit::Zero,
                decision: None,
                decide_at,
                stop_after,
            }
        }
    }

    impl Protocol for Chatter {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.proposal = proposal;
            if self.decide_at <= 1 {
                self.decision = Some(self.proposal);
            }
            let mut out = Outbox::new();
            out.send_to_all(ctx.others(), proposal);
            out
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            if round.next().0 >= self.decide_at {
                self.decision = Some(self.proposal);
            }
            let mut out = Outbox::new();
            if round.0 < self.stop_after {
                out.send_to_all(ctx.others(), self.proposal);
            }
            out
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn chatter_scenario(
        n: usize,
        t: usize,
        decide_at: u64,
        stop_after: u64,
        bit: Bit,
    ) -> crate::ProtocolScenario<'static, Chatter, impl Fn(ProcessId) -> Chatter> {
        Scenario::new(n, t)
            .protocol(move |_| Chatter::new(decide_at, stop_after))
            .uniform_input(bit)
    }

    #[test]
    fn fault_free_run_is_valid_and_quiescent() {
        let exec = chatter_scenario(4, 1, 3, 3, Bit::One).run().unwrap();
        exec.validate().unwrap();
        assert!(exec.quiescent);
        assert!(exec.all_correct_decided(Bit::One));
        // 3 rounds of sends × 4 processes × 3 peers.
        assert_eq!(exec.message_complexity(), 36);
    }

    #[test]
    fn executions_are_deterministic() {
        let run = || {
            Scenario::new(5, 2)
                .protocol(|_| Chatter::new(2, 4))
                .inputs([Bit::Zero, Bit::One, Bit::Zero, Bit::One, Bit::Zero])
                .run()
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn isolation_produces_valid_omission_execution() {
        let exec = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::isolation([ProcessId(3)], Round(2)))
            .run()
            .unwrap();
        exec.validate().unwrap();
        // p3 received round-1 traffic but nothing from round 2 onward.
        let rec = exec.record(ProcessId(3));
        assert_eq!(rec.fragments[0].received.len(), 3);
        assert_eq!(rec.fragments[1].received.len(), 0);
        assert_eq!(rec.fragments[1].receive_omitted.len(), 3);
        // Senders recorded the receive-omitted messages as sent.
        assert_eq!(exec.record(ProcessId(0)).fragments[1].sent.len(), 3);
    }

    #[test]
    fn plan_blaming_correct_process_errors() {
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            // p2 isolated by the plan but not declared faulty.
            .adversary(Adversary::omission(
                [],
                IsolationPlan::new([ProcessId(2)], Round(1)),
            ))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::OmissionByCorrect { .. }));
    }

    #[test]
    fn too_many_faulty_is_rejected() {
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission([ProcessId(0), ProcessId(1)], NoFaults))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::TooManyFaulty { got: 2, t: 1 });
    }

    #[test]
    fn proposal_count_mismatch_is_rejected() {
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .inputs([Bit::Zero; 2])
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ProposalCount {
                got: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn self_send_is_rejected() {
        #[derive(Clone)]
        struct SelfSender;
        impl Protocol for SelfSender {
            type Input = Bit;
            type Output = Bit;
            type Msg = Bit;
            fn propose(&mut self, ctx: &ProcessCtx, _: Bit) -> Outbox<Bit> {
                let mut out = Outbox::new();
                out.send(ctx.id, Bit::Zero);
                out
            }
            fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
                Outbox::new()
            }
            fn decision(&self) -> Option<Bit> {
                Some(Bit::Zero)
            }
        }
        let err = Scenario::new(2, 1)
            .protocol(|_| SelfSender)
            .uniform_input(Bit::Zero)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::SelfSend { .. }));
    }

    #[test]
    fn decision_change_is_rejected() {
        #[derive(Clone)]
        struct FlipFlopper {
            round: u64,
        }
        impl Protocol for FlipFlopper {
            type Input = Bit;
            type Output = Bit;
            type Msg = Bit;
            fn propose(&mut self, _: &ProcessCtx, _: Bit) -> Outbox<Bit> {
                Outbox::new()
            }
            fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
                self.round += 1;
                Outbox::new()
            }
            fn decision(&self) -> Option<Bit> {
                Some(if self.round < 2 { Bit::Zero } else { Bit::One })
            }
        }
        let err = Scenario::new(2, 1)
            .protocol(|_| FlipFlopper { round: 0 })
            .uniform_input(Bit::Zero)
            .stop_when_quiescent(false)
            .max_rounds(4)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::DecisionChanged { .. }));
    }

    #[test]
    fn byzantine_silent_process_is_recorded_without_decisions() {
        use crate::byzantine::SilentByzantine;
        let exec = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(2), SilentByzantine))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.mode, FaultMode::Byzantine);
        assert!(exec.decision_of(ProcessId(2)).is_none());
        assert_eq!(exec.record(ProcessId(2)).total_sent(), 0);
        // The two honest processes still decide.
        assert_eq!(exec.decision_of(ProcessId(0)), Some(&Bit::One));
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
    }

    #[test]
    fn horizon_caps_non_quiescent_protocols() {
        // Never stops sending; never decides.
        #[derive(Clone)]
        struct Forever;
        impl Protocol for Forever {
            type Input = Bit;
            type Output = Bit;
            type Msg = Bit;
            fn propose(&mut self, ctx: &ProcessCtx, _: Bit) -> Outbox<Bit> {
                let mut out = Outbox::new();
                out.send_to_all(ctx.others(), Bit::Zero);
                out
            }
            fn round(&mut self, ctx: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
                let mut out = Outbox::new();
                out.send_to_all(ctx.others(), Bit::Zero);
                out
            }
            fn decision(&self) -> Option<Bit> {
                None
            }
        }
        let exec = Scenario::new(2, 1)
            .protocol(|_| Forever)
            .uniform_input(Bit::Zero)
            .max_rounds(5)
            .run()
            .unwrap();
        assert_eq!(exec.rounds, 5);
        assert!(!exec.quiescent);
        exec.validate().unwrap();
    }

    #[test]
    fn t_zero_systems_run_fault_free_only() {
        // t = 0: the fault set must be empty, and protocols sized for t = 0
        // decide immediately after their first exchange.
        let exec = chatter_scenario(3, 0, 2, 1, Bit::One).run().unwrap();
        exec.validate().unwrap();
        assert!(exec.all_correct_decided(Bit::One));
        // Any declared fault exceeds t = 0.
        let err = chatter_scenario(3, 0, 2, 1, Bit::One)
            .adversary(Adversary::omission([ProcessId(0)], NoFaults))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::TooManyFaulty { got: 1, t: 0 });
    }

    #[test]
    fn two_process_system_works() {
        let exec = Scenario::new(2, 1)
            .protocol(|_| Chatter::new(2, 1))
            .inputs([Bit::Zero, Bit::One])
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.record(ProcessId(0)).fragments[0].sent.len(), 1);
    }

    #[test]
    fn invalid_receiver_is_rejected() {
        #[derive(Clone)]
        struct WildSender;
        impl Protocol for WildSender {
            type Input = Bit;
            type Output = Bit;
            type Msg = Bit;
            fn propose(&mut self, _: &ProcessCtx, _: Bit) -> Outbox<Bit> {
                let mut out = Outbox::new();
                out.send(ProcessId(99), Bit::Zero);
                out
            }
            fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
                Outbox::new()
            }
            fn decision(&self) -> Option<Bit> {
                Some(Bit::Zero)
            }
        }
        let err = Scenario::new(2, 1)
            .protocol(|_| WildSender)
            .uniform_input(Bit::Zero)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidReceiver { .. }));
    }

    #[test]
    fn byzantine_behaviors_beyond_the_budget_are_rejected() {
        use crate::byzantine::SilentByzantine;
        // Two behaviors exceed t = 1.
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::byzantine([
                (ProcessId(1), Box::new(SilentByzantine) as _),
                (ProcessId(2), Box::new(SilentByzantine) as _),
            ]))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::TooManyFaulty { got: 2, t: 1 });
    }

    #[test]
    fn fixed_horizon_mode_runs_exactly_max_rounds() {
        let exec = chatter_scenario(3, 1, 2, 2, Bit::Zero)
            .stop_when_quiescent(false)
            .max_rounds(7)
            .run()
            .unwrap();
        assert_eq!(exec.rounds, 7);
        assert!(exec.quiescent, "nothing in flight at the horizon");
        assert_eq!(exec.record(ProcessId(0)).fragments.len(), 7);
    }

    #[test]
    fn quiescent_early_stop_records_round_count() {
        let exec = chatter_scenario(3, 1, 2, 2, Bit::Zero).run().unwrap();
        assert!(exec.quiescent);
        assert!(exec.rounds <= 3);
        assert_eq!(exec.all_decided_by(), Some(Round(2)));
    }

    #[test]
    fn adaptive_adversary_corrupts_top_senders_mid_run() {
        // Heterogeneous chatter: p0 stops after round 1, others keep
        // talking; the adaptive model watches round 1 (all equal) and mutes
        // the two lowest-id senders from round 2 on.
        let exec = Scenario::new(5, 2)
            .protocol(|_| Chatter::new(4, 4))
            .uniform_input(Bit::One)
            .adversary(crate::Adversary::adaptive_worst_case(2))
            .run()
            .unwrap();
        exec.validate().unwrap();
        // Ties in round-1 traffic break toward lower ids.
        assert_eq!(
            exec.faulty,
            [ProcessId(0), ProcessId(1)].into_iter().collect()
        );
        // Round 1 is untouched; from round 2 the victims send-omit.
        assert_eq!(exec.record(ProcessId(0)).fragments[0].sent.len(), 4);
        assert_eq!(exec.record(ProcessId(0)).fragments[1].sent.len(), 0);
        assert_eq!(exec.record(ProcessId(0)).fragments[1].send_omitted.len(), 4);
        // Unpicked processes flow normally and decide.
        assert_eq!(exec.record(ProcessId(2)).fragments[1].sent.len(), 4);
        assert_eq!(exec.decision_of(ProcessId(4)), Some(&Bit::One));
    }

    #[test]
    fn mobile_adversary_moves_corruption_and_charges_the_pool() {
        let pool = [ProcessId(1), ProcessId(2)];
        let exec = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(5, 5))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::mobile(pool, 1))
            .stop_when_quiescent(false)
            .max_rounds(4)
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.faulty, pool.into_iter().collect());
        // Round 1: p1 held (send-omits); p2 clean. Round 2: roles swap.
        assert_eq!(exec.record(ProcessId(1)).fragments[0].send_omitted.len(), 3);
        assert_eq!(exec.record(ProcessId(2)).fragments[0].send_omitted.len(), 0);
        assert_eq!(exec.record(ProcessId(1)).fragments[1].send_omitted.len(), 0);
        assert_eq!(exec.record(ProcessId(2)).fragments[1].send_omitted.len(), 3);
        // Released victims send successfully again.
        assert_eq!(exec.record(ProcessId(1)).fragments[1].sent.len(), 3);
    }

    #[test]
    fn scheduler_adversary_caps_the_victim_deterministically() {
        let run = |seed: u64| {
            Scenario::new(5, 1)
                .protocol(|_| Chatter::new(3, 3))
                .uniform_input(Bit::One)
                .adversary(crate::Adversary::scheduler(ProcessId(4), 2, seed))
                .run()
                .unwrap()
        };
        let exec = run(7);
        exec.validate().unwrap();
        assert_eq!(exec.faulty, [ProcessId(4)].into_iter().collect());
        for frag in &exec.record(ProcessId(4)).fragments {
            assert!(frag.received.len() <= 2, "victim capacity exceeded");
            if !frag.receive_omitted.is_empty() {
                assert_eq!(frag.received.len(), 2);
            }
        }
        assert_eq!(run(7), exec, "same seed, same execution");
        // The schedule decides WHICH senders get through: across seeds the
        // surviving sender sets differ (w.h.p. over a few seeds).
        let survivors = |e: &crate::Execution<Bit, Bit, Bit>| {
            e.record(ProcessId(4)).fragments[0]
                .received
                .keys()
                .copied()
                .collect::<Vec<_>>()
        };
        assert!(
            (0..8).any(|s| survivors(&run(s)) != survivors(&exec)),
            "reordering should be observable through the capacity cut"
        );
    }

    #[test]
    fn forging_model_replaces_corrupted_payloads_in_transit() {
        let exec = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::forge([ProcessId(2)], Bit::One))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.mode, FaultMode::Byzantine);
        // p2's state machine emitted Zero; the wire carried One.
        assert_eq!(
            exec.record(ProcessId(2)).fragments[0].sent[&ProcessId(0)],
            Bit::One
        );
        assert_eq!(
            exec.record(ProcessId(0)).fragments[0].received[&ProcessId(2)],
            Bit::One
        );
    }

    #[test]
    fn forging_by_a_correct_sender_is_rejected() {
        use crate::fault::{ExecutionView, FaultBudget, FaultModel, Routing};
        /// Forges everything but declares nobody corrupted.
        struct RogueForger;
        impl FaultModel<Bit> for RogueForger {
            fn budget(&self) -> FaultBudget {
                FaultBudget::Static(BTreeSet::new())
            }
            fn route(
                &mut self,
                _: ExecutionView<'_>,
                _: ProcessId,
                _: ProcessId,
                _: &Bit,
            ) -> Routing<Bit> {
                Routing::Forge(Bit::One)
            }
        }
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::model(RogueForger))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::ForgeByCorrect { .. }));
    }

    #[test]
    fn adaptive_budgets_exceeding_t_are_invalid_resilience_at_build_time() {
        // Satellite regression: a fault model whose eventual corruption set
        // can exceed `t` surfaces `InvalidResilience` before round 1 — it
        // never panics mid-run.
        let err = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::adaptive_worst_case(2))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::InvalidResilience { n: 4, t: 1 });

        // The mobile pool is the eventual corruption set.
        let err = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::mobile([ProcessId(1), ProcessId(2)], 1))
            .run_stats()
            .unwrap_err();
        assert_eq!(err, SimError::InvalidResilience { n: 4, t: 1 });

        // Joint accounting: an in-budget adaptive model plus a Byzantine
        // slot behavior still must fit inside t together.
        use crate::byzantine::SilentByzantine;
        let err = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::model_with_behaviors(
                [(ProcessId(3), Box::new(SilentByzantine) as _)],
                crate::fault::AdaptiveWorstCase::new(1),
            ))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::InvalidResilience { n: 4, t: 1 });
    }

    #[test]
    fn directives_beyond_the_declared_budget_are_rejected_mid_run() {
        use crate::fault::{ExecutionView, FaultBudget, FaultDirective, FaultModel, Routing};
        /// Declares a budget of 1 but tries to corrupt two processes.
        struct Glutton;
        impl FaultModel<Bit> for Glutton {
            fn budget(&self) -> FaultBudget {
                FaultBudget::Adaptive(1)
            }
            fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
                if view.round == Round(1) {
                    vec![
                        FaultDirective::Corrupt(ProcessId(0)),
                        FaultDirective::Corrupt(ProcessId(1)),
                    ]
                } else {
                    Vec::new()
                }
            }
            fn route(
                &mut self,
                _: ExecutionView<'_>,
                _: ProcessId,
                _: ProcessId,
                _: &Bit,
            ) -> Routing<Bit> {
                Routing::Deliver
            }
        }
        let err = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::model(Glutton))
            .run()
            .unwrap_err();
        // The reported bound is the declared cap (1), not the scenario's
        // t (2) — the cap is what the second directive actually violated.
        assert_eq!(err, SimError::TooManyFaulty { got: 2, t: 1 });
    }

    #[test]
    fn released_processes_stay_in_the_fault_set_but_cannot_be_blamed() {
        use crate::fault::{ExecutionView, FaultBudget, FaultDirective, FaultModel, Routing};
        /// Corrupts p0 in round 1, releases it in round 2, then still
        /// blames it in round 2 — an adversary bug the engine must catch.
        struct Amnesiac;
        impl FaultModel<Bit> for Amnesiac {
            fn budget(&self) -> FaultBudget {
                FaultBudget::Adaptive(1)
            }
            fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
                match view.round {
                    Round(1) => vec![FaultDirective::Corrupt(ProcessId(0))],
                    Round(2) => vec![FaultDirective::Release(ProcessId(0))],
                    _ => Vec::new(),
                }
            }
            fn route(
                &mut self,
                view: ExecutionView<'_>,
                sender: ProcessId,
                _: ProcessId,
                _: &Bit,
            ) -> Routing<Bit> {
                if sender == ProcessId(0) && view.round >= Round(2) {
                    Routing::SendOmit
                } else {
                    Routing::Deliver
                }
            }
        }
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(crate::Adversary::model(Amnesiac))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::OmissionByCorrect {
                process: ProcessId(0),
                round: Round(2)
            }
        );
    }

    #[test]
    fn try_new_reports_invalid_resilience() {
        assert_eq!(
            ExecutorConfig::try_new(3, 3).unwrap_err(),
            SimError::InvalidResilience { n: 3, t: 3 }
        );
        assert!(ExecutorConfig::try_new(3, 2).is_ok());
    }
}
