//! The [`Scenario`] builder — the single entry point for constructing
//! executions.
//!
//! The paper's model (§2, §A.1) is *one* execution model with
//! interchangeable adversaries. `Scenario` exposes it that way: pick the
//! system size, the protocol, the inputs, and an [`Adversary`], then `run()`.
//! See the crate-level documentation for a complete runnable example.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use ba_obs::Recorder;

use crate::byzantine::ByzantineBehavior;
use crate::campaign::ScenarioStats;
use crate::error::SimError;
use crate::execution::{Execution, FaultMode};
use crate::executor::{run_slots, ExecutorConfig, Slot};
use crate::fault::{
    AdaptiveWorstCase, FaultBudget, FaultModel, ForgingFaults, MobileOmission, PlannedFaults,
    SchedulerOmission,
};
use crate::ids::{ProcessId, Round};
use crate::plan::{CrashPlan, IsolationPlan, NoFaults};
use crate::protocol::Protocol;
use crate::sink::{FullTrace, StatsSink, TraceMode, TraceSink};
use crate::value::{Payload, Value};

/// A boxed fault model, as stored in an [`Adversary`].
pub type BoxedFaultModel<'a, M> = Box<dyn FaultModel<M> + 'a>;

/// The result of running a scenario of protocol `P`: the trace-complete
/// execution, or the first model violation.
pub type ScenarioResult<P> = Result<
    Execution<<P as Protocol>::Input, <P as Protocol>::Output, <P as Protocol>::Msg>,
    SimError,
>;

/// A boxed Byzantine behavior, as stored in an [`Adversary`].
pub type BoxedBehavior<'a, I, M> = Box<dyn ByzantineBehavior<I, M> + 'a>;

/// The unified adversary of a [`Scenario`]: Byzantine behaviors occupying
/// process slots, plus an execution-observing [`FaultModel`] deciding
/// corruption and routing.
///
/// Every constructor wraps one [`FaultModel`]. The static flavors — the
/// paper's omission adversary (§3) with the isolation plan of Definition 1,
/// the crash adversary, the Byzantine adversary (§2) and **mixed**
/// per-process assignments — pass a plan ([`IsolationPlan`], [`CrashPlan`],
/// …) to [`Adversary::model`], or declare a fault set around it with
/// [`PlannedFaults`]; the adaptive regime ([`Adversary::adaptive_worst_case`],
/// [`Adversary::mobile`], [`Adversary::scheduler`], [`Adversary::forge`],
/// and arbitrary [`Adversary::model`]s) plugs into the same execution
/// engine. [`ByzantineBehavior`]s stay a separate input: they replace a
/// process's state machine, so they can send where the honest machine is
/// silent, which per-message routing cannot express.
pub struct Adversary<'a, I, M> {
    behaviors: BTreeMap<ProcessId, BoxedBehavior<'a, I, M>>,
    model: BoxedFaultModel<'a, M>,
    mode: FaultMode,
    /// A constructor-detected inconsistency, surfaced as a typed error at
    /// run time (constructors are infallible by signature).
    conflict: Option<ProcessId>,
}

impl<'a, I: Value, M: Payload> Adversary<'a, I, M> {
    /// The fault-free adversary.
    pub fn none() -> Self {
        Adversary::model(NoFaults)
    }

    /// An omission adversary corrupting `faulty`, driven by `plan` (which
    /// may blame only members of `faulty`).
    pub fn omission(
        faulty: impl IntoIterator<Item = ProcessId>,
        plan: impl FaultModel<M> + 'a,
    ) -> Self {
        Adversary::model(PlannedFaults::new(faulty, plan))
    }

    /// Group isolation (paper Definition 1): `group` is faulty and
    /// receive-omits all outside traffic from round `from` on.
    pub fn isolation(group: impl IntoIterator<Item = ProcessId>, from: Round) -> Self {
        Adversary::model(IsolationPlan::new(group, from))
    }

    /// The crash adversary: each listed process crash-stops at its round.
    pub fn crash(crashes: impl IntoIterator<Item = (ProcessId, Round)>) -> Self {
        Adversary::model(CrashPlan::new(crashes))
    }

    /// A Byzantine adversary with the given per-process behaviors.
    pub fn byzantine(
        behaviors: impl IntoIterator<Item = (ProcessId, BoxedBehavior<'a, I, M>)>,
    ) -> Self {
        let behaviors: BTreeMap<ProcessId, BoxedBehavior<'a, I, M>> =
            behaviors.into_iter().collect();
        let keys: Vec<ProcessId> = behaviors.keys().copied().collect();
        Adversary {
            behaviors,
            model: Box::new(PlannedFaults::new(keys, NoFaults)),
            mode: FaultMode::Byzantine,
            conflict: None,
        }
    }

    /// A Byzantine adversary corrupting a single process.
    pub fn one_byzantine(pid: ProcessId, behavior: impl ByzantineBehavior<I, M> + 'a) -> Self {
        Adversary::byzantine([(pid, Box::new(behavior) as _)])
    }

    /// A mixed adversary: `behaviors` are Byzantine while `omission_faulty`
    /// follow the protocol under `plan` (which may also blame the Byzantine
    /// processes). The two sets must be disjoint and jointly at most `t`.
    pub fn mixed(
        behaviors: impl IntoIterator<Item = (ProcessId, BoxedBehavior<'a, I, M>)>,
        omission_faulty: impl IntoIterator<Item = ProcessId>,
        plan: impl FaultModel<M> + 'a,
    ) -> Self {
        let behaviors: BTreeMap<ProcessId, BoxedBehavior<'a, I, M>> =
            behaviors.into_iter().collect();
        let omission_faulty: BTreeSet<ProcessId> = omission_faulty.into_iter().collect();
        let conflict = behaviors
            .keys()
            .find(|p| omission_faulty.contains(p))
            .copied();
        let joint: Vec<ProcessId> = behaviors
            .keys()
            .copied()
            .chain(omission_faulty.iter().copied())
            .collect();
        Adversary {
            behaviors,
            model: Box::new(PlannedFaults::new(joint, plan)),
            mode: FaultMode::Mixed,
            conflict,
        }
    }

    /// The adaptive worst-case adversary ([`AdaptiveWorstCase`]): observes
    /// round 1, then corrupts and mutes the `budget` chattiest processes.
    /// Requires `budget ≤ t` (validated at build time).
    pub fn adaptive_worst_case(budget: usize) -> Self {
        Adversary::model(AdaptiveWorstCase::new(budget))
    }

    /// The mobile adversary ([`MobileOmission`]): corruption moves through
    /// `pool` (one victim at a time, `dwell` rounds each) under a budget of
    /// `|pool| ≤ t` (validated at build time).
    pub fn mobile(pool: impl IntoIterator<Item = ProcessId>, dwell: u64) -> Self {
        Adversary::model(MobileOmission::new(pool, dwell))
    }

    /// The message-scheduling adversary ([`SchedulerOmission`]): seeded
    /// delivery reordering against a capacity-`cap` victim.
    pub fn scheduler(victim: ProcessId, cap: usize, seed: u64) -> Self {
        Adversary::model(SchedulerOmission::new(victim, cap, seed))
    }

    /// The routing-level forging adversary ([`ForgingFaults`]): every
    /// message from a member of `faulty` is replaced with `forged`.
    pub fn forge(faulty: impl IntoIterator<Item = ProcessId>, forged: M) -> Self {
        Adversary::model(ForgingFaults::new(faulty, forged))
    }

    /// An adversary driven by an arbitrary [`FaultModel`] — the extension
    /// point. The execution is stamped with the model's
    /// [`mode`](FaultModel::mode).
    pub fn model(model: impl FaultModel<M> + 'a) -> Self {
        let mode = model.mode();
        Adversary {
            behaviors: BTreeMap::new(),
            model: Box::new(model),
            mode,
            conflict: None,
        }
    }

    /// An arbitrary [`FaultModel`] combined with Byzantine slot behaviors
    /// (stamped [`FaultMode::Mixed`] when both are present). The behaviors'
    /// processes are corrupted by construction and count against the joint
    /// budget; they may legitimately also appear in the model's
    /// [`FaultBudget::Static`] set — that is exactly how
    /// [`Adversary::byzantine`] and [`Adversary::mixed`] are represented
    /// internally, and how a plan is allowed to blame Byzantine processes.
    /// Consequently no behavior/fault-set overlap guard applies here: the
    /// [`Adversary::mixed`] rejection of a process listed both as a
    /// behavior and as *omission*-faulty is a constructor-level check on
    /// that constructor's two input lists, which this lower-level entry
    /// point cannot distinguish.
    pub fn model_with_behaviors(
        behaviors: impl IntoIterator<Item = (ProcessId, BoxedBehavior<'a, I, M>)>,
        model: impl FaultModel<M> + 'a,
    ) -> Self {
        let behaviors: BTreeMap<ProcessId, BoxedBehavior<'a, I, M>> =
            behaviors.into_iter().collect();
        let mode = if behaviors.is_empty() {
            model.mode()
        } else {
            FaultMode::Mixed
        };
        Adversary {
            behaviors,
            model: Box::new(model),
            mode,
            conflict: None,
        }
    }

    /// Overrides the [`FaultMode`] stamped on produced executions — for
    /// custom models reproducing a legacy flavor exactly.
    pub fn with_fault_mode(mut self, mode: FaultMode) -> Self {
        self.mode = mode;
        self
    }

    /// The statically known corruption set: the model's
    /// [`FaultBudget::Static`] set joined with the Byzantine behaviors.
    /// Adaptive models choose their victims at run time and contribute
    /// nothing here.
    pub fn faulty_set(&self) -> BTreeSet<ProcessId> {
        let mut set: BTreeSet<ProcessId> = self.behaviors.keys().copied().collect();
        if let FaultBudget::Static(s) = self.model.budget() {
            set.extend(s);
        }
        set
    }

    /// The [`FaultMode`] stamped on produced executions.
    pub fn fault_mode(&self) -> FaultMode {
        self.mode
    }

    /// Decomposes the adversary for the executor.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> Result<
        (
            BTreeMap<ProcessId, BoxedBehavior<'a, I, M>>,
            BoxedFaultModel<'a, M>,
            FaultMode,
        ),
        SimError,
    > {
        if let Some(process) = self.conflict {
            return Err(SimError::BehaviorMismatch { process });
        }
        Ok((self.behaviors, self.model, self.mode))
    }
}

impl<I, M> fmt::Debug for Adversary<'_, I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Adversary {{ mode: {:?}, byzantine: {:?}, budget: {:?} }}",
            self.mode,
            self.behaviors.keys(),
            self.model.budget(),
        )
    }
}

/// The first stage of the builder: system size and executor knobs, before a
/// protocol type is bound.
///
/// Validation is deferred to [`ProtocolScenario::run`], which reports
/// problems as typed [`SimError`]s instead of panicking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scenario {
    n: usize,
    t: usize,
    max_rounds: Option<u64>,
    stop_when_quiescent: Option<bool>,
    trace_mode: Option<TraceMode>,
}

impl Scenario {
    /// Starts a scenario over `n` processes with resilience bound `t`.
    pub fn new(n: usize, t: usize) -> Self {
        Scenario {
            n,
            t,
            max_rounds: None,
            stop_when_quiescent: None,
            trace_mode: None,
        }
    }

    /// Starts a scenario adopting every knob of an existing
    /// [`ExecutorConfig`].
    pub fn config(cfg: &ExecutorConfig) -> Self {
        Scenario {
            n: cfg.n,
            t: cfg.t,
            max_rounds: Some(cfg.max_rounds),
            stop_when_quiescent: Some(cfg.stop_when_quiescent),
            trace_mode: Some(cfg.trace_mode),
        }
    }

    /// Sets the hard horizon (default: `ExecutorConfig`'s derived horizon).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Enables or disables early stopping at quiescence (default: enabled).
    pub fn stop_when_quiescent(mut self, stop: bool) -> Self {
        self.stop_when_quiescent = Some(stop);
        self
    }

    /// Sets the [`TraceMode`] consumed by stats-producing entry points
    /// ([`ProtocolScenario::run_report`] and [`Campaign`](crate::Campaign)
    /// sweeps). Default: [`TraceMode::Stats`].
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = Some(mode);
        self
    }

    /// Binds the protocol under test, by factory.
    pub fn protocol<'a, P, F>(self, factory: F) -> ProtocolScenario<'a, P, F>
    where
        P: Protocol,
        F: Fn(ProcessId) -> P,
    {
        ProtocolScenario {
            base: self,
            factory,
            inputs: None,
            adversary: Adversary::none(),
            recorder: None,
        }
    }

    /// Resolves the executor configuration, reporting invalid `(n, t)` as a
    /// typed error.
    fn resolve_config(self) -> Result<ExecutorConfig, SimError> {
        let mut cfg = ExecutorConfig::try_new(self.n, self.t)?;
        if let Some(r) = self.max_rounds {
            cfg.max_rounds = r;
        }
        if let Some(s) = self.stop_when_quiescent {
            cfg.stop_when_quiescent = s;
        }
        if let Some(m) = self.trace_mode {
            cfg.trace_mode = m;
        }
        Ok(cfg)
    }
}

/// The protocol-bound stage of the builder; see [`Scenario`].
pub struct ProtocolScenario<'a, P: Protocol, F> {
    base: Scenario,
    factory: F,
    inputs: Option<Vec<P::Input>>,
    adversary: Adversary<'a, P::Input, P::Msg>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl<'a, P, F> ProtocolScenario<'a, P, F>
where
    P: Protocol,
    F: Fn(ProcessId) -> P,
{
    /// Sets the proposal of each process, in process-id order. Must have
    /// exactly `n` entries by `run()` time.
    pub fn inputs(mut self, inputs: impl IntoIterator<Item = P::Input>) -> Self {
        self.inputs = Some(inputs.into_iter().collect());
        self
    }

    /// Every process proposes the same value.
    pub fn uniform_input(mut self, value: P::Input) -> Self {
        self.inputs = Some(vec![value; self.base.n]);
        self
    }

    /// Installs the adversary (default: [`Adversary::none`]).
    pub fn adversary(mut self, adversary: Adversary<'a, P::Input, P::Msg>) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the hard horizon.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.base = self.base.max_rounds(max_rounds);
        self
    }

    /// Enables or disables early stopping at quiescence.
    pub fn stop_when_quiescent(mut self, stop: bool) -> Self {
        self.base = self.base.stop_when_quiescent(stop);
        self
    }

    /// Sets the [`TraceMode`] consumed by [`ProtocolScenario::run_report`]
    /// and [`Campaign`](crate::Campaign) sweeps.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.base = self.base.trace_mode(mode);
        self
    }

    /// Installs a telemetry [`Recorder`]: the executor mirrors per-round
    /// traffic, run totals and fault-directive events into it, whatever the
    /// sink. Recording is **observation-only** — every entry point produces
    /// bit-identical results with or without it.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Drives the execution to quiescence or the horizon, materializing the
    /// trace-complete [`Execution`] (always full trace: the result type *is*
    /// the trace).
    ///
    /// # Errors
    ///
    /// All validation is routed through [`SimError`]: invalid `(n, t)`,
    /// wrong input count, out-of-range or overlapping fault assignments,
    /// oversize fault sets, and every model violation the executor detects.
    pub fn run(self) -> ScenarioResult<P> {
        self.run_with_sink(FullTrace::new())
    }

    /// Drives the execution and returns its [`ScenarioStats`] without
    /// materializing a trace: zero payload clones, no fragment allocation.
    ///
    /// The result is value-identical to
    /// [`ScenarioStats::from_execution`] over [`ProtocolScenario::run`]'s
    /// execution (engine-produced executions are valid by construction).
    ///
    /// # Errors
    ///
    /// As [`ProtocolScenario::run`].
    pub fn run_stats(self) -> Result<ScenarioStats<P::Output>, SimError> {
        self.run_with_sink(StatsSink::new())
    }

    /// Produces the [`ScenarioStats`] report honoring the configured
    /// [`TraceMode`]: [`TraceMode::Stats`] (the default) takes the
    /// allocation-free fast path, [`TraceMode::Full`] materializes and
    /// validates the execution first. [`Campaign`](crate::Campaign) sweeps
    /// run every grid point through this method.
    ///
    /// # Errors
    ///
    /// As [`ProtocolScenario::run`].
    pub fn run_report(self) -> Result<ScenarioStats<P::Output>, SimError> {
        match self.base.resolve_config()?.trace_mode {
            TraceMode::Stats => self.run_stats(),
            TraceMode::Full => self.run().map(|exec| ScenarioStats::from_execution(&exec)),
        }
    }

    /// Drives the execution with a caller-provided [`TraceSink`] — the
    /// extension point behind [`ProtocolScenario::run`] ([`FullTrace`]) and
    /// [`ProtocolScenario::run_stats`] ([`StatsSink`]). A configured
    /// [`recorder`](ProtocolScenario::recorder) observes the run.
    ///
    /// # Errors
    ///
    /// As [`ProtocolScenario::run`].
    pub fn run_with_sink<S: TraceSink<P>>(self, sink: S) -> Result<S::Output, SimError> {
        let cfg = self.base.resolve_config()?;
        let inputs = self.inputs.ok_or(SimError::ProposalCount {
            got: 0,
            expected: cfg.n,
        })?;

        let (mut behaviors, mut model, mode) = self.adversary.into_parts()?;
        let byzantine: BTreeSet<ProcessId> = behaviors.keys().copied().collect();

        let slots: Vec<Slot<'a, P>> = ProcessId::all(cfg.n)
            .map(|pid| match behaviors.remove(&pid) {
                Some(b) => Slot::Byzantine(b),
                None => Slot::Honest((self.factory)(pid)),
            })
            .collect();
        if let Some((stray, _)) = behaviors.into_iter().next() {
            // A behavior was assigned to a process outside 0..n.
            return Err(SimError::BehaviorMismatch { process: stray });
        }
        run_slots(
            &cfg,
            slots,
            &inputs,
            &byzantine,
            model.as_mut(),
            mode,
            sink,
            self.recorder.as_deref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::SilentByzantine;
    use crate::fault::Routing;
    use crate::ids::Round;
    use crate::mailbox::{Inbox, Outbox};
    use crate::plan::TableOmissionPlan;
    use crate::protocol::ProcessCtx;
    use crate::value::Bit;

    /// Broadcast-own-proposal-every-round; decides own proposal at
    /// `decide_at`; stops sending after `stop_after`.
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
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            if round.next().0 >= self.decide_at {
                self.decision = Some(self.proposal);
            }
            let mut out = Outbox::new();
            if round.0 < self.stop_after {
                out.broadcast_to_others(ctx, self.proposal);
            }
            out
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    #[test]
    fn fault_free_scenario_matches_legacy_omission_run() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert!(exec.quiescent);
        assert!(exec.all_correct_decided(Bit::One));
        assert_eq!(exec.message_complexity(), 36);
        assert_eq!(exec.mode, FaultMode::Omission);
    }

    #[test]
    fn invalid_resilience_is_a_typed_error_not_a_panic() {
        let err = Scenario::new(3, 3)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::InvalidResilience { n: 3, t: 3 });
    }

    #[test]
    fn missing_inputs_is_a_typed_error() {
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ProposalCount {
                got: 0,
                expected: 3
            }
        );
    }

    #[test]
    fn isolation_sugar_matches_explicit_plan() {
        let group = [ProcessId(3)];
        let explicit = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission(
                group,
                IsolationPlan::new(group, Round(2)),
            ))
            .run()
            .unwrap();
        let sugar = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::isolation(group, Round(2)))
            .run()
            .unwrap();
        assert_eq!(explicit, sugar);
    }

    #[test]
    fn byzantine_adversary_is_stamped_byzantine() {
        let exec = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(2), SilentByzantine))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.mode, FaultMode::Byzantine);
        assert!(exec.decision_of(ProcessId(2)).is_none());
        assert_eq!(exec.decision_of(ProcessId(0)), Some(&Bit::One));
    }

    #[test]
    fn mixed_adversary_combines_byzantine_and_omission_faults() {
        // p3 is Byzantine-silent, p2 is omission-faulty (send-omits its
        // round-1 messages) — one execution, two fault flavors. The legacy
        // API could not express this.
        let mut plan = TableOmissionPlan::new();
        for receiver in [ProcessId(0), ProcessId(1), ProcessId(3)] {
            plan.set(Round(1), ProcessId(2), receiver, Routing::SendOmit);
        }
        let exec = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::One)
            .adversary(Adversary::mixed(
                [(ProcessId(3), Box::new(SilentByzantine) as _)],
                [ProcessId(2)],
                plan,
            ))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.mode, FaultMode::Mixed);
        assert_eq!(
            exec.faulty,
            [ProcessId(2), ProcessId(3)].into_iter().collect()
        );
        // p3 sent nothing (Byzantine-silent), p2 send-omitted in round 1.
        assert_eq!(exec.record(ProcessId(3)).total_sent(), 0);
        assert_eq!(exec.record(ProcessId(2)).fragments[0].send_omitted.len(), 3);
        // Correct processes still decide.
        assert_eq!(exec.decision_of(ProcessId(0)), Some(&Bit::One));
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
    }

    #[test]
    fn mixed_adversary_rejects_overlapping_assignments() {
        let err = Scenario::new(4, 2)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::mixed(
                [(ProcessId(1), Box::new(SilentByzantine) as _)],
                [ProcessId(1)],
                NoFaults,
            ))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::BehaviorMismatch {
                process: ProcessId(1)
            }
        );
    }

    #[test]
    fn mixed_adversary_respects_the_joint_fault_budget() {
        let err = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::mixed(
                [(ProcessId(3), Box::new(SilentByzantine) as _)],
                [ProcessId(2)],
                NoFaults,
            ))
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::TooManyFaulty { got: 2, t: 1 });
    }

    #[test]
    fn out_of_range_behavior_is_rejected() {
        let err = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::one_byzantine(ProcessId(9), SilentByzantine))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::BehaviorMismatch {
                process: ProcessId(9)
            }
        );
    }

    #[test]
    fn crash_sugar_crashes_at_the_given_round() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::crash([(ProcessId(1), Round(2))]))
            .run()
            .unwrap();
        exec.validate().unwrap();
        let rec = exec.record(ProcessId(1));
        assert_eq!(rec.fragments[0].send_omitted.len(), 0);
        assert_eq!(rec.fragments[1].send_omitted.len(), 3);
    }

    #[test]
    fn config_adoption_preserves_all_knobs() {
        let cfg = ExecutorConfig::new(3, 1)
            .with_stop_when_quiescent(false)
            .with_max_rounds(7);
        let exec = Scenario::config(&cfg)
            .protocol(|_| Chatter::new(2, 2))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        assert_eq!(exec.rounds, 7);
        assert_eq!(exec.record(ProcessId(0)).fragments.len(), 7);
    }

    #[test]
    fn plans_can_be_passed_by_mutable_reference() {
        // `&mut P` implements `FaultModel`, so a caller can keep the plan
        // and inspect it after the run.
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(1), ProcessId(2), ProcessId(0), Routing::SendOmit);
        let exec = Scenario::new(3, 1)
            .protocol(|_| Chatter::new(3, 3))
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission([ProcessId(2)], &mut plan))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(exec.record(ProcessId(2)).fragments[0].send_omitted.len(), 1);
    }
}
