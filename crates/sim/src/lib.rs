//! # ba-sim — the synchronous execution model, as a simulator
//!
//! This crate implements, executably, the computational model of
//! *All Byzantine Agreement Problems are Expensive* (Civit, Gilbert,
//! Guerraoui, Komatovic, Paramonov, Vidigueira; PODC 2024), §2 and
//! Appendix A.1:
//!
//! * a static system `Π = {p_0, …, p_{n-1}}` of deterministic state machines
//!   ([`Protocol`]) advancing in lock-step synchronous rounds;
//! * per-round **fragments** recording, for every process, the messages it
//!   (successfully) sent, send-omitted, received, and receive-omitted
//!   ([`RoundFragment`], paper §A.1.4);
//! * **behaviors** — the per-process timeline of fragments
//!   ([`ProcessRecord`], paper §A.1.5);
//! * **executions** — a fault set plus one behavior per process, subject to
//!   the five execution guarantees (*faulty processes*, *composition*,
//!   *send-validity*, *receive-validity*, *omission-validity*;
//!   [`Execution::validate`], paper §A.1.6);
//! * a trait-based, execution-observing adversary layer: a [`FaultModel`]
//!   receives a per-round [`ExecutionView`] (routed traffic, corruption
//!   set, fault budget) and decides corruption (**adaptive** and **mobile**,
//!   with `|ever-corrupted| ≤ t` accounting), per-message routing
//!   (deliver / omit / **forge**), and optionally the within-round delivery
//!   order (**message scheduling**). The unified [`Adversary`] builds on
//!   it: the **omission** adversary of paper §3 (driven by an
//!   [`OmissionPlan`], including the *isolation* plan of Definition 1), the
//!   **Byzantine** adversary of §2 ([`ByzantineBehavior`]), the crash
//!   adversary, **mixed** per-process assignments, and the adaptive family
//!   ([`AdaptiveWorstCase`], [`MobileOmission`], [`SchedulerOmission`],
//!   [`ForgingFaults`]).
//!
//! Executions are constructed through the [`Scenario`] builder, and grids of
//! scenarios are swept in parallel by the [`Campaign`] runner. The simulator
//! is trace-complete: everything the paper's proofs inspect
//! (indistinguishability, message complexity, decision rounds) is recorded
//! and checkable after the fact. The proof constructions themselves
//! (`swap_omission`, `merge`, the Ω(t²) falsifier) live in `ba-core` and
//! operate on the [`Execution`] values produced here.
//!
//! What a run *records* is pluggable ([`TraceSink`]):
//! [`Scenario::run`](ProtocolScenario::run) materializes the full
//! [`Execution`] via the [`FullTrace`] sink, while
//! [`run_stats`](ProtocolScenario::run_stats) and [`Campaign`] sweeps
//! default to the [`StatsSink`] fast path ([`TraceMode::Stats`]) — identical
//! [`ScenarioStats`] with zero payload clones and no fragment allocation.
//!
//! ## Example
//!
//! ```
//! use ba_sim::{Scenario, Adversary, Protocol, ProcessCtx, Inbox, Outbox,
//!              Round, ProcessId, Bit};
//!
//! /// A toy protocol: everyone broadcasts its proposal in round 1 and
//! /// decides 0 iff it hears 0 from everybody (including itself).
//! #[derive(Clone)]
//! struct Echo { proposal: Bit, decision: Option<Bit> }
//!
//! impl Protocol for Echo {
//!     type Input = Bit;
//!     type Output = Bit;
//!     type Msg = Bit;
//!     fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
//!         self.proposal = proposal;
//!         let mut out = Outbox::new();
//!         for peer in ctx.others() { out.send(peer, proposal); }
//!         out
//!     }
//!     fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<Bit>) -> Outbox<Bit> {
//!         if round == Round::FIRST {
//!             let all_zero = self.proposal == Bit::Zero
//!                 && inbox.len() == ctx.n - 1
//!                 && inbox.iter().all(|(_, b)| *b == Bit::Zero);
//!             self.decision = Some(if all_zero { Bit::Zero } else { Bit::One });
//!         }
//!         Outbox::new()
//!     }
//!     fn decision(&self) -> Option<Bit> { self.decision }
//! }
//!
//! let exec = Scenario::new(4, 1)
//!     .protocol(|_pid| Echo { proposal: Bit::Zero, decision: None })
//!     .uniform_input(Bit::Zero)
//!     .adversary(Adversary::none())
//!     .run()
//!     .unwrap();
//! exec.validate().unwrap();
//! assert!(exec.all_correct_decided(Bit::Zero));
//! assert_eq!(exec.message_complexity(), 12); // 4 processes × 3 peers
//! ```
//!
//! Sweeping a grid of scenarios in parallel:
//!
//! ```
//! # use ba_sim::{Scenario, Campaign, Protocol, ProcessCtx, Inbox, Outbox,
//! #              Round, ProcessId, Bit};
//! # #[derive(Clone)]
//! # struct Echo { proposal: Bit, decision: Option<Bit> }
//! # impl Protocol for Echo {
//! #     type Input = Bit; type Output = Bit; type Msg = Bit;
//! #     fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
//! #         self.proposal = proposal;
//! #         let mut out = Outbox::new();
//! #         for peer in ctx.others() { out.send(peer, proposal); }
//! #         out
//! #     }
//! #     fn round(&mut self, _: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
//! #         if round == Round::FIRST { self.decision = Some(self.proposal); }
//! #         Outbox::new()
//! #     }
//! #     fn decision(&self) -> Option<Bit> { self.decision }
//! # }
//! let report = Campaign::grid([(4, 1), (6, 2), (8, 2)], &["none"], &["zeros"])
//!     .run_scenarios(|point| {
//!         Scenario::new(point.n, point.t)
//!             .protocol(|_| Echo { proposal: Bit::Zero, decision: None })
//!             .uniform_input(Bit::Zero)
//!     });
//! assert!(report.all_clean());
//! assert_eq!(report.max_message_complexity(), 8 * 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod byzantine;
mod campaign;
mod error;
mod execution;
mod executor;
mod fault;
mod ids;
mod mailbox;
mod par;
mod plan;
mod protocol;
mod rng;
mod scenario;
mod sink;
mod telemetry;
mod trace;
mod value;

pub use arena::{
    stable_hash, CompressedExecution, CompressedFragment, CompressedRecord, PayloadArena,
    PayloadId, StableHasher,
};
pub use byzantine::{
    ByzantineBehavior, FollowThenCrash, HonestMimic, ReplayByzantine, SilentByzantine,
};
pub use campaign::{Campaign, CampaignPoint, CampaignReport, ScenarioOutcome, ScenarioStats};
pub use error::SimError;
pub use execution::{
    DecisionOutcome, Execution, ExecutionInvariantError, FaultMode, Outcomes, ProcessRecord,
    RoundFragment,
};
pub use executor::ExecutorConfig;
pub use fault::{
    AdaptiveWorstCase, Envelope, ExecutionView, FaultBudget, FaultDirective, FaultModel,
    ForgingFaults, MobileOmission, PlannedFaults, Routing, SchedulerOmission,
};
pub use ids::{ProcessId, Round};
pub use mailbox::{Inbox, Outbox, OutboxDrain, OutboxIntoIter, ReceiverMask, ReceiverMaskIter};
pub use par::par_map;
pub use plan::{
    CrashPlan, DoubleIsolationPlan, Fate, FnPlan, IsolationPlan, NoFaults, OmissionPlan,
    RandomOmissionPlan, TableOmissionPlan,
};
pub use protocol::{ProcessCtx, Protocol};
pub use rng::SimRng;
pub use scenario::{
    Adversary, BoxedBehavior, BoxedFaultModel, BoxedPlan, ProtocolScenario, Scenario,
    ScenarioResult,
};
pub use sink::{
    CompressedTrace, FingerprintSink, Fingerprinted, FullTrace, RunSummary, StatsSink, TraceMode,
    TraceSink,
};
pub use trace::{
    first_inbox_divergence, payload_reuse, render_divergence, render_execution, round_stats,
    RoundStats,
};
pub use value::{Bit, Payload, Value};
