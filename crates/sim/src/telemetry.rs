//! Observation-only execution telemetry: the engine's [`Telemetry`] hook.
//!
//! With a [`ba_obs::Recorder`] installed
//! ([`ProtocolScenario::recorder`](crate::ProtocolScenario::recorder)), the
//! executor mirrors its routing into it without changing what the run
//! produces: per-round traffic histograms, run-level message/round
//! counters, and fault-directive events. The numbers come from the
//! engine's own per-process traffic counters, read once per round, so
//! recording adds no per-message work and no second copy of the executor
//! for every sink type (the benchmark reports the remaining gap as
//! `obs.recorder_overhead_frac`).
//!
//! Everything recorded here is derived from the logical execution (message
//! counts, rounds, corruption directives), so it lives in the recorder's
//! **deterministic channel**: identical across thread counts, shardings,
//! and trace modes.

use ba_obs::Recorder;

use crate::ids::{ProcessId, Round};
use crate::protocol::Protocol;
use crate::sink::RunSummary;

/// One run's telemetry, driven by the executor.
///
/// Emitted metrics (all deterministic):
///
/// * counter `exec.runs` — one per execution;
/// * histogram `exec.round.messages` — successful sends per round;
/// * counters `exec.messages.sent` / `.send_omitted` / `.receive_omitted`;
/// * counter `exec.rounds`, counter `exec.quiescent_runs`;
/// * histogram `exec.decision.rounds` — decision round per correct process;
/// * counter `exec.budget.spend` + events `fault.corrupt` / `fault.release`
///   with `round`/`process` fields, from the engine's directives.
pub(crate) struct Telemetry<'r> {
    recorder: &'r dyn Recorder,
    /// Successful sends of the run up to the last closed round.
    sent_before: u64,
}

impl<'r> Telemetry<'r> {
    /// Opens one run's telemetry.
    pub(crate) fn start(recorder: &'r dyn Recorder) -> Self {
        recorder.counter("exec.runs", 1, &[]);
        Telemetry {
            recorder,
            sent_before: 0,
        }
    }

    /// Closes a round, given the run's successful sends so far.
    pub(crate) fn round_done(&mut self, sent: u64) {
        self.recorder
            .histogram("exec.round.messages", sent - self.sent_before, &[]);
        self.sent_before = sent;
    }

    /// `process` joined the corruption set entering `round`.
    pub(crate) fn corrupted(&self, round: Round, process: ProcessId) {
        self.recorder.counter("exec.budget.spend", 1, &[]);
        self.recorder.event(
            "fault.corrupt",
            &[
                ("round", round.0.into()),
                ("process", process.index().into()),
            ],
        );
    }

    /// `process` left the corruption set entering `round`.
    pub(crate) fn released(&self, round: Round, process: ProcessId) {
        self.recorder.event(
            "fault.release",
            &[
                ("round", round.0.into()),
                ("process", process.index().into()),
            ],
        );
    }

    /// Closes the run: of the `routed` messages, `delivered` reached an
    /// inbox; every routed message was either sent or send-omitted, and
    /// every sent one delivered or receive-omitted.
    pub(crate) fn finish<P: Protocol>(&self, summary: &RunSummary<P>, routed: u64, delivered: u64) {
        let r = self.recorder;
        let sent: u64 = summary.sent_counts.iter().sum();
        r.counter("exec.messages.sent", sent, &[]);
        r.counter("exec.messages.send_omitted", routed - sent, &[]);
        r.counter("exec.messages.receive_omitted", sent - delivered, &[]);
        r.counter("exec.rounds", summary.rounds, &[]);
        if summary.quiescent {
            r.counter("exec.quiescent_runs", 1, &[]);
        }
        for p in ProcessId::all(summary.n) {
            if summary.faulty.contains(&p) {
                continue;
            }
            if let Some((_, decided)) = &summary.decisions[p.index()] {
                r.histogram("exec.decision.rounds", decided.0, &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ba_obs::Aggregator;

    use crate::mailbox::{Inbox, Outbox};
    use crate::protocol::ProcessCtx;
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

    use super::*;

    /// Sends its proposal to everyone for two rounds, then decides it:
    /// one message per peer, or one broadcast when `broadcast` is set (the
    /// executor routes the two shapes on different paths).
    #[derive(Clone)]
    struct Gossip {
        proposal: Bit,
        decision: Option<Bit>,
        broadcast: bool,
    }

    impl Gossip {
        fn outbox(&self, ctx: &ProcessCtx) -> Outbox<Bit> {
            let mut out = Outbox::new();
            if self.broadcast {
                out.broadcast(ctx.others(), self.proposal);
            } else {
                for peer in ctx.others() {
                    out.send(peer, self.proposal);
                }
            }
            out
        }
    }

    impl Protocol for Gossip {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.proposal = proposal;
            self.outbox(ctx)
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            if round.0 < 2 {
                return self.outbox(ctx);
            }
            self.decision = Some(self.proposal);
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn gossip(_: ProcessId) -> Gossip {
        Gossip {
            proposal: Bit::Zero,
            decision: None,
            broadcast: true,
        }
    }

    #[test]
    fn omission_counters_match_the_execution() {
        // Per-peer sends, broadcasts and a reordering scheduler take the
        // executor's three routing paths.
        let adversaries = || -> [Adversary<'static, Bit, Bit>; 3] {
            [
                Adversary::isolation([ProcessId(4)], Round(2)),
                Adversary::omission(
                    [ProcessId(3)],
                    crate::plan::RandomOmissionPlan::new([ProcessId(3)], 0.5, 0.5, 7),
                ),
                Adversary::scheduler(ProcessId(4), 2, 11),
            ]
        };
        for broadcast in [false, true] {
            let factory = |_: ProcessId| Gossip {
                broadcast,
                ..gossip(ProcessId(0))
            };
            for (bare, recorded) in adversaries().into_iter().zip(adversaries()) {
                let exec = Scenario::new(5, 1)
                    .protocol(factory)
                    .uniform_input(Bit::One)
                    .adversary(bare)
                    .run()
                    .unwrap();
                let agg = Arc::new(Aggregator::new());
                Scenario::new(5, 1)
                    .protocol(factory)
                    .uniform_input(Bit::One)
                    .adversary(recorded)
                    .recorder(agg.clone())
                    .run_stats()
                    .unwrap();
                let counters = agg.snapshot().counters;
                let count = |name: &str| counters.get(name).copied().unwrap_or(0);
                let omitted = |f: fn(&crate::ProcessRecord<Bit, Bit, Bit>) -> usize| {
                    exec.records.iter().map(f).sum::<usize>() as u64
                };
                assert_eq!(count("exec.messages.sent"), exec.total_messages());
                assert_eq!(
                    count("exec.messages.send_omitted"),
                    omitted(|r| r.all_send_omitted().count())
                );
                assert_eq!(
                    count("exec.messages.receive_omitted"),
                    omitted(|r| r.all_receive_omitted().count())
                );
            }
        }
    }

    #[test]
    fn recording_is_observation_only_and_counts_the_execution() {
        let bare = Scenario::new(5, 1)
            .protocol(gossip)
            .uniform_input(Bit::One)
            .adversary(Adversary::mobile([ProcessId(4)], 1))
            .run()
            .unwrap();

        let agg = Arc::new(Aggregator::new());
        let recorded = Scenario::new(5, 1)
            .protocol(gossip)
            .uniform_input(Bit::One)
            .adversary(Adversary::mobile([ProcessId(4)], 1))
            .recorder(agg.clone())
            .run()
            .unwrap();
        assert_eq!(bare, recorded, "recording must not change the execution");

        let snap = agg.snapshot();
        assert_eq!(snap.counters["exec.runs"], 1);
        assert_eq!(snap.counters["exec.messages.sent"], bare.total_messages());
        assert_eq!(snap.counters["exec.rounds"], bare.rounds);
        // The mobile adversary corrupted (and possibly released) p4.
        assert_eq!(snap.counters["exec.budget.spend"], 1);
        assert!(snap.events["fault.corrupt"] >= 1);
        // Per-round traffic histogram saw every executed round.
        assert_eq!(snap.histograms["exec.round.messages"].count, bare.rounds);
        assert_eq!(
            snap.histograms["exec.round.messages"].sum,
            bare.total_messages()
        );
        // Decision rounds: one observation per correct process.
        assert_eq!(snap.histograms["exec.decision.rounds"].count, 4);
    }

    #[test]
    fn stats_and_full_modes_record_identical_deterministic_telemetry() {
        let run = |mode: crate::sink::TraceMode| {
            let agg = Arc::new(Aggregator::new());
            Scenario::new(5, 1)
                .protocol(gossip)
                .uniform_input(Bit::One)
                .adversary(Adversary::adaptive_worst_case(1))
                .trace_mode(mode)
                .recorder(agg.clone())
                .run_report()
                .unwrap();
            agg.snapshot().deterministic()
        };
        assert_eq!(
            run(crate::sink::TraceMode::Stats),
            run(crate::sink::TraceMode::Full)
        );
    }
}
