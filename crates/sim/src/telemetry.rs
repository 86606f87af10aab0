//! Observation-only execution telemetry: the [`RecordingSink`] wrapper.
//!
//! [`RecordingSink`] wraps any [`TraceSink`] and mirrors the engine's
//! routing stream into a [`ba_obs::Recorder`] without changing what the
//! run produces: per-round traffic histograms, run-level message/round
//! counters, and fault-directive events. Per-message work is a couple of
//! local integer increments — recorder calls happen at round granularity —
//! so the instrumented engine stays within a few percent of the bare one
//! (the benchmark reports the gap as `obs.recorder_overhead_frac`).
//!
//! Everything recorded here is derived from the logical execution (message
//! counts, rounds, corruption directives), so it lives in the recorder's
//! **deterministic channel**: identical across thread counts, shardings,
//! and trace modes.

use std::sync::Arc;

use ba_obs::Recorder;

use crate::ids::{ProcessId, Round};
use crate::mailbox::Inbox;
use crate::protocol::Protocol;
use crate::sink::{RunSummary, TraceSink};

/// Wraps a [`TraceSink`], forwarding every engine event unchanged while
/// recording telemetry. `Output` and produced values are exactly the inner
/// sink's — recording is observation-only by construction.
///
/// Emitted metrics (all deterministic):
///
/// * counter `exec.runs` — one per execution;
/// * histogram `exec.round.messages` — successful sends per round;
/// * counters `exec.messages.sent` / `.send_omitted` / `.receive_omitted`;
/// * counter `exec.rounds`, counter `exec.quiescent_runs`;
/// * histogram `exec.decision.rounds` — decision round per correct process;
/// * counter `exec.budget.spend` + events `fault.corrupt` / `fault.release`
///   with `round`/`process` fields, from the engine's directive hooks.
pub struct RecordingSink<S> {
    inner: S,
    recorder: Arc<dyn Recorder>,
    round_sent: u64,
    round_open: bool,
    sent: u64,
    send_omitted: u64,
    receive_omitted: u64,
}

impl<S> RecordingSink<S> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: S, recorder: Arc<dyn Recorder>) -> Self {
        RecordingSink {
            inner,
            recorder,
            round_sent: 0,
            round_open: false,
            sent: 0,
            send_omitted: 0,
            receive_omitted: 0,
        }
    }

    fn flush_round(&mut self) {
        if self.round_open {
            self.recorder
                .histogram("exec.round.messages", self.round_sent, &[]);
            self.round_sent = 0;
            self.round_open = false;
        }
    }
}

impl<P: Protocol, S: TraceSink<P>> TraceSink<P> for RecordingSink<S> {
    type Output = S::Output;

    fn init(&mut self, n: usize, proposals: &[P::Input]) {
        self.recorder.counter("exec.runs", 1, &[]);
        self.inner.init(n, proposals);
    }

    fn begin_round(&mut self, round: Round) {
        self.flush_round();
        self.round_open = true;
        self.inner.begin_round(round);
    }

    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        self.sent += 1;
        self.round_sent += 1;
        self.inner.sent(round, sender, receiver, payload);
    }

    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.send_omitted += 1;
        self.inner.send_omitted(round, sender, receiver, payload);
    }

    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.receive_omitted += 1;
        self.inner.receive_omitted(round, sender, receiver, payload);
    }

    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        self.inner.absorb_inbox(round, receiver, inbox);
    }

    fn corrupted(&mut self, round: Round, process: ProcessId) {
        self.recorder.counter("exec.budget.spend", 1, &[]);
        self.recorder.event(
            "fault.corrupt",
            &[
                ("round", round.0.into()),
                ("process", process.index().into()),
            ],
        );
        self.inner.corrupted(round, process);
    }

    fn released(&mut self, round: Round, process: ProcessId) {
        self.recorder.event(
            "fault.release",
            &[
                ("round", round.0.into()),
                ("process", process.index().into()),
            ],
        );
        self.inner.released(round, process);
    }

    fn finish(mut self, summary: RunSummary<P>) -> Self::Output {
        self.flush_round();
        let r = &self.recorder;
        r.counter("exec.messages.sent", self.sent, &[]);
        r.counter("exec.messages.send_omitted", self.send_omitted, &[]);
        r.counter("exec.messages.receive_omitted", self.receive_omitted, &[]);
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
        self.inner.finish(summary)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ba_obs::Aggregator;

    use crate::mailbox::Outbox;
    use crate::protocol::ProcessCtx;
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

    use super::*;

    /// Broadcasts its proposal for two rounds, then decides it.
    #[derive(Clone)]
    struct Gossip {
        proposal: Bit,
        decision: Option<Bit>,
    }

    impl Protocol for Gossip {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.proposal = proposal;
            let mut out = Outbox::new();
            out.send_to_all(ctx.others(), proposal);
            out
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            let mut out = Outbox::new();
            if round.0 < 2 {
                out.send_to_all(ctx.others(), self.proposal);
            } else {
                self.decision = Some(self.proposal);
            }
            out
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn gossip(_: ProcessId) -> Gossip {
        Gossip {
            proposal: Bit::Zero,
            decision: None,
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
