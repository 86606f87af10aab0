//! Pluggable trace sinks: what the execution engine *records*.
//!
//! The engine ([`run_slots`](crate::executor)) routes every message through
//! the omission plan and emits routing events to a [`TraceSink`]. What the
//! run produces is the sink's choice:
//!
//! * [`FullTrace`] writes payloads straight into the trace-complete
//!   [`Execution`](crate::Execution) the proof machinery reads
//!   (`swap_omission`, `merge`, [`Execution::validate`](crate::Execution::validate),
//!   certificates); its only payload clone is one per sent message;
//! * [`CompressedTrace`] records the same trace into a caller's
//!   [`PayloadArena`] as a [`CompressedExecution`] of `u32` handles — the
//!   form `ba-check` fingerprints and the falsifier's parallel scan keeps
//!   resident; hydrating it through the arena equals the [`FullTrace`]
//!   execution bit for bit;
//! * [`StatsSink`] accumulates a [`ScenarioStats`] report with **zero
//!   payload clones and no fragment allocation** — the fast path for
//!   campaign sweeps that only consume aggregate statistics.
//!
//! [`TraceMode`] picks between [`FullTrace`] and [`StatsSink`] so infrastructure
//! ([`ExecutorConfig`](crate::ExecutorConfig), [`Scenario`](crate::Scenario),
//! [`Campaign`](crate::Campaign)) can dispatch without naming sink types;
//! custom sinks plug in through
//! [`ProtocolScenario::run_with_sink`](crate::ProtocolScenario::run_with_sink).

use std::collections::{BTreeMap, BTreeSet};

use crate::arena::{CompressedExecution, CompressedFragment, CompressedRecord, PayloadArena};
use crate::campaign::ScenarioStats;
use crate::execution::{Execution, FaultMode, ProcessRecord, RoundFragment};
use crate::ids::{ProcessId, Round};
use crate::mailbox::Inbox;
use crate::protocol::Protocol;
use crate::value::Payload;

/// Which built-in [`TraceSink`] stats-producing entry points drive.
///
/// [`ProtocolScenario::run`](crate::ProtocolScenario::run) always returns a
/// full [`Execution`](crate::Execution) (its result type demands the trace);
/// this knob selects the engine's recording detail everywhere the caller
/// only consumes [`ScenarioStats`] —
/// [`ProtocolScenario::run_report`](crate::ProtocolScenario::run_report) and
/// the [`Campaign`](crate::Campaign) sweeps built on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// Materialize the full execution and derive stats from it (validating
    /// the execution guarantees along the way).
    Full,
    /// Accumulate stats directly in the engine: no payload clones, no
    /// fragment maps, an order of magnitude less memory on large grids.
    #[default]
    Stats,
}

/// Everything the engine knows at the end of a run, handed to
/// [`TraceSink::finish`].
pub struct RunSummary<P: Protocol> {
    /// Number of processes `n`.
    pub n: usize,
    /// Resilience bound `t`.
    pub t: usize,
    /// The adversary model of the run.
    pub mode: FaultMode,
    /// The corrupted processes.
    pub faulty: BTreeSet<ProcessId>,
    /// Per-process decision and the round at the start of which it first
    /// appeared, indexed by process id.
    pub decisions: Vec<Option<(P::Output, Round)>>,
    /// Per-sender count of successfully sent messages (delivered or
    /// receive-omitted), indexed by process id — the engine's own routing
    /// counters, so counting sinks need not mirror them per edge.
    pub sent_counts: Vec<u64>,
    /// Number of rounds actually executed.
    pub rounds: u64,
    /// Whether the execution quiesced (see
    /// [`Execution::quiescent`](crate::Execution::quiescent)).
    pub quiescent: bool,
}

/// A consumer of the engine's routing events.
///
/// The engine calls the methods in a fixed deterministic order: `init` once,
/// then per round `begin_round`, the routing events in ascending
/// `(sender, receiver)` order, and `absorb_inbox` once per process in id
/// order after that process's state transition; `finish` closes the run.
/// Payloads arrive **by value** when only the sink could still want them
/// (omitted messages) and **by reference** when the engine is about to
/// deliver them, so a statistics sink never forces a clone.
pub trait TraceSink<P: Protocol> {
    /// What the run produces.
    type Output;

    /// Called once before round 1 with the system size and proposals.
    fn init(&mut self, n: usize, proposals: &[P::Input]);

    /// Called at the start of every executed round.
    fn begin_round(&mut self, round: Round);

    /// A message successfully sent (it is delivered to, or receive-omitted
    /// by, its receiver). The engine still owns the payload.
    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg);

    /// A message send-omitted by its (faulty) sender; the sink takes
    /// ownership of the payload.
    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    );

    /// A message receive-omitted by its (faulty) receiver; the sink takes
    /// ownership of the payload. The engine reported the same message via
    /// [`TraceSink::sent`] first.
    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    );

    /// Called after `receiver`'s state transition with the inbox it
    /// observed. The sink **must leave the inbox empty** (drain or clear it);
    /// the engine reuses the buffer for the next round.
    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>);

    /// A fault directive took effect entering `round`: `process` joined the
    /// corruption set (and was charged against the budget if newly
    /// corrupted). Default: ignored — only observability sinks care.
    fn corrupted(&mut self, _round: Round, _process: ProcessId) {}

    /// A fault directive released `process` from the corruption set
    /// entering `round` (mobile adversaries). Default: ignored.
    fn released(&mut self, _round: Round, _process: ProcessId) {}

    /// Closes the run and produces the output.
    fn finish(self, summary: RunSummary<P>) -> Self::Output;
}

/// The trace-complete sink: materializes the [`Execution`] value the proof
/// constructions inspect, identical to what the engine recorded before
/// sinks existed.
///
/// Payloads are written straight into the [`RoundFragment`] maps, each map
/// built in bulk by one `collect()`: `received` from the drained inbox, the
/// other three from per-process buffers flushed when the next round begins
/// (or the run finishes). Bulk-built maps pack their B-tree nodes full,
/// which entry-at-a-time insertion would leave half empty.
pub struct FullTrace<P: Protocol> {
    records: Vec<ProcessRecord<P::Input, P::Output, P::Msg>>,
    pending: Vec<Pending<P::Msg>>,
}

/// One process's routing events of the current round, not yet in its
/// fragment: `(counterpart, payload)` in routing order.
struct Pending<M> {
    sent: Vec<(ProcessId, M)>,
    send_omitted: Vec<(ProcessId, M)>,
    receive_omitted: Vec<(ProcessId, M)>,
}

impl<M: Payload> Pending<M> {
    fn new() -> Self {
        Pending {
            sent: Vec::new(),
            send_omitted: Vec::new(),
            receive_omitted: Vec::new(),
        }
    }

    /// Moves the buffered events into `fragment`, keeping the buffers'
    /// capacity for the next round.
    fn flush_into(&mut self, fragment: &mut RoundFragment<M>) {
        for (buffer, map) in [
            (&mut self.sent, &mut fragment.sent),
            (&mut self.send_omitted, &mut fragment.send_omitted),
            (&mut self.receive_omitted, &mut fragment.receive_omitted),
        ] {
            if !buffer.is_empty() {
                *map = buffer.drain(..).collect();
            }
        }
    }
}

impl<P: Protocol> FullTrace<P> {
    /// An empty full-trace sink.
    pub fn new() -> Self {
        FullTrace {
            records: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Writes the buffered events of the last begun round into its
    /// fragments.
    fn flush(&mut self) {
        for (rec, pending) in self.records.iter_mut().zip(&mut self.pending) {
            if let Some(fragment) = rec.fragments.last_mut() {
                pending.flush_into(fragment);
            }
        }
    }
}

impl<P: Protocol> Default for FullTrace<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> TraceSink<P> for FullTrace<P> {
    type Output = Execution<P::Input, P::Output, P::Msg>;

    fn init(&mut self, n: usize, proposals: &[P::Input]) {
        self.records = proposals
            .iter()
            .map(|v| ProcessRecord {
                proposal: v.clone(),
                decision: None,
                fragments: Vec::new(),
            })
            .collect();
        self.pending = (0..n).map(|_| Pending::new()).collect();
    }

    fn begin_round(&mut self, _round: Round) {
        self.flush();
        for rec in &mut self.records {
            rec.fragments.push(RoundFragment::empty());
        }
    }

    fn sent(&mut self, _round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        self.pending[sender.index()]
            .sent
            .push((receiver, payload.clone()));
    }

    fn send_omitted(
        &mut self,
        _round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.pending[sender.index()]
            .send_omitted
            .push((receiver, payload));
    }

    fn receive_omitted(
        &mut self,
        _round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.pending[receiver.index()]
            .receive_omitted
            .push((sender, payload));
    }

    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        // The drain yields ascending senders; an exact-size buffer lets the
        // map build in bulk without regrowing it.
        if inbox.is_empty() {
            return;
        }
        let mut received = Vec::with_capacity(inbox.len());
        received.extend(inbox.drain());
        self.records[receiver.index()].fragments[round.index()].received =
            received.into_iter().collect();
    }

    fn finish(mut self, summary: RunSummary<P>) -> Self::Output {
        self.flush();
        for (rec, decision) in self.records.iter_mut().zip(summary.decisions) {
            rec.decision = decision;
        }
        Execution {
            n: summary.n,
            t: summary.t,
            mode: summary.mode,
            faulty: summary.faulty,
            records: self.records,
            rounds: summary.rounds,
            quiescent: summary.quiescent,
        }
    }
}

/// The arena-backed trace sink: records the same trace as [`FullTrace`],
/// but interns every payload into a caller's [`PayloadArena`] and produces
/// a [`CompressedExecution`] of dense [`PayloadId`](crate::PayloadId)
/// handles. An all-to-all round then costs one stored payload per
/// *distinct* message instead of one clone per fragment slot, and the
/// result fingerprints without a second pass.
///
/// Readers that keep many executions resident or only fingerprint them use
/// it: `ba-check`'s explorer and the falsifier's parallel critical-round
/// scan. [`CompressedExecution::hydrate`] through the same arena yields
/// exactly what [`FullTrace`] records for the run.
pub struct CompressedTrace<'a, P: Protocol> {
    arena: &'a mut PayloadArena<P::Msg>,
    records: Vec<CompressedRecord<P::Input, P::Output>>,
}

impl<'a, P: Protocol> CompressedTrace<'a, P> {
    /// An empty compressed-trace sink interning into `arena`.
    pub fn new(arena: &'a mut PayloadArena<P::Msg>) -> Self {
        CompressedTrace {
            arena,
            records: Vec::new(),
        }
    }

    fn fragment(&mut self, pid: ProcessId, round: Round) -> &mut CompressedFragment {
        &mut self.records[pid.index()].fragments[round.index()]
    }
}

impl<P: Protocol> TraceSink<P> for CompressedTrace<'_, P> {
    type Output = CompressedExecution<P::Input, P::Output>;

    fn init(&mut self, _n: usize, proposals: &[P::Input]) {
        self.records = proposals
            .iter()
            .map(|v| CompressedRecord {
                proposal: v.clone(),
                decision: None,
                fragments: Vec::new(),
            })
            .collect();
    }

    fn begin_round(&mut self, _round: Round) {
        for rec in &mut self.records {
            rec.fragments.push(CompressedFragment::default());
        }
    }

    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        let id = self.arena.intern(payload);
        self.fragment(sender, round).sent.insert(receiver, id);
    }

    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        let id = self.arena.intern_owned(payload);
        self.fragment(sender, round)
            .send_omitted
            .insert(receiver, id);
    }

    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        let id = self.arena.intern_owned(payload);
        self.fragment(receiver, round)
            .receive_omitted
            .insert(sender, id);
    }

    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        // Intern (usually a hash probe, not a clone) the round's payloads;
        // dense sender order matches BTreeMap order, so inserts are
        // in-order appends.
        for (sender, payload) in inbox.drain() {
            let id = self.arena.intern_owned(payload);
            self.fragment(receiver, round).received.insert(sender, id);
        }
    }

    fn finish(mut self, summary: RunSummary<P>) -> Self::Output {
        for (rec, decision) in self.records.iter_mut().zip(summary.decisions) {
            rec.decision = decision;
        }
        CompressedExecution {
            n: summary.n,
            t: summary.t,
            mode: summary.mode,
            faulty: summary.faulty,
            records: self.records,
            rounds: summary.rounds,
            quiescent: summary.quiescent,
        }
    }
}

/// The statistics sink: derives its report from the engine's own routing
/// counters and drops every payload in place — no clones, no fragments, no
/// per-event work at all ([`RunSummary::sent_counts`] already holds the
/// per-sender totals).
///
/// Its [`ScenarioStats`] output is value-identical to
/// [`ScenarioStats::from_execution`] applied to the [`FullTrace`] result of
/// the same run (engine-produced executions satisfy the execution
/// guarantees by construction, so the validation pass a full trace enables
/// can never add a violation).
pub struct StatsSink {}

impl StatsSink {
    /// An empty stats sink.
    pub fn new() -> Self {
        StatsSink {}
    }
}

impl Default for StatsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> TraceSink<P> for StatsSink {
    type Output = ScenarioStats<P::Output>;

    fn init(&mut self, _n: usize, _proposals: &[P::Input]) {}

    fn begin_round(&mut self, _round: Round) {}

    fn sent(&mut self, _round: Round, _sender: ProcessId, _receiver: ProcessId, _payload: &P::Msg) {
    }

    fn send_omitted(&mut self, _: Round, _: ProcessId, _: ProcessId, _payload: P::Msg) {}

    fn receive_omitted(&mut self, _: Round, _: ProcessId, _: ProcessId, _payload: P::Msg) {}

    fn absorb_inbox(&mut self, _round: Round, _receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        inbox.clear();
    }

    fn finish(self, summary: RunSummary<P>) -> Self::Output {
        let correct = ProcessId::all(summary.n).filter(|p| !summary.faulty.contains(p));
        let decisions: BTreeMap<ProcessId, Option<P::Output>> = correct
            .clone()
            .map(|p| {
                (
                    p,
                    summary.decisions[p.index()]
                        .as_ref()
                        .map(|(v, _)| v.clone()),
                )
            })
            .collect();
        let decided_by = crate::execution::latest_decision_round(
            correct.map(|p| summary.decisions[p.index()].as_ref().map(|(_, r)| *r)),
        );
        let message_complexity = summary
            .sent_counts
            .iter()
            .enumerate()
            .filter(|(i, _)| !summary.faulty.contains(&ProcessId(*i)))
            .map(|(_, c)| c)
            .sum();
        ScenarioStats {
            message_complexity,
            total_messages: summary.sent_counts.iter().sum(),
            rounds: summary.rounds,
            quiescent: summary.quiescent,
            decided_by,
            violations: ScenarioStats::derive_violations(&decisions),
            decisions,
        }
    }
}
