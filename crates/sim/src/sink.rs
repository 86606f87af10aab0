//! Pluggable trace sinks: what the execution engine *records*.
//!
//! The engine ([`run_slots`](crate::executor)) routes every message through
//! the omission plan and emits routing events to a [`TraceSink`]. What the
//! run produces is the sink's choice:
//!
//! * [`FullTrace`] writes payloads straight into the trace-complete
//!   [`Execution`](crate::Execution) the proof machinery reads
//!   (`swap_omission`, `merge`, [`Execution::validate`](crate::Execution::validate),
//!   certificates); it clones each payload once where it is sent and once
//!   where it is received (draining the inbox, whose broadcast payloads
//!   are shared with every receiver of the round);
//! * [`CompressedTrace`] records the same trace into a caller's
//!   [`PayloadArena`] as a [`CompressedExecution`] of `u32` handles — the
//!   form the falsifier's parallel scan keeps resident; it interns by
//!   reference, cloning a payload only on its first appearance, and
//!   hydrating it through the arena equals the [`FullTrace`] execution bit
//!   for bit;
//! * [`FingerprintSink`] hashes the trace while the run goes, keeping one
//!   fixed-size record per routing event and no payload: its
//!   [`Fingerprinted`] output is the 64-bit state identity `ba-check`
//!   deduplicates by, plus the outcomes its verdict reads;
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
use std::hash::{Hash, Hasher};

use crate::arena::{
    stable_hash, CompressedExecution, CompressedFragment, CompressedRecord, PayloadArena,
    StableHasher,
};
use crate::campaign::ScenarioStats;
use crate::execution::{Execution, FaultMode, Outcomes, ProcessRecord, RoundFragment};
use crate::ids::{ProcessId, Round};
use crate::mailbox::Inbox;
use crate::protocol::Protocol;
use crate::value::{Payload, Value};

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
/// *distinct* message instead of one clone per fragment slot.
///
/// The falsifier's parallel critical-round scan uses it to keep many
/// speculative executions resident.
/// [`CompressedExecution::hydrate`] through the same arena yields exactly
/// what [`FullTrace`] records for the run.
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
        // Intern the round's payloads by reference (a hash probe; a clone
        // only on a payload's first appearance); ascending sender order
        // makes the inserts in-order appends.
        let received = &mut self.records[receiver.index()].fragments[round.index()].received;
        for (sender, payload) in inbox.iter() {
            received.insert(sender, self.arena.intern(payload));
        }
        inbox.clear();
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

/// The fingerprinting sink: hashes the run's trace while the engine runs
/// it, with no fragments, no arena and no payload clones.
///
/// Each routing event appends one fixed-size record — round, sender,
/// receiver, kind (sent, send-omitted or receive-omitted) and the
/// [`stable_hash`] of the payload. Delivered edges need no record of their
/// own: a received message is exactly a sent one its receiver did not
/// receive-omit, so [`absorb_inbox`](TraceSink::absorb_inbox) only clears
/// the inbox. [`finish`](TraceSink::finish) sorts the records into
/// `(round, sender, receiver, kind)` order and hashes them through a
/// [`StableHasher`] together with `n`, `t`, the fault mode, the faulty set,
/// the rounds run, quiescence, and each process's proposal and decision
/// (with its round).
///
/// Sorting makes the fingerprint independent of the order the engine
/// emits events in, so executions that differ only in within-round
/// delivery order collapse to one fingerprint. Two runs fingerprint alike
/// exactly when their [`FullTrace`] executions are equal (up to 64-bit
/// hash collisions): that is the state identity `ba-check` deduplicates
/// by.
pub struct FingerprintSink<P: Protocol> {
    proposals: Vec<P::Input>,
    events: Vec<RoutedEvent>,
}

/// One routing event as [`FingerprintSink`] keeps it. The derived order
/// is the `(round, sender, receiver, kind)` order the fingerprint hashes
/// in; that key is unique per event, so the payload hash never decides it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RoutedEvent {
    round: Round,
    sender: ProcessId,
    receiver: ProcessId,
    kind: EventKind,
    payload: u64,
}

/// What happened to a routed message. A receive-omitted message is also
/// recorded as sent, as the engine reports it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Sent = 0,
    SendOmitted = 1,
    ReceiveOmitted = 2,
}

impl<P: Protocol> FingerprintSink<P> {
    /// An empty fingerprinting sink.
    pub fn new() -> Self {
        FingerprintSink {
            proposals: Vec::new(),
            events: Vec::new(),
        }
    }

    fn record(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        kind: EventKind,
        payload: &P::Msg,
    ) {
        self.events.push(RoutedEvent {
            round,
            sender,
            receiver,
            kind,
            payload: stable_hash(payload),
        });
    }
}

impl<P: Protocol> Default for FingerprintSink<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> TraceSink<P> for FingerprintSink<P> {
    type Output = Fingerprinted<P::Input, P::Output>;

    fn init(&mut self, n: usize, proposals: &[P::Input]) {
        self.proposals = proposals.to_vec();
        // One all-to-all round's worth up front; longer runs grow it.
        self.events.reserve(n * n);
    }

    fn begin_round(&mut self, _round: Round) {}

    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        self.record(round, sender, receiver, EventKind::Sent, payload);
    }

    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.record(round, sender, receiver, EventKind::SendOmitted, &payload);
    }

    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.record(round, sender, receiver, EventKind::ReceiveOmitted, &payload);
    }

    fn absorb_inbox(&mut self, _round: Round, _receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        inbox.clear();
    }

    fn finish(mut self, summary: RunSummary<P>) -> Self::Output {
        // Already in order on the engine's fast path, which the sort
        // detects in one pass; rescheduled rounds arrive permuted.
        self.events.sort_unstable();
        let mut hasher = StableHasher::new();
        hasher.write_usize(summary.n);
        hasher.write_usize(summary.t);
        hasher.write_u8(match summary.mode {
            FaultMode::Omission => 0,
            FaultMode::Byzantine => 1,
            FaultMode::Mixed => 2,
        });
        hasher.write_usize(summary.faulty.len());
        for process in &summary.faulty {
            hasher.write_usize(process.0);
        }
        hasher.write_u64(summary.rounds);
        hasher.write_u8(u8::from(summary.quiescent));
        for (proposal, decision) in self.proposals.iter().zip(&summary.decisions) {
            proposal.hash(&mut hasher);
            decision.hash(&mut hasher);
        }
        // FNV costs a multiply per byte, so the ids go in as varints: one
        // byte each below 128, and still prefix-free above.
        hasher.write_usize(self.events.len());
        for event in &self.events {
            write_varint(&mut hasher, event.round.0);
            write_varint(&mut hasher, event.sender.0 as u64);
            write_varint(&mut hasher, event.receiver.0 as u64);
            hasher.write_u8(event.kind as u8);
            hasher.write_u64(event.payload);
        }
        Fingerprinted {
            fingerprint: hasher.finish(),
            n: summary.n,
            faulty: summary.faulty,
            proposals: self.proposals,
            decisions: summary.decisions,
        }
    }
}

/// Hashes `value` as an unsigned LEB128 varint: seven bits per byte, the
/// high bit set on every byte but the last.
fn write_varint(hasher: &mut StableHasher, mut value: u64) {
    while value >= 0x80 {
        hasher.write_u8(value as u8 | 0x80);
        value >>= 7;
    }
    hasher.write_u8(value as u8);
}

/// What a [`FingerprintSink`] run produces: the execution's fingerprint
/// and the outcomes a verdict reads, through [`Outcomes`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fingerprinted<I, O> {
    /// The 64-bit state identity of the execution (see [`FingerprintSink`]).
    pub fingerprint: u64,
    /// Number of processes `n`.
    pub n: usize,
    /// The corrupted processes.
    pub faulty: BTreeSet<ProcessId>,
    /// Per-process proposal, indexed by process id.
    pub proposals: Vec<I>,
    /// Per-process decision and the round at the start of which it first
    /// appeared, indexed by process id.
    pub decisions: Vec<Option<(O, Round)>>,
}

impl<I: Value, O: Value> Outcomes for Fingerprinted<I, O> {
    type Input = I;
    type Output = O;

    fn n(&self) -> usize {
        self.n
    }

    fn faulty(&self) -> &BTreeSet<ProcessId> {
        &self.faulty
    }

    fn proposal(&self, pid: ProcessId) -> &I {
        &self.proposals[pid.index()]
    }

    fn decision_of(&self, pid: ProcessId) -> Option<&O> {
        self.decisions[pid.index()].as_ref().map(|(v, _)| v)
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
