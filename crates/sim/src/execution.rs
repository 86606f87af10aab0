//! Recorded executions: fragments, behaviors, the five execution guarantees,
//! indistinguishability, and message-complexity accounting.
//!
//! These types are deliberate *passive data* — all fields are public — so the
//! proof constructions in `ba-core` (`swap_omission`, Algorithm 4;
//! `merge`, Algorithm 5) can perform the trace surgery the paper describes,
//! with [`Execution::validate`] re-checking the model's guarantees
//! afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use crate::ids::{ProcessId, Round};
use crate::value::{Payload, Value};

/// Whether an execution was produced under the omission, Byzantine, or a
/// mixed adversary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// Faulty processes follow their state machine but may omit sending or
    /// receiving messages (paper §3).
    Omission,
    /// Faulty processes behave arbitrarily (paper §2).
    Byzantine,
    /// Per-process mixed corruption: some faulty processes are Byzantine,
    /// the rest omission-faulty, in one execution
    /// (see [`Adversary::mixed`](crate::Adversary::mixed)).
    Mixed,
}

/// Everything that happened at one process in one round, from the
/// perspective of an omniscient external observer (paper §A.1.4).
///
/// Maps are keyed by the *other* endpoint: `sent`/`send_omitted` by receiver,
/// `received`/`receive_omitted` by sender. This structurally enforces the
/// fragment conditions (9) and (10) — at most one message per counterpart —
/// while conditions (4), (5), and (8) are checked by
/// [`Execution::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundFragment<M> {
    /// Messages successfully sent this round, keyed by receiver. A sent
    /// message is either received or receive-omitted by its receiver.
    pub sent: BTreeMap<ProcessId, M>,
    /// Messages the process's state machine emitted but that were
    /// send-omitted (only faulty processes have entries here).
    pub send_omitted: BTreeMap<ProcessId, M>,
    /// Messages received this round, keyed by sender. This is exactly what
    /// the state machine observes.
    pub received: BTreeMap<ProcessId, M>,
    /// Messages addressed to this process that it receive-omitted (only
    /// faulty processes have entries here).
    pub receive_omitted: BTreeMap<ProcessId, M>,
}

impl<M: Payload> RoundFragment<M> {
    /// An empty fragment (no traffic).
    pub fn empty() -> Self {
        RoundFragment {
            sent: BTreeMap::new(),
            send_omitted: BTreeMap::new(),
            received: BTreeMap::new(),
            receive_omitted: BTreeMap::new(),
        }
    }

    /// `true` iff the fragment records no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.sent.is_empty()
            && self.send_omitted.is_empty()
            && self.received.is_empty()
            && self.receive_omitted.is_empty()
    }

    /// Number of messages successfully sent this round.
    pub fn sent_count(&self) -> usize {
        self.sent.len()
    }
}

impl<M: Payload> Default for RoundFragment<M> {
    fn default() -> Self {
        Self::empty()
    }
}

/// The behavior of one process across an execution (paper §A.1.5): its
/// proposal, decision timeline, and per-round fragments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcessRecord<I, O, M> {
    /// The value the process proposed (drawn from `V_I`).
    pub proposal: I,
    /// The decision (drawn from `V_O`) and the round at the start of which
    /// it first appeared (`Round(k)` means the decision was visible in the
    /// state at the start of round `k`).
    pub decision: Option<(O, Round)>,
    /// Fragment of each executed round; `fragments[k - 1]` is round `k`.
    pub fragments: Vec<RoundFragment<M>>,
}

impl<I: Value, O: Value, M: Payload> ProcessRecord<I, O, M> {
    /// The fragment of `round`, or `None` if the execution stopped earlier.
    ///
    /// A missing fragment is semantically an empty one: the execution was
    /// quiescent from that round on.
    pub fn fragment(&self, round: Round) -> Option<&RoundFragment<M>> {
        self.fragments.get(round.index())
    }

    /// The decided value, if any.
    pub fn decided_value(&self) -> Option<&O> {
        self.decision.as_ref().map(|(v, _)| v)
    }

    /// All messages this process receive-omitted, as `(round, sender,
    /// payload)` triples — the paper's `all_receive_omitted(B_i)`.
    pub fn all_receive_omitted(&self) -> impl Iterator<Item = (Round, ProcessId, &M)> {
        self.fragments.iter().enumerate().flat_map(|(i, frag)| {
            frag.receive_omitted
                .iter()
                .map(move |(sender, m)| (Round(i as u64 + 1), *sender, m))
        })
    }

    /// All messages this process send-omitted, as `(round, receiver,
    /// payload)` triples — the paper's `all_send_omitted(B_i)`.
    pub fn all_send_omitted(&self) -> impl Iterator<Item = (Round, ProcessId, &M)> {
        self.fragments.iter().enumerate().flat_map(|(i, frag)| {
            frag.send_omitted
                .iter()
                .map(move |(receiver, m)| (Round(i as u64 + 1), *receiver, m))
        })
    }

    /// Total number of messages this process successfully sent.
    pub fn total_sent(&self) -> u64 {
        self.fragments.iter().map(|f| f.sent_count() as u64).sum()
    }
}

/// How a process concluded within an execution's horizon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecisionOutcome<V> {
    /// Decided `value` at the start of `round`.
    Decided {
        /// The decided value.
        value: V,
        /// The round at the start of which the decision first appeared.
        round: Round,
    },
    /// Never decided within the execution's horizon.
    Undecided,
}

/// A complete recorded execution: fault set plus one behavior per process
/// (paper §A.1.6).
///
/// Executions produced by the executor satisfy the five execution guarantees
/// by construction; executions produced by trace surgery should be re-checked
/// with [`Execution::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Execution<I, O, M> {
    /// Number of processes `n`.
    pub n: usize,
    /// Resilience bound `t`.
    pub t: usize,
    /// The adversary model under which this execution was produced.
    pub mode: FaultMode,
    /// The corrupted processes `F` (at most `t`).
    pub faulty: BTreeSet<ProcessId>,
    /// One record per process, indexed by process id.
    pub records: Vec<ProcessRecord<I, O, M>>,
    /// Number of rounds actually executed.
    pub rounds: u64,
    /// `true` iff the execution reached a round after which no process had
    /// messages in flight and all correct processes had decided — i.e. the
    /// recorded prefix determines the (infinite) execution's suffix.
    pub quiescent: bool,
}

/// Who was faulty, what each process proposed and what it decided: the
/// part of a recorded execution an agreement verdict reads.
///
/// Both forms a verdict is taken from implement it — the full
/// [`Execution`] and the [`Fingerprinted`](crate::Fingerprinted) run
/// `ba-check` records — so a verdict over decisions is written once and
/// reads either form as recorded.
pub trait Outcomes {
    /// The proposal domain.
    type Input: Value;
    /// The decision domain.
    type Output: Value;

    /// Number of processes `n`.
    fn n(&self) -> usize;

    /// The corrupted processes.
    fn faulty(&self) -> &BTreeSet<ProcessId>;

    /// The proposal of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    fn proposal(&self, pid: ProcessId) -> &Self::Input;

    /// The value `pid` decided, if any.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    fn decision_of(&self, pid: ProcessId) -> Option<&Self::Output>;

    /// The correct processes, in id order.
    fn correct(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let faulty = self.faulty();
        ProcessId::all(self.n()).filter(move |p| !faulty.contains(p))
    }
}

impl<I: Value, O: Value, M: Payload> Outcomes for Execution<I, O, M> {
    type Input = I;
    type Output = O;

    fn n(&self) -> usize {
        self.n
    }

    fn faulty(&self) -> &BTreeSet<ProcessId> {
        &self.faulty
    }

    fn proposal(&self, pid: ProcessId) -> &I {
        &self.record(pid).proposal
    }

    fn decision_of(&self, pid: ProcessId) -> Option<&O> {
        self.record(pid).decided_value()
    }
}

impl<I: Value, O: Value, M: Payload> Execution<I, O, M> {
    /// The record of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn record(&self, pid: ProcessId) -> &ProcessRecord<I, O, M> {
        &self.records[pid.index()]
    }

    /// `true` iff `pid` is correct in this execution.
    pub fn is_correct(&self, pid: ProcessId) -> bool {
        !self.faulty.contains(&pid)
    }

    /// Iterates over the correct processes, in id order — the paper's
    /// `Correct_A(E)`.
    pub fn correct(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(move |p| !self.faulty.contains(p))
    }

    /// The decision outcome of `pid`.
    pub fn outcome(&self, pid: ProcessId) -> DecisionOutcome<O> {
        match &self.record(pid).decision {
            Some((v, r)) => DecisionOutcome::Decided {
                value: v.clone(),
                round: *r,
            },
            None => DecisionOutcome::Undecided,
        }
    }

    /// The value decided by `pid`, if any.
    pub fn decision_of(&self, pid: ProcessId) -> Option<&O> {
        self.record(pid).decided_value()
    }

    /// `true` iff every correct process decided exactly `value`.
    pub fn all_correct_decided(&self, value: O) -> bool {
        self.correct().all(|p| self.decision_of(p) == Some(&value))
    }

    /// The unique decision of the processes in `group`, or `None` if any of
    /// them is undecided or they disagree.
    pub fn unanimous_decision<'a, G>(&self, group: G) -> Option<O>
    where
        G: IntoIterator<Item = &'a ProcessId>,
    {
        let mut result: Option<O> = None;
        for pid in group {
            let v = self.decision_of(*pid)?;
            match &result {
                None => result = Some(v.clone()),
                Some(prev) if prev == v => {}
                Some(_) => return None,
            }
        }
        result
    }

    /// The round at the start of which every correct process had decided,
    /// i.e. the paper's "round before which all processes decide" for
    /// fault-free executions. `None` if some correct process never decided.
    pub fn all_decided_by(&self) -> Option<Round> {
        latest_decision_round(
            self.correct()
                .map(|pid| self.record(pid).decision.as_ref().map(|(_, r)| *r)),
        )
    }

    /// The **message complexity** of this execution: the number of messages
    /// sent by *correct* processes over the whole execution (paper §2).
    ///
    /// All messages sent by correct processes count, including those
    /// receive-omitted by faulty receivers and those sent after decisions.
    pub fn message_complexity(&self) -> u64 {
        self.correct().map(|p| self.record(p).total_sent()).sum()
    }

    /// The number of messages successfully sent by *all* processes
    /// (correct and faulty).
    pub fn total_messages(&self) -> u64 {
        self.records.iter().map(|r| r.total_sent()).sum()
    }

    /// Compresses this execution into `arena`-backed handle form — the
    /// resident representation for holding many executions at once (see
    /// [`CompressedExecution`](crate::CompressedExecution)). Convenience for
    /// [`CompressedExecution::compress`](crate::CompressedExecution::compress);
    /// `compress(arena).hydrate(arena)` round-trips bit-for-bit.
    pub fn compress(&self, arena: &mut crate::PayloadArena<M>) -> crate::CompressedExecution<I, O> {
        crate::CompressedExecution::compress(self, arena)
    }

    /// Checks whether this execution is **indistinguishable** from `other`
    /// to process `pid` (paper §3): same proposal and identical received
    /// messages in every round. Missing trailing fragments are treated as
    /// empty, which is sound for quiescent executions.
    pub fn indistinguishable_to(&self, other: &Execution<I, O, M>, pid: ProcessId) -> bool {
        let a = self.record(pid);
        let b = other.record(pid);
        if a.proposal != b.proposal {
            return false;
        }
        let horizon = self.rounds.max(other.rounds);
        for round in Round::up_to(horizon) {
            let fa = a.fragment(round).map(|f| &f.received);
            let fb = b.fragment(round).map(|f| &f.received);
            let empty = BTreeMap::new();
            if fa.unwrap_or(&empty) != fb.unwrap_or(&empty) {
                return false;
            }
        }
        true
    }

    /// The first round (if any) in which `pid`'s *sending* behavior differs
    /// between `self` and `other`, comparing the full emitted message set
    /// `sent ∪ send_omitted` (which is what the state machine produced).
    ///
    /// This is the quantity illustrated by the paper's Figure 1: an isolated
    /// group's sends may first deviate in the round after isolation starts,
    /// and the rest of the system one round later still.
    pub fn first_send_divergence(
        &self,
        other: &Execution<I, O, M>,
        pid: ProcessId,
    ) -> Option<Round> {
        let a = self.record(pid);
        let b = other.record(pid);
        let horizon = self.rounds.max(other.rounds);
        for round in Round::up_to(horizon) {
            let emitted = |rec: &ProcessRecord<I, O, M>| -> BTreeMap<ProcessId, M> {
                match rec.fragment(round) {
                    None => BTreeMap::new(),
                    Some(f) => {
                        let mut all = f.sent.clone();
                        all.extend(f.send_omitted.clone());
                        all
                    }
                }
            };
            if emitted(a) != emitted(b) {
                return Some(round);
            }
        }
        None
    }

    /// Validates the five execution guarantees of §A.1.6 plus fragment
    /// well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ExecutionInvariantError> {
        use ExecutionInvariantError as E;

        if self.records.len() != self.n {
            return Err(E::RecordCount {
                got: self.records.len(),
                expected: self.n,
            });
        }
        // Guarantee: faulty processes.
        if self.faulty.len() > self.t {
            return Err(E::TooManyFaulty {
                got: self.faulty.len(),
                t: self.t,
            });
        }
        if let Some(p) = self.faulty.iter().find(|p| p.index() >= self.n) {
            return Err(E::UnknownProcess { process: *p });
        }

        for pid in ProcessId::all(self.n) {
            let rec = self.record(pid);
            for round in Round::up_to(self.rounds) {
                let Some(frag) = rec.fragment(round) else {
                    continue;
                };

                // Composition / fragment well-formedness: disjoint
                // sent/send-omitted receivers and received/receive-omitted
                // senders; no self traffic.
                if frag.sent.keys().any(|r| frag.send_omitted.contains_key(r)) {
                    return Err(E::OverlappingSendSets {
                        process: pid,
                        round,
                    });
                }
                if frag
                    .received
                    .keys()
                    .any(|s| frag.receive_omitted.contains_key(s))
                {
                    return Err(E::OverlappingReceiveSets {
                        process: pid,
                        round,
                    });
                }
                if frag.sent.contains_key(&pid)
                    || frag.send_omitted.contains_key(&pid)
                    || frag.received.contains_key(&pid)
                    || frag.receive_omitted.contains_key(&pid)
                {
                    return Err(E::SelfMessage {
                        process: pid,
                        round,
                    });
                }

                // Send-validity: a sent message is received or
                // receive-omitted, with the same payload, at the receiver.
                for (receiver, payload) in &frag.sent {
                    if receiver.index() >= self.n {
                        return Err(E::UnknownProcess { process: *receiver });
                    }
                    let rf = self.record(*receiver).fragment(round);
                    let seen = rf.is_some_and(|rf| {
                        rf.received.get(&pid) == Some(payload)
                            || rf.receive_omitted.get(&pid) == Some(payload)
                    });
                    if !seen {
                        return Err(E::SendValidity {
                            sender: pid,
                            receiver: *receiver,
                            round,
                        });
                    }
                }

                // Receive-validity: a received or receive-omitted message was
                // successfully sent, with the same payload, by its sender.
                for (sender, payload) in frag.received.iter().chain(&frag.receive_omitted) {
                    if sender.index() >= self.n {
                        return Err(E::UnknownProcess { process: *sender });
                    }
                    let sf = self.record(*sender).fragment(round);
                    let sent = sf.is_some_and(|sf| sf.sent.get(&pid) == Some(payload));
                    if !sent {
                        return Err(E::ReceiveValidity {
                            sender: *sender,
                            receiver: pid,
                            round,
                        });
                    }
                }

                // Omission-validity: only faulty processes omit.
                if (!frag.send_omitted.is_empty() || !frag.receive_omitted.is_empty())
                    && !self.faulty.contains(&pid)
                {
                    return Err(E::OmissionByCorrect {
                        process: pid,
                        round,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Folds per-process decision rounds into "the round by which everyone had
/// decided": the latest round over the iterator (at least [`Round::FIRST`]),
/// or `None` if any process is undecided. The single definition behind
/// [`Execution::all_decided_by`] and the trace-free
/// [`StatsSink`](crate::StatsSink) — the sink-equivalence contract depends
/// on these never diverging.
pub(crate) fn latest_decision_round(
    rounds: impl IntoIterator<Item = Option<Round>>,
) -> Option<Round> {
    let mut latest = Round::FIRST;
    for round in rounds {
        latest = latest.max(round?);
    }
    Some(latest)
}

/// A violation of the execution guarantees (paper §A.1.6), reported by
/// [`Execution::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecutionInvariantError {
    /// The record vector length differs from `n`.
    RecordCount {
        /// Number of records present.
        got: usize,
        /// Expected number (`n`).
        expected: usize,
    },
    /// More than `t` faulty processes.
    TooManyFaulty {
        /// Number of faulty processes.
        got: usize,
        /// The bound `t`.
        t: usize,
    },
    /// A referenced process id is out of range.
    UnknownProcess {
        /// The out-of-range id.
        process: ProcessId,
    },
    /// A receiver appears in both `sent` and `send_omitted`.
    OverlappingSendSets {
        /// The offending process.
        process: ProcessId,
        /// The offending round.
        round: Round,
    },
    /// A sender appears in both `received` and `receive_omitted`.
    OverlappingReceiveSets {
        /// The offending process.
        process: ProcessId,
        /// The offending round.
        round: Round,
    },
    /// A fragment records a message from a process to itself.
    SelfMessage {
        /// The offending process.
        process: ProcessId,
        /// The offending round.
        round: Round,
    },
    /// A sent message is neither received nor receive-omitted at its
    /// receiver.
    SendValidity {
        /// The message's sender.
        sender: ProcessId,
        /// The message's receiver.
        receiver: ProcessId,
        /// The message's round.
        round: Round,
    },
    /// A received/receive-omitted message was never successfully sent.
    ReceiveValidity {
        /// The message's sender.
        sender: ProcessId,
        /// The message's receiver.
        receiver: ProcessId,
        /// The message's round.
        round: Round,
    },
    /// A correct process committed an omission fault.
    OmissionByCorrect {
        /// The offending process.
        process: ProcessId,
        /// The offending round.
        round: Round,
    },
}

impl fmt::Display for ExecutionInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ExecutionInvariantError as E;
        match self {
            E::RecordCount { got, expected } => {
                write!(f, "execution has {got} records for {expected} processes")
            }
            E::TooManyFaulty { got, t } => {
                write!(f, "{got} faulty processes exceed t = {t}")
            }
            E::UnknownProcess { process } => write!(f, "unknown process {process}"),
            E::OverlappingSendSets { process, round } => {
                write!(
                    f,
                    "{process} has overlapping sent/send-omitted sets in {round}"
                )
            }
            E::OverlappingReceiveSets { process, round } => {
                write!(
                    f,
                    "{process} has overlapping received/receive-omitted sets in {round}"
                )
            }
            E::SelfMessage { process, round } => {
                write!(f, "{process} has a self-addressed message in {round}")
            }
            E::SendValidity {
                sender,
                receiver,
                round,
            } => {
                write!(
                    f,
                    "send-validity violated for {sender} → {receiver} in {round}"
                )
            }
            E::ReceiveValidity {
                sender,
                receiver,
                round,
            } => {
                write!(
                    f,
                    "receive-validity violated for {sender} → {receiver} in {round}"
                )
            }
            E::OmissionByCorrect { process, round } => {
                write!(
                    f,
                    "correct process {process} committed an omission fault in {round}"
                )
            }
        }
    }
}

impl Error for ExecutionInvariantError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Bit;

    fn frag() -> RoundFragment<u8> {
        RoundFragment::empty()
    }

    /// A minimal hand-built 2-process execution: p0 sends `7` to p1 in
    /// round 1; both propose Zero; p1 decides One.
    fn tiny_execution() -> Execution<Bit, Bit, u8> {
        let mut f0 = frag();
        f0.sent.insert(ProcessId(1), 7);
        let mut f1 = frag();
        f1.received.insert(ProcessId(0), 7);
        Execution {
            n: 2,
            t: 1,
            mode: FaultMode::Omission,
            faulty: BTreeSet::new(),
            records: vec![
                ProcessRecord {
                    proposal: Bit::Zero,
                    decision: None,
                    fragments: vec![f0],
                },
                ProcessRecord {
                    proposal: Bit::Zero,
                    decision: Some((Bit::One, Round(2))),
                    fragments: vec![f1],
                },
            ],
            rounds: 1,
            quiescent: true,
        }
    }

    #[test]
    fn valid_execution_passes_validation() {
        tiny_execution().validate().unwrap();
    }

    #[test]
    fn message_complexity_counts_correct_senders() {
        let exec = tiny_execution();
        assert_eq!(exec.message_complexity(), 1);
        assert_eq!(exec.total_messages(), 1);
    }

    #[test]
    fn faulty_senders_do_not_count_toward_complexity() {
        let mut exec = tiny_execution();
        exec.faulty.insert(ProcessId(0));
        assert_eq!(exec.message_complexity(), 0);
        assert_eq!(exec.total_messages(), 1);
    }

    #[test]
    fn send_validity_detects_dropped_message() {
        let mut exec = tiny_execution();
        exec.records[1].fragments[0].received.clear();
        assert_eq!(
            exec.validate(),
            Err(ExecutionInvariantError::SendValidity {
                sender: ProcessId(0),
                receiver: ProcessId(1),
                round: Round(1),
            })
        );
    }

    #[test]
    fn receive_validity_detects_forged_message() {
        let mut exec = tiny_execution();
        exec.records[0].fragments[0]
            .received
            .insert(ProcessId(1), 9);
        assert_eq!(
            exec.validate(),
            Err(ExecutionInvariantError::ReceiveValidity {
                sender: ProcessId(1),
                receiver: ProcessId(0),
                round: Round(1),
            })
        );
    }

    #[test]
    fn receive_validity_detects_payload_mismatch() {
        let mut exec = tiny_execution();
        *exec.records[1].fragments[0]
            .received
            .get_mut(&ProcessId(0))
            .unwrap() = 8;
        assert!(exec.validate().is_err());
    }

    #[test]
    fn omission_validity_requires_faulty_blame() {
        let mut exec = tiny_execution();
        // Reclassify the delivery as a receive-omission without marking p1
        // faulty.
        let payload = exec.records[1].fragments[0]
            .received
            .remove(&ProcessId(0))
            .unwrap();
        exec.records[1].fragments[0]
            .receive_omitted
            .insert(ProcessId(0), payload);
        assert_eq!(
            exec.validate(),
            Err(ExecutionInvariantError::OmissionByCorrect {
                process: ProcessId(1),
                round: Round(1),
            })
        );
        exec.faulty.insert(ProcessId(1));
        exec.validate().unwrap();
    }

    #[test]
    fn too_many_faulty_is_rejected() {
        let mut exec = tiny_execution();
        exec.faulty.insert(ProcessId(0));
        exec.faulty.insert(ProcessId(1));
        assert_eq!(
            exec.validate(),
            Err(ExecutionInvariantError::TooManyFaulty { got: 2, t: 1 })
        );
    }

    #[test]
    fn self_message_is_rejected() {
        let mut exec = tiny_execution();
        exec.records[0].fragments[0]
            .received
            .insert(ProcessId(0), 1);
        assert_eq!(
            exec.validate(),
            Err(ExecutionInvariantError::SelfMessage {
                process: ProcessId(0),
                round: Round(1)
            })
        );
    }

    #[test]
    fn indistinguishability_compares_proposals_and_inboxes() {
        let a = tiny_execution();
        let mut b = tiny_execution();
        assert!(a.indistinguishable_to(&b, ProcessId(0)));
        assert!(a.indistinguishable_to(&b, ProcessId(1)));
        b.records[1].proposal = Bit::One;
        assert!(!a.indistinguishable_to(&b, ProcessId(1)));
        let mut c = tiny_execution();
        c.records[1].fragments[0].received.insert(ProcessId(0), 8);
        // Note: c is no longer a valid execution, but indistinguishability
        // is a pointwise comparison and does not require validity.
        assert!(!a.indistinguishable_to(&c, ProcessId(1)));
        assert!(a.indistinguishable_to(&c, ProcessId(0)));
    }

    #[test]
    fn indistinguishability_treats_missing_fragments_as_empty() {
        let a = tiny_execution();
        let mut b = tiny_execution();
        b.records[0].fragments.push(frag());
        b.records[1].fragments.push(frag());
        b.rounds = 2;
        assert!(a.indistinguishable_to(&b, ProcessId(0)));
        assert!(a.indistinguishable_to(&b, ProcessId(1)));
    }

    #[test]
    fn unanimous_decision_detects_agreement_and_disagreement() {
        let mut exec = tiny_execution();
        exec.records[0].decision = Some((Bit::One, Round(2)));
        let group: Vec<ProcessId> = vec![ProcessId(0), ProcessId(1)];
        assert_eq!(exec.unanimous_decision(group.iter()), Some(Bit::One));
        exec.records[0].decision = Some((Bit::Zero, Round(2)));
        assert_eq!(exec.unanimous_decision(group.iter()), None);
        exec.records[0].decision = None;
        assert_eq!(exec.unanimous_decision(group.iter()), None);
    }

    #[test]
    fn first_send_divergence_detects_behavior_change() {
        let a = tiny_execution();
        let mut b = tiny_execution();
        assert_eq!(a.first_send_divergence(&b, ProcessId(0)), None);
        b.records[0].fragments[0].sent.insert(ProcessId(1), 8);
        assert_eq!(a.first_send_divergence(&b, ProcessId(0)), Some(Round(1)));
    }

    #[test]
    fn send_omitted_counts_as_emitted_for_divergence() {
        // A message moved from `sent` to `send_omitted` is the *same*
        // state-machine output, so it must not register as divergence.
        let a = tiny_execution();
        let mut b = tiny_execution();
        let payload = b.records[0].fragments[0]
            .sent
            .remove(&ProcessId(1))
            .unwrap();
        b.records[0].fragments[0]
            .send_omitted
            .insert(ProcessId(1), payload);
        b.records[1].fragments[0].received.clear();
        assert_eq!(a.first_send_divergence(&b, ProcessId(0)), None);
    }

    #[test]
    fn all_decided_by_reports_latest_round() {
        let mut exec = tiny_execution();
        assert_eq!(exec.all_decided_by(), None);
        exec.records[0].decision = Some((Bit::One, Round(3)));
        assert_eq!(exec.all_decided_by(), Some(Round(3)));
    }

    #[test]
    fn record_accessors() {
        let exec = tiny_execution();
        assert_eq!(
            exec.outcome(ProcessId(1)),
            DecisionOutcome::Decided {
                value: Bit::One,
                round: Round(2)
            }
        );
        assert_eq!(exec.outcome(ProcessId(0)), DecisionOutcome::Undecided);
        assert_eq!(exec.correct().count(), 2);
        assert!(exec.is_correct(ProcessId(0)));
    }

    #[test]
    fn omission_iterators_enumerate_all_rounds() {
        let mut exec = tiny_execution();
        exec.faulty.insert(ProcessId(1));
        let payload = exec.records[1].fragments[0]
            .received
            .remove(&ProcessId(0))
            .unwrap();
        exec.records[1].fragments[0]
            .receive_omitted
            .insert(ProcessId(0), payload);
        let ro: Vec<_> = exec.records[1].all_receive_omitted().collect();
        assert_eq!(ro, vec![(Round(1), ProcessId(0), &7u8)]);
        assert_eq!(exec.records[1].all_send_omitted().count(), 0);
    }
}
