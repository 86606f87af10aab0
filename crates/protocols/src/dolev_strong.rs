//! Dolev-Strong authenticated Byzantine broadcast (\[52\] in the paper).
//!
//! The classic `t + 1`-round protocol tolerating any `t < n` Byzantine
//! faults in the idealized authenticated setting, and — instantiated with
//! sender `p_0` — the canonical *weak consensus* algorithm with `Θ(n²)`
//! message complexity, i.e. the kind of algorithm the paper's Ω(t²) lower
//! bound proves optimal up to constants.
//!
//! ## Algorithm
//!
//! * **Round 1.** The designated sender signs its proposal and sends the
//!   1-link signature chain to everyone.
//! * **Round `k ∈ [1, t+1]`.** A process that receives a valid chain of at
//!   least `k` signatures over a value it has not yet *extracted* adds the
//!   value to its extracted set; if this is only its first or second
//!   extraction and `k ≤ t`, it appends its own signature and relays the
//!   chain to everyone in round `k + 1`.
//! * **End of round `t + 1`.** Decide the unique extracted value, or the
//!   default if zero or several values were extracted (several extractions
//!   prove sender equivocation).
//!
//! Relaying stops after two distinct values because two valid chains already
//! convince every correct process that the sender equivocated; this caps
//! message complexity at `≤ 2 n (n - 1) + (n - 1)` messages.
//!
//! ## Why this solves weak consensus
//!
//! With sender `p_0` broadcasting its own proposal: in a fully correct
//! execution where all processes propose `v`, the correct sender broadcasts
//! `v` and every process decides `v` — Weak Validity holds; Agreement and
//! Termination are the broadcast's own guarantees. (Sender Validity is much
//! stronger than needed, which is exactly the paper's point: even the *weak*
//! problem costs Ω(t²).)

use std::sync::Arc;

use ba_crypto::{Keybook, Keychain, SignatureChain};
use ba_sim::{Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round, Value};

/// One (value, signature-chain) pair carried inside a Dolev-Strong message.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DsEntry<V> {
    /// The broadcast value this chain endorses.
    pub value: V,
    /// The endorsement chain, starting with the designated sender.
    pub chain: SignatureChain,
}

/// A shared, immutable batch of [`DsEntry`] values — the Dolev-Strong
/// message payload.
///
/// Broadcast protocols send the *same* batch to every peer, so the payload
/// is reference-counted: `clone` (which the executor performs once per
/// receiver) is a refcount bump, not a fresh `Vec` + chain allocation. On
/// large sweeps this removes the dominant allocation churn of the
/// Dolev-Strong hot path.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DsBatch<V>(Arc<Vec<DsEntry<V>>>);

impl<V> DsBatch<V> {
    /// Wraps a batch of entries for sharing.
    pub fn new(entries: Vec<DsEntry<V>>) -> Self {
        DsBatch(Arc::new(entries))
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, DsEntry<V>> {
        self.0.iter()
    }

    /// Number of entries in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the batch carries no entries (never produced by the
    /// protocol, which only sends non-empty batches).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<V> From<Vec<DsEntry<V>>> for DsBatch<V> {
    fn from(entries: Vec<DsEntry<V>>) -> Self {
        DsBatch::new(entries)
    }
}

impl<V> FromIterator<DsEntry<V>> for DsBatch<V> {
    fn from_iter<I: IntoIterator<Item = DsEntry<V>>>(iter: I) -> Self {
        DsBatch::new(iter.into_iter().collect())
    }
}

impl<'a, V> IntoIterator for &'a DsBatch<V> {
    type Item = &'a DsEntry<V>;
    type IntoIter = std::slice::Iter<'a, DsEntry<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Dolev-Strong authenticated Byzantine broadcast.
///
/// `Input` is the proposal of *this* process; only the designated sender's
/// proposal influences the outcome. Message payloads are batches of
/// [`DsEntry`] so that a round's (at most two) relays fit the model's
/// one-message-per-receiver rule.
///
/// ```
/// use ba_crypto::Keybook;
/// use ba_protocols::DolevStrong;
/// use ba_sim::{Bit, ProcessId, Scenario};
///
/// let (n, t) = (4, 1);
/// let book = Keybook::new(n);
/// let exec = Scenario::new(n, t)
///     .protocol(DolevStrong::factory(book, ProcessId(0), Bit::Zero))
///     .uniform_input(Bit::One)
///     .run()
///     .unwrap();
/// assert!(exec.all_correct_decided(Bit::One));
/// ```
#[derive(Clone, Debug)]
pub struct DolevStrong<V> {
    book: Keybook,
    keychain: Keychain,
    sender: ProcessId,
    default: V,
    // At most two extracted values are ever tracked (a second one already
    // proves equivocation), so a flat sorted Vec beats a tree set: lookups
    // are one or two comparisons and the empty state allocates nothing.
    extracted: Vec<V>,
    decision: Option<V>,
}

impl<V: Value> DolevStrong<V> {
    /// Creates the instance run by the owner of `keychain`.
    ///
    /// `sender` is the designated broadcaster; `default` is decided when the
    /// sender is caught equivocating (or stays silent).
    pub fn new(book: Keybook, keychain: Keychain, sender: ProcessId, default: V) -> Self {
        DolevStrong {
            book,
            keychain,
            sender,
            default,
            extracted: Vec::new(),
            decision: None,
        }
    }

    /// A per-process factory suitable for the executors: each process gets
    /// its own keychain (and only its own — unforgeability by construction).
    pub fn factory(
        book: Keybook,
        sender: ProcessId,
        default: V,
    ) -> impl Fn(ProcessId) -> DolevStrong<V> + Clone {
        move |pid| DolevStrong::new(book.clone(), book.keychain(pid), sender, default.clone())
    }

    /// The designated sender.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The values extracted so far (at most two are tracked), in
    /// ascending order.
    pub fn extracted(&self) -> &[V] {
        &self.extracted
    }

    fn extract(&mut self, value: V) {
        match self.extracted.binary_search(&value) {
            Ok(_) => {}
            Err(pos) => self.extracted.insert(pos, value),
        }
    }

    fn deciding_round(&self, ctx: &ProcessCtx) -> u64 {
        ctx.t as u64 + 1
    }
}

impl<V: Value> Protocol for DolevStrong<V> {
    type Input = V;
    type Output = V;
    type Msg = DsBatch<V>;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: V) -> Outbox<Self::Msg> {
        let mut out = Outbox::with_capacity(ctx.n);
        if ctx.id == self.sender {
            self.extract(proposal.clone());
            let chain = SignatureChain::originate(&self.keychain, &proposal);
            let entry = DsEntry {
                value: proposal,
                chain,
            };
            out.broadcast_to_others(ctx, DsBatch::new(vec![entry]));
        }
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        let deciding = self.deciding_round(ctx);
        let mut out = Outbox::new();
        if round.0 > deciding {
            return out;
        }

        let mut relays: Vec<DsEntry<V>> = Vec::new();
        // Cap at two extracted values: a second value already proves
        // equivocation, further values cannot change the outcome.
        'scan: for (_, batch) in inbox.iter() {
            for entry in batch.iter() {
                if self.extracted.len() >= 2 {
                    break 'scan;
                }
                let fresh = !self.extracted.contains(&entry.value);
                let timely = entry.chain.len() as u64 >= round.0;
                if fresh && timely && entry.chain.valid(&self.book, self.sender, &entry.value) {
                    self.extract(entry.value.clone());
                    // Relay with our endorsement so the chain reaches length
                    // ≥ k + 1 by round k + 1; pointless after round t.
                    if round.0 <= ctx.t as u64 && !entry.chain.contains_signer(ctx.id) {
                        relays.push(DsEntry {
                            value: entry.value.clone(),
                            chain: entry.chain.extend(&self.keychain, &entry.value),
                        });
                    }
                }
            }
        }
        if !relays.is_empty() {
            relays.sort();
            out = Outbox::with_capacity(ctx.n);
            out.broadcast_to_others(ctx, DsBatch::new(relays));
        }

        if round.0 == deciding {
            self.decision = Some(if self.extracted.len() == 1 {
                self.extracted[0].clone()
            } else {
                self.default.clone()
            });
        }
        out
    }

    fn decision(&self) -> Option<V> {
        self.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Adversary, Bit, Scenario, SilentByzantine};

    #[test]
    fn correct_sender_value_is_decided_by_all() {
        let exec = Scenario::new(5, 2)
            .protocol(DolevStrong::factory(
                Keybook::new(5),
                ProcessId(0),
                Bit::Zero,
            ))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert!(exec.all_correct_decided(Bit::One));
        assert!(exec.quiescent);
    }

    #[test]
    fn decision_lands_at_round_t_plus_one() {
        let exec = Scenario::new(5, 2)
            .protocol(DolevStrong::factory(
                Keybook::new(5),
                ProcessId(0),
                Bit::Zero,
            ))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        // Decision appears in the state at the start of round t + 2,
        // i.e. after processing round t + 1 = 3.
        for pid in exec.correct() {
            let (_, round) = exec.record(pid).decision.unwrap();
            assert_eq!(round, Round(4));
        }
    }

    #[test]
    fn silent_sender_yields_default_for_all() {
        let exec = Scenario::new(4, 1)
            .protocol(DolevStrong::factory(
                Keybook::new(4),
                ProcessId(0),
                Bit::Zero,
            ))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(0), SilentByzantine))
            .run()
            .unwrap();
        exec.validate().unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::Zero));
        }
    }

    #[test]
    fn message_complexity_is_quadratic_not_more() {
        for (n, t) in [(4, 1), (8, 2), (8, 7), (12, 4)] {
            let exec = Scenario::new(n, t)
                .protocol(DolevStrong::factory(
                    Keybook::new(n),
                    ProcessId(0),
                    Bit::Zero,
                ))
                .uniform_input(Bit::One)
                .run()
                .unwrap();
            let bound = (2 * n * (n - 1) + (n - 1)) as u64;
            assert!(exec.message_complexity() <= bound);
        }
    }

    #[test]
    fn isolated_receiver_still_agrees_with_majority_or_is_faulty() {
        // Isolate one process (faulty, omission model) from round 1: it
        // extracts nothing and decides the default — which the weak
        // consensus guarantees allow, since it is faulty.
        let exec = Scenario::new(5, 2)
            .protocol(DolevStrong::factory(
                Keybook::new(5),
                ProcessId(0),
                Bit::Zero,
            ))
            .uniform_input(Bit::One)
            .adversary(Adversary::isolation([ProcessId(4)], Round(1)))
            .run()
            .unwrap();
        exec.validate().unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::One));
        }
        assert_eq!(exec.decision_of(ProcessId(4)), Some(&Bit::Zero));
    }

    #[test]
    fn weak_validity_holds_in_fully_correct_uniform_executions() {
        for bit in Bit::ALL {
            let exec = Scenario::new(4, 1)
                .protocol(DolevStrong::factory(
                    Keybook::new(4),
                    ProcessId(0),
                    Bit::Zero,
                ))
                .uniform_input(bit)
                .run()
                .unwrap();
            assert!(exec.all_correct_decided(bit), "weak validity for {bit}");
        }
    }

    #[test]
    fn multivalued_broadcast_works() {
        let exec = Scenario::new(4, 1)
            .protocol(DolevStrong::factory(Keybook::new(4), ProcessId(2), 0u32))
            .inputs([10, 20, 30, 40])
            .run()
            .unwrap();
        assert!(exec.all_correct_decided(30u32));
    }

    #[test]
    fn executions_are_deterministic() {
        let run = || {
            Scenario::new(6, 2)
                .protocol(DolevStrong::factory(
                    Keybook::new(6),
                    ProcessId(0),
                    Bit::Zero,
                ))
                .uniform_input(Bit::One)
                .run()
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mixed_fault_assignment_silent_sender_plus_isolated_receiver() {
        // A mixed adversary the legacy dual entry points could not express:
        // the designated sender is Byzantine-silent while p4 is
        // omission-faulty (isolated from round 1) in the same execution.
        // The remaining correct processes extract nothing and decide the
        // default.
        let exec = Scenario::new(5, 2)
            .protocol(DolevStrong::factory(
                Keybook::new(5),
                ProcessId(0),
                Bit::Zero,
            ))
            .uniform_input(Bit::One)
            .adversary(Adversary::mixed(
                [(ProcessId(0), Box::new(SilentByzantine) as _)],
                [ProcessId(4)],
                ba_sim::IsolationPlan::new([ProcessId(4)], Round(1)),
            ))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.mode, ba_sim::FaultMode::Mixed);
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::Zero));
        }
    }
}
