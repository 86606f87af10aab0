//! Hash-consed payload interning: [`PayloadArena`] and the arena-backed
//! [`CompressedExecution`] for cheap *resident* executions.
//!
//! All-to-all protocols repeat the same few payloads across thousands of
//! fragment slots (`n²` per round). Interning stores each **distinct**
//! payload once and replaces every slot with a dense [`PayloadId`] (`u32`)
//! handle; compress → hydrate round-trips are lossless and bit-identical.
//!
//! Who records which form:
//!
//! * [`CompressedTrace`](crate::CompressedTrace) records a run straight
//!   into a caller's arena. The falsifier's parallel `E_B(k)` scan keeps
//!   its speculative executions in this form and hydrates each one only
//!   when the sequential walk reaches it.
//! * [`FullTrace`](crate::FullTrace) records the full [`Execution`] in
//!   place, without an arena; [`CompressedExecution::compress`] turns one
//!   into handle form after the fact.
//!
//! `ba-check` records neither: it fingerprints each execution while it
//! runs, through [`FingerprintSink`](crate::FingerprintSink), which keeps
//! no payloads at all and hashes through this module's [`StableHasher`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use crate::execution::{Execution, FaultMode, ProcessRecord, RoundFragment};
use crate::ids::{ProcessId, Round};
use crate::value::{Payload, Value};

/// A deterministic 64-bit FNV-1a [`Hasher`] with a fixed endianness.
///
/// `DefaultHasher` is seeded per-process and its integer methods hash
/// native-endian bytes, so its output is useless as a *stored* fingerprint.
/// `StableHasher` always starts from the FNV offset basis and hashes every
/// integer little-endian, so the same value stream produces the same 64-bit
/// digest in every run — which is what lets the exhaustive model checker
/// deduplicate states by fingerprint and compare the resulting certificates
/// across thread counts and shard splits.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        // Fixed-width so 32- and 64-bit targets agree.
        self.write(&(i as u64).to_le_bytes());
    }
}

/// Hashes `value` through a fresh [`StableHasher`].
pub fn stable_hash<T: Hash>(value: &T) -> u64 {
    let mut hasher = StableHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Dense handle into a [`PayloadArena`]. `u32` keeps compressed fragments at
/// four bytes per slot regardless of the payload type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PayloadId(pub u32);

/// A hash-consed store of distinct payloads.
///
/// [`intern`](PayloadArena::intern) returns the existing handle for an
/// already-seen payload (no clone, no growth); a fresh payload is stored
/// once. Handles are assigned densely in first-appearance order, so the same
/// event stream always produces the same handles — arena contents are as
/// deterministic as the executions they come from.
#[derive(Clone, Debug, Default)]
pub struct PayloadArena<M> {
    items: Vec<M>,
    index: HashMap<M, PayloadId>,
}

impl<M: Payload> PayloadArena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena {
            items: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Interns `payload`, returning its handle. Clones the payload only on
    /// first appearance.
    pub fn intern(&mut self, payload: &M) -> PayloadId {
        if let Some(id) = self.index.get(payload) {
            return *id;
        }
        self.intern_owned(payload.clone())
    }

    /// Interns an owned `payload` (no clone even on first appearance).
    pub fn intern_owned(&mut self, payload: M) -> PayloadId {
        if let Some(id) = self.index.get(&payload) {
            return *id;
        }
        let id = PayloadId(u32::try_from(self.items.len()).expect("more than u32::MAX payloads"));
        self.items.push(payload.clone());
        self.index.insert(payload, id);
        id
    }

    /// The payload behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    pub fn resolve(&self, id: PayloadId) -> &M {
        &self.items[id.0 as usize]
    }

    /// Number of distinct payloads stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A [`RoundFragment`] with payloads replaced by arena handles.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CompressedFragment {
    /// Messages sent, keyed by receiver.
    pub sent: BTreeMap<ProcessId, PayloadId>,
    /// Messages send-omitted, keyed by receiver.
    pub send_omitted: BTreeMap<ProcessId, PayloadId>,
    /// Messages received, keyed by sender.
    pub received: BTreeMap<ProcessId, PayloadId>,
    /// Messages receive-omitted, keyed by sender.
    pub receive_omitted: BTreeMap<ProcessId, PayloadId>,
}

/// A [`ProcessRecord`] with payloads replaced by arena handles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompressedRecord<I, O> {
    /// The proposal.
    pub proposal: I,
    /// The decision and its round, if decided.
    pub decision: Option<(O, Round)>,
    /// Per-round compressed fragments.
    pub fragments: Vec<CompressedFragment>,
}

/// An [`Execution`] whose payloads live in a shared [`PayloadArena`] —
/// typically a few dozen distinct payloads backing tens of thousands of
/// fragment slots. [`hydrate`](CompressedExecution::hydrate) reconstructs
/// the original bit-for-bit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompressedExecution<I, O> {
    /// Number of processes `n`.
    pub n: usize,
    /// Resilience bound `t`.
    pub t: usize,
    /// The adversary model of the source execution.
    pub mode: FaultMode,
    /// The corrupted processes.
    pub faulty: BTreeSet<ProcessId>,
    /// One compressed record per process.
    pub records: Vec<CompressedRecord<I, O>>,
    /// Number of executed rounds.
    pub rounds: u64,
    /// Whether the source execution was quiescent.
    pub quiescent: bool,
}

impl<I: Value, O: Value> CompressedExecution<I, O> {
    /// Compresses `exec`, interning every payload into `arena`. Multiple
    /// executions may share one arena — that is the point.
    pub fn compress<M: Payload>(exec: &Execution<I, O, M>, arena: &mut PayloadArena<M>) -> Self {
        let mut intern_map = |map: &BTreeMap<ProcessId, M>| -> BTreeMap<ProcessId, PayloadId> {
            map.iter().map(|(p, m)| (*p, arena.intern(m))).collect()
        };
        let records = exec
            .records
            .iter()
            .map(|rec| CompressedRecord {
                proposal: rec.proposal.clone(),
                decision: rec.decision.clone(),
                fragments: rec
                    .fragments
                    .iter()
                    .map(|f| CompressedFragment {
                        sent: intern_map(&f.sent),
                        send_omitted: intern_map(&f.send_omitted),
                        received: intern_map(&f.received),
                        receive_omitted: intern_map(&f.receive_omitted),
                    })
                    .collect(),
            })
            .collect();
        CompressedExecution {
            n: exec.n,
            t: exec.t,
            mode: exec.mode,
            faulty: exec.faulty.clone(),
            records,
            rounds: exec.rounds,
            quiescent: exec.quiescent,
        }
    }

    /// Reconstructs the original execution from `arena`.
    ///
    /// # Panics
    ///
    /// Panics if a handle was not produced by `arena`.
    pub fn hydrate<M: Payload>(&self, arena: &PayloadArena<M>) -> Execution<I, O, M> {
        let resolve_map = |map: &BTreeMap<ProcessId, PayloadId>| -> BTreeMap<ProcessId, M> {
            map.iter()
                .map(|(p, id)| (*p, arena.resolve(*id).clone()))
                .collect()
        };
        Execution {
            n: self.n,
            t: self.t,
            mode: self.mode,
            faulty: self.faulty.clone(),
            records: self
                .records
                .iter()
                .map(|rec| ProcessRecord {
                    proposal: rec.proposal.clone(),
                    decision: rec.decision.clone(),
                    fragments: rec
                        .fragments
                        .iter()
                        .map(|f| RoundFragment {
                            sent: resolve_map(&f.sent),
                            send_omitted: resolve_map(&f.send_omitted),
                            received: resolve_map(&f.received),
                            receive_omitted: resolve_map(&f.receive_omitted),
                        })
                        .collect(),
                })
                .collect(),
            rounds: self.rounds,
            quiescent: self.quiescent,
        }
    }

    /// Total number of fragment slots (payload references) in this
    /// execution — the count that would have been owned clones without the
    /// arena.
    pub fn slot_count(&self) -> usize {
        self.records
            .iter()
            .flat_map(|r| r.fragments.iter())
            .map(|f| {
                f.sent.len() + f.send_omitted.len() + f.received.len() + f.receive_omitted.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{Inbox, Outbox};
    use crate::protocol::{ProcessCtx, Protocol};
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

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
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, ctx: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            let mut out = Outbox::new();
            if round.0 < 2 {
                out.broadcast_to_others(ctx, self.proposal);
            } else {
                self.decision = Some(self.proposal);
            }
            out
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn sample(n: usize) -> Execution<Bit, Bit, Bit> {
        Scenario::new(n, 1)
            .protocol(|_| Gossip {
                proposal: Bit::Zero,
                decision: None,
            })
            .inputs((0..n).map(|i| Bit::from(i % 2 == 0)))
            .adversary(Adversary::isolation([ProcessId(n - 1)], Round(2)))
            .run()
            .unwrap()
    }

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut arena: PayloadArena<String> = PayloadArena::new();
        let a = arena.intern(&"x".to_string());
        let b = arena.intern(&"y".to_string());
        let a2 = arena.intern(&"x".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.resolve(a), "x");
        assert_eq!(arena.resolve(b), "y");
        assert_eq!(arena.intern_owned("y".to_string()), b);
        assert!(!arena.is_empty());
    }

    #[test]
    fn compress_hydrate_round_trips_bit_for_bit() {
        let exec = sample(5);
        let mut arena = PayloadArena::new();
        let compressed = CompressedExecution::compress(&exec, &mut arena);
        // A two-valued protocol interns at most two distinct payloads while
        // the execution holds hundreds of slots.
        assert!(arena.len() <= 2, "arena grew to {}", arena.len());
        assert!(compressed.slot_count() > arena.len());
        let hydrated = compressed.hydrate(&arena);
        assert_eq!(exec, hydrated);
        hydrated.validate().unwrap();
    }

    #[test]
    fn stable_hasher_is_reproducible_and_endian_fixed() {
        // FNV-1a of the byte 0x61 ("a") — a known vector.
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Integer writes are little-endian regardless of platform: a u32
        // write equals the write of its little-endian bytes.
        let mut a = StableHasher::new();
        a.write_u32(0x1234_5678);
        let mut b = StableHasher::new();
        b.write(&[0x78, 0x56, 0x34, 0x12]);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(stable_hash(&Bit::Zero), stable_hash(&Bit::Zero));
        assert_ne!(stable_hash(&Bit::Zero), stable_hash(&Bit::One));
    }

    #[test]
    fn many_executions_share_one_arena() {
        let mut arena = PayloadArena::new();
        let execs: Vec<_> = (4..9).map(sample).collect();
        let compressed: Vec<_> = execs
            .iter()
            .map(|e| CompressedExecution::compress(e, &mut arena))
            .collect();
        assert!(arena.len() <= 2);
        for (exec, comp) in execs.iter().zip(&compressed) {
            assert_eq!(*exec, comp.hydrate(&arena));
        }
    }
}
