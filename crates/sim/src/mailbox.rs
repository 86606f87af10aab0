//! Per-round message containers: the [`Outbox`] a process fills when sending
//! and the [`Inbox`] it reads when receiving.
//!
//! The computational model (paper §A.1) allows each process to send *at most
//! one* message to any specific process in a single round and forbids
//! self-sends. [`Outbox`] enforces the former structurally (it is keyed by
//! receiver) and the executor rejects the latter.
//!
//! Broadcast — the dominant traffic shape of every implemented protocol — is
//! a first-class primitive: [`Outbox::broadcast`] stores *one* payload plus a
//! dense [`ReceiverMask`] instead of `n - 1` clones, and
//! [`Outbox::broadcast_to_others`] fills the all-but-self mask a whole word
//! at a time. The executor moves each delivered broadcast payload once into
//! a round-long table with one slot per sender; an [`Inbox`] reads that table
//! through a bitmask of the senders it heard, so delivering a broadcast edge
//! sets one bit and copies nothing. Per-receiver sends, forged and
//! rescheduled payloads live in dense slabs indexed by the counterparty's
//! [`ProcessId`], with no per-message tree allocation.
//!
//! Every view iterates in ascending-id order (the `BTreeMap` order the proof
//! machinery relies on), and every observable behavior (iteration order,
//! equality, length, drain semantics) is identical to the equivalent
//! per-receiver sends and deliveries.

use std::collections::BTreeMap;
use std::fmt;
use std::iter::Chain;
use std::slice;

use crate::ids::ProcessId;
use crate::protocol::ProcessCtx;
use crate::value::Payload;

/// Number of inline 64-bit words in a [`ReceiverMask`] — 256 receivers
/// without touching the heap, which covers every benchmark grid (n ≤ 256).
const MASK_INLINE_WORDS: usize = 4;

/// A dense set of receiver ids backed by a fixed inline bitset (256 bits)
/// with a heap spill for larger systems. Ascending-id iteration matches the
/// slab/`BTreeMap` order the proof machinery relies on.
///
/// Equality compares the sets: spill words that are missing or zero are the
/// same empty words.
#[derive(Clone, Debug, Default)]
pub struct ReceiverMask {
    lo: [u64; MASK_INLINE_WORDS],
    hi: Vec<u64>,
    count: usize,
}

impl ReceiverMask {
    /// An empty mask. No heap allocation until a bit ≥ 256 is set.
    pub fn new() -> Self {
        ReceiverMask::default()
    }

    /// Every id in `0..n` except `me` — the legal receivers of `me`'s
    /// messages, the same set as [`ProcessCtx::others`] — filled a whole
    /// word at a time.
    #[inline]
    pub fn all_but(n: usize, me: ProcessId) -> Self {
        let spill = n.div_ceil(64).saturating_sub(MASK_INLINE_WORDS);
        let mut mask = ReceiverMask {
            lo: [0; MASK_INLINE_WORDS],
            hi: vec![0; spill],
            count: n,
        };
        for w in 0..n / 64 {
            *mask.word_mut(w) = u64::MAX;
        }
        if n % 64 != 0 {
            *mask.word_mut(n / 64) = (1 << (n % 64)) - 1;
        }
        mask.remove(me);
        mask
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w < MASK_INLINE_WORDS {
            self.lo[w]
        } else {
            self.hi.get(w - MASK_INLINE_WORDS).copied().unwrap_or(0)
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < MASK_INLINE_WORDS {
            &mut self.lo[w]
        } else {
            self.spill_mut(w - MASK_INLINE_WORDS)
        }
    }

    /// The `i`-th spill word, growing the spill to hold it.
    fn spill_mut(&mut self, i: usize) -> &mut u64 {
        if i >= self.hi.len() {
            self.hi.resize(i + 1, 0);
        }
        &mut self.hi[i]
    }

    fn word_count(&self) -> usize {
        MASK_INLINE_WORDS + self.hi.len()
    }

    /// Inserts `id`, returning `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let word = self.word_mut(w);
        let fresh = *word & (1 << b) == 0;
        *word |= 1 << b;
        // A branch, not `count += fresh as usize`: rustc 1.95.0 with MIR
        // optimizations on (release) miscompiles that cast once this is
        // inlined into a caller that branches on the result, leaving the
        // count unchanged.
        if fresh {
            self.count += 1;
        }
        fresh
    }

    /// Removes `id`, returning `true` iff it was present.
    #[inline]
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.word_count() {
            return false;
        }
        let word = self.word_mut(w);
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        // A branch for the reason given in `insert`.
        if present {
            self.count -= 1;
        }
        present
    }

    /// Removes every id, keeping the spill words for reuse.
    pub(crate) fn clear(&mut self) {
        if self.count != 0 {
            self.lo = [0; MASK_INLINE_WORDS];
            // Guarded: an empty fill still costs a `memset` call.
            if !self.hi.is_empty() {
                self.hi.fill(0);
            }
            self.count = 0;
        }
    }

    /// `true` iff `id` is in the mask.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.word(w) & (1 << b) != 0
    }

    /// Number of ids in the mask.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` iff no id is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The highest id in the mask, if any — the executor's O(1) receiver
    /// range check.
    pub fn max_id(&self) -> Option<ProcessId> {
        for w in (0..self.word_count()).rev() {
            let word = self.word(w);
            if word != 0 {
                return Some(ProcessId(w * 64 + 63 - word.leading_zeros() as usize));
            }
        }
        None
    }

    /// The position of `id` in ascending iteration order, if present —
    /// the count of set bits below it. Lets fan-out deciders patch a
    /// pre-filled decision vector instead of testing every receiver.
    pub fn rank(&self, id: ProcessId) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mut rank = 0usize;
        for prior in 0..w {
            rank += self.word(prior).count_ones() as usize;
        }
        rank += (self.word(w) & ((1u64 << b) - 1)).count_ones() as usize;
        Some(rank)
    }

    /// Iterates the ids in ascending order.
    #[inline]
    pub fn iter(&self) -> ReceiverMaskIter<'_> {
        ReceiverMaskIter {
            words: self.lo.iter().chain(&self.hi),
            base: 0usize.wrapping_sub(64),
            bits: 0,
        }
    }
}

impl PartialEq for ReceiverMask {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && (0..self.word_count().max(other.word_count())).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for ReceiverMask {}

impl FromIterator<ProcessId> for ReceiverMask {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut mask = ReceiverMask::new();
        for id in iter {
            mask.insert(id);
        }
        mask
    }
}

/// Ascending iterator over the ids of a [`ReceiverMask`].
pub struct ReceiverMaskIter<'a> {
    /// The words in ascending order, inline then spilled.
    words: Chain<slice::Iter<'a, u64>, slice::Iter<'a, u64>>,
    /// The first id of the current word.
    base: usize,
    /// The current word's ids not yet yielded.
    bits: u64,
}

impl ReceiverMaskIter<'_> {
    /// Moves to the next non-empty word; `false` once there is none.
    fn advance(&mut self) -> bool {
        while self.bits == 0 {
            let Some(&word) = self.words.next() else {
                return false;
            };
            self.bits = word;
            self.base = self.base.wrapping_add(64);
        }
        true
    }
}

impl Iterator for ReceiverMaskIter<'_> {
    type Item = ProcessId;

    #[inline]
    fn next(&mut self) -> Option<ProcessId> {
        if self.bits == 0 && !self.advance() {
            return None;
        }
        let id = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(ProcessId(id))
    }
}

/// A dense slab of at-most-one message per counterparty, indexed by
/// [`ProcessId`]. Backs the per-receiver part of [`Outbox`] and the owned
/// part of [`Inbox`].
#[derive(Clone, Debug)]
struct Slab<M> {
    slots: Vec<Option<M>>,
    len: usize,
}

impl<M> Slab<M> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        Slab { slots, len: 0 }
    }

    /// Inserts, returning the previous occupant of the slot.
    fn insert(&mut self, id: ProcessId, msg: M) -> Option<M> {
        let idx = id.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(msg);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    fn get(&self, id: ProcessId) -> Option<&M> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    fn remove(&mut self, id: ProcessId) -> Option<M> {
        let taken = self.slots.get_mut(id.index()).and_then(Option::take);
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// The occupied slots, or none at all when the slab is empty (quiescent
    /// tail rounds hit this constantly).
    fn occupied(&self) -> &[Option<M>] {
        if self.len == 0 {
            &[]
        } else {
            &self.slots
        }
    }

    /// Iterates occupied slots in ascending-id order.
    fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.occupied()
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (ProcessId(i), m)))
    }

    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }
}

/// The occupied slots among the 64 ids from `base`, as a word of bits.
fn occupied_bits<M>(slots: &[Option<M>], base: usize) -> u64 {
    slots
        .get(base..)
        .unwrap_or(&[])
        .iter()
        .take(64)
        .enumerate()
        .fold(0, |bits, (i, slot)| bits | (slot.is_some() as u64) << i)
}

impl<M> FromIterator<(ProcessId, M)> for Slab<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let mut slab = Slab::new();
        for (id, msg) in iter {
            slab.insert(id, msg);
        }
        slab
    }
}

/// One broadcast: a single payload plus the dense set of its receivers.
#[derive(Clone, Debug)]
struct Broadcast<M> {
    msg: M,
    mask: ReceiverMask,
}

/// The set of messages a process emits for one round, keyed by receiver.
///
/// A broadcast ([`Outbox::broadcast`], [`Outbox::broadcast_to_others`]) is
/// stored as *one* payload plus a receiver bitmask; per-receiver sends live
/// in a dense slab. The two parts are kept disjoint and every observable
/// view (iteration, drain, equality, length) presents their merged contents
/// in ascending receiver order, so a broadcast outbox is indistinguishable
/// from the equivalent per-receiver one.
///
/// ```
/// use ba_sim::{Outbox, ProcessId};
/// let mut out = Outbox::new();
/// out.send(ProcessId(1), "hello");
/// out.send(ProcessId(2), "world");
/// assert_eq!(out.len(), 2);
///
/// let mut bcast = Outbox::new();
/// bcast.broadcast([ProcessId(1), ProcessId(2)], "hello");
/// assert_eq!(bcast.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    msgs: Slab<M>,
    bcast: Option<Broadcast<M>>,
}

impl<M: Payload> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            msgs: Slab::new(),
            bcast: None,
        }
    }

    /// Creates an empty outbox pre-sized for an `n`-process system, so no
    /// slot growth happens while sending.
    pub fn with_capacity(n: usize) -> Self {
        Outbox {
            msgs: Slab::with_capacity(n),
            bcast: None,
        }
    }

    /// Queues `msg` for delivery to `to` in this round.
    ///
    /// # Panics
    ///
    /// Panics if a message for `to` was already queued (by [`send`] or by a
    /// [`broadcast`] covering `to`): the model allows at most one message per
    /// (sender, receiver, round), so a duplicate send is a protocol bug.
    ///
    /// [`send`]: Outbox::send
    /// [`broadcast`]: Outbox::broadcast
    pub fn send(&mut self, to: ProcessId, msg: M) -> &mut Self {
        let covered = self.bcast.as_ref().is_some_and(|b| b.mask.contains(to));
        assert!(!covered, "duplicate message to {to} in one round");
        let prev = self.msgs.insert(to, msg);
        assert!(prev.is_none(), "duplicate message to {to} in one round");
        self
    }

    /// Queues **one** copy of `msg` for every process in `peers`, stored as a
    /// single payload plus a receiver bitmask — the zero-clone broadcast
    /// primitive. The executor fans it out by reference and delivers it
    /// without copying it per receiver.
    ///
    /// A second broadcast in the same round falls back to per-receiver
    /// clones, preserving the one-message-per-receiver rule.
    ///
    /// # Panics
    ///
    /// Panics if any peer already has a queued message.
    pub fn broadcast<I>(&mut self, peers: I, msg: M) -> &mut Self
    where
        I: IntoIterator<Item = ProcessId>,
    {
        if self.bcast.is_some() {
            // Rare: a protocol broadcasting twice in one round (disjoint
            // groups). Keep the legacy per-receiver representation.
            for peer in peers {
                self.send(peer, msg.clone());
            }
            return self;
        }
        let mut mask = ReceiverMask::new();
        if self.msgs.len == 0 {
            // Common case (pure broadcast round): no queued unicasts to
            // collide with, so only the mask needs checking.
            for peer in peers {
                assert!(
                    mask.insert(peer),
                    "duplicate message to {peer} in one round"
                );
            }
        } else {
            for peer in peers {
                assert!(
                    self.msgs.get(peer).is_none() && mask.insert(peer),
                    "duplicate message to {peer} in one round"
                );
            }
        }
        if !mask.is_empty() {
            self.bcast = Some(Broadcast { msg, mask });
        }
        self
    }

    /// Queues `msg` for every process except the sender — exactly
    /// `broadcast(ctx.others(), msg)`, but the receiver mask is filled a
    /// word at a time ([`ReceiverMask::all_but`]) instead of bit by bit.
    ///
    /// # Panics
    ///
    /// Panics, with [`broadcast`](Outbox::broadcast)'s message, if any peer
    /// already has a queued message.
    pub fn broadcast_to_others(&mut self, ctx: &ProcessCtx, msg: M) -> &mut Self {
        if self.bcast.is_some() || self.msgs.len != 0 {
            return self.broadcast(ctx.others(), msg);
        }
        let mask = ReceiverMask::all_but(ctx.n, ctx.id);
        if !mask.is_empty() {
            self.bcast = Some(Broadcast { msg, mask });
        }
        self
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len + self.bcast.as_ref().map_or(0, |b| b.mask.len())
    }

    /// `true` iff no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest receiver index that could be occupied.
    fn upper(&self) -> usize {
        let slab = self.msgs.slots.len();
        let mask = self
            .bcast
            .as_ref()
            .and_then(|b| b.mask.max_id())
            .map_or(0, |p| p.index() + 1);
        slab.max(mask)
    }

    /// Iterates over `(receiver, payload)` pairs in receiver order, merging
    /// the broadcast (if any) with per-receiver sends.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        let bcast = self.bcast.as_ref();
        (0..self.upper()).filter_map(move |i| {
            if let Some(m) = self.msgs.slots.get(i).and_then(Option::as_ref) {
                return Some((ProcessId(i), m));
            }
            bcast
                .filter(|b| b.mask.contains(ProcessId(i)))
                .map(|b| (ProcessId(i), &b.msg))
        })
    }

    /// Removes and yields every queued message in receiver order, leaving
    /// the outbox empty (capacity intact). Broadcast payloads are cloned per
    /// receiver (the last one is moved); the executor's routing loop
    /// detaches the broadcast and fans it out by reference instead.
    pub fn drain(&mut self) -> OutboxDrain<'_, M> {
        let upper = self.upper();
        OutboxDrain {
            out: self,
            idx: 0,
            upper,
        }
    }

    /// Removes the message queued for `to`, if any. The executor's
    /// scheduling path uses this to route messages in an adversary-chosen
    /// order while the payloads stay in their dense slabs.
    pub(crate) fn take(&mut self, to: ProcessId) -> Option<M> {
        if let Some(m) = self.msgs.remove(to) {
            return Some(m);
        }
        if self.bcast.as_mut().is_some_and(|b| b.mask.remove(to)) {
            let empty = self.bcast.as_ref().is_some_and(|b| b.mask.is_empty());
            return Some(if empty {
                self.bcast.take().expect("checked above").msg
            } else {
                self.bcast.as_ref().expect("checked above").msg.clone()
            });
        }
        None
    }

    /// Detaches the broadcast part, if any, leaving only per-receiver sends
    /// behind. The executor's fast path fans the returned payload out by
    /// reference instead of draining clones.
    pub(crate) fn take_broadcast(&mut self) -> Option<(M, ReceiverMask)> {
        self.bcast.take().map(|b| (b.msg, b.mask))
    }

    /// The broadcast payload and receiver mask, if a broadcast is queued.
    pub fn broadcast_part(&self) -> Option<(&M, &ReceiverMask)> {
        self.bcast.as_ref().map(|b| (&b.msg, &b.mask))
    }

    /// Number of messages queued via per-receiver [`send`](Outbox::send)
    /// (excluding the broadcast part).
    pub(crate) fn unicast_len(&self) -> usize {
        self.msgs.len
    }

    /// Iterates the per-receiver sends only (excluding the broadcast part),
    /// in receiver order.
    pub(crate) fn unicast_iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.msgs.iter()
    }

    /// Rewrites the broadcast (if any) as per-receiver clones — the
    /// representation the pre-broadcast engine used. Observable behavior is
    /// unchanged; the equivalence suite uses this to pin the broadcast path
    /// against the cloning path bit-for-bit.
    pub fn materialize_broadcast(&mut self) {
        if let Some(b) = self.bcast.take() {
            for to in b.mask.iter() {
                let prev = self.msgs.insert(to, b.msg.clone());
                debug_assert!(prev.is_none(), "mask and slab must stay disjoint");
            }
        }
    }

    /// Consumes the outbox, yielding its receiver → payload map.
    pub fn into_inner(mut self) -> BTreeMap<ProcessId, M> {
        self.drain().collect()
    }

    /// Merges another outbox into this one using `combine` to resolve
    /// receivers addressed by both.
    ///
    /// Used by parallel-composition combinators that must fold the outboxes
    /// of several sub-protocol instances into one physical message per
    /// receiver.
    pub fn merge_with<F>(&mut self, mut other: Outbox<M>, mut combine: F)
    where
        F: FnMut(M, M) -> M,
    {
        for (to, msg) in other.drain() {
            match self.take(to) {
                None => {
                    self.msgs.insert(to, msg);
                }
                Some(existing) => {
                    self.msgs.insert(to, combine(existing, msg));
                }
            }
        }
    }
}

impl<M: Payload> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M: Payload> PartialEq for Outbox<M> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<M: Payload> Eq for Outbox<M> {}

impl<M: Payload> FromIterator<(ProcessId, M)> for Outbox<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let mut out = Outbox::new();
        for (to, msg) in iter {
            out.send(to, msg);
        }
        out
    }
}

/// Draining iterator over an [`Outbox`], in receiver order (see
/// [`Outbox::drain`]).
pub struct OutboxDrain<'a, M: Payload> {
    out: &'a mut Outbox<M>,
    idx: usize,
    upper: usize,
}

impl<M: Payload> Iterator for OutboxDrain<'_, M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<Self::Item> {
        while self.idx < self.upper {
            let to = ProcessId(self.idx);
            self.idx += 1;
            if let Some(m) = self.out.msgs.remove(to) {
                return Some((to, m));
            }
            if self.out.bcast.as_mut().is_some_and(|b| b.mask.remove(to)) {
                let empty = self.out.bcast.as_ref().is_some_and(|b| b.mask.is_empty());
                let msg = if empty {
                    self.out.bcast.take().expect("checked above").msg
                } else {
                    self.out.bcast.as_ref().expect("checked above").msg.clone()
                };
                return Some((to, msg));
            }
        }
        None
    }
}

/// Owning iterator over an [`Outbox`], in receiver order.
pub struct OutboxIntoIter<M> {
    inner: std::vec::IntoIter<(ProcessId, M)>,
}

impl<M> Iterator for OutboxIntoIter<M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl<M: Payload> IntoIterator for Outbox<M> {
    type Item = (ProcessId, M);
    type IntoIter = OutboxIntoIter<M>;

    fn into_iter(mut self) -> Self::IntoIter {
        OutboxIntoIter {
            inner: self.drain().collect::<Vec<_>>().into_iter(),
        }
    }
}

/// The set of messages a process receives in one round, keyed by sender.
///
/// Receive-omitted messages never appear here: an inbox holds exactly the
/// messages the process's state machine observes, which is what the paper's
/// indistinguishability relation compares.
///
/// An inbox has two disjoint parts. Broadcast payloads stay in the round's
/// table, which holds one payload per sender and lives for `'r`; the inbox
/// keeps only a bitmask of the senders whose table payload it got. Unicast,
/// forged and rescheduled payloads are owned, in a dense slab. Every view
/// (iteration, lookup, length, equality, drain) presents the union in
/// ascending sender order, so how a message arrived is unobservable.
#[derive(Clone)]
pub struct Inbox<'r, M> {
    table: &'r [Option<M>],
    shared: ReceiverMask,
    owned: Slab<M>,
}

impl<'r, M: Payload> Inbox<'r, M> {
    /// Creates an empty inbox.
    pub fn new() -> Self {
        Inbox {
            table: &[],
            shared: ReceiverMask::new(),
            owned: Slab::new(),
        }
    }

    /// Builds an inbox from a sender → payload map.
    pub fn from_map(msgs: BTreeMap<ProcessId, M>) -> Self {
        Inbox {
            owned: msgs.into_iter().collect(),
            ..Inbox::new()
        }
    }

    /// Delivers `msg` from `sender` into this inbox, replacing any earlier
    /// delivery from the same sender (the executor routes at most one).
    pub fn deliver(&mut self, sender: ProcessId, msg: M) {
        self.shared.remove(sender);
        self.owned.insert(sender, msg);
    }

    /// Delivers `sender`'s payload in the round's table: one bit, no copy.
    /// The executor routes at most one message per sender and receiver, so
    /// `sender` has no owned delivery to displace.
    #[inline]
    pub(crate) fn deliver_shared(&mut self, sender: ProcessId) {
        debug_assert!(self.owned.get(sender).is_none(), "one message per sender");
        self.shared.insert(sender);
    }

    /// Sizes the owned slab for senders `0..n`, so owned deliveries do not
    /// regrow it.
    pub(crate) fn reserve(&mut self, n: usize) {
        if self.owned.slots.len() < n {
            self.owned.slots.resize_with(n, || None);
        }
    }

    /// Points the shared part at the round's table, whose slot of every
    /// sender in the bitmask holds that sender's payload.
    pub(crate) fn attach(mut self, table: &'r [Option<M>]) -> Self {
        self.table = table;
        self
    }

    /// Releases the round's table, so the emptied buffers can be kept
    /// across rounds while the table is refilled.
    pub(crate) fn detach(self) -> Inbox<'static, M> {
        debug_assert!(self.shared.is_empty(), "detach an emptied inbox");
        Inbox {
            table: &[],
            shared: self.shared,
            owned: self.owned,
        }
    }

    /// The message received from `sender` in this round, if any.
    pub fn from_sender(&self, sender: ProcessId) -> Option<&M> {
        if self.shared.contains(sender) {
            Some(filled(self.table, sender))
        } else {
            self.owned.get(sender)
        }
    }

    /// The number of received messages.
    pub fn len(&self) -> usize {
        self.shared.len() + self.owned.len
    }

    /// `true` iff nothing was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(sender, payload)` pairs in sender order, without
    /// allocating.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        let owned = self.owned.occupied();
        InboxIter {
            table: self.table,
            shared: &self.shared,
            owned,
            cursor: Cursor::new(self.len(), &self.shared, owned),
        }
    }

    /// Iterates over the senders heard from this round.
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Clones the contents into a sender → payload map.
    pub fn to_map(&self) -> BTreeMap<ProcessId, M> {
        self.iter().map(|(p, m)| (p, m.clone())).collect()
    }

    /// Removes and yields every received message in sender order, leaving
    /// the inbox empty (capacity intact) when run to completion. Owned
    /// payloads are moved out; payloads in the round's table are cloned, so
    /// a [`TraceSink`](crate::TraceSink) that keeps them pays one clone per
    /// received message. Each yielded message is removed as it is yielded,
    /// so dropping the iterator early leaves the rest counted and iterable.
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        InboxDrain {
            table: self.table,
            cursor: Cursor::new(self.len(), &self.shared, &self.owned.slots),
            shared: &mut self.shared,
            owned: &mut self.owned,
        }
    }

    /// Empties the inbox, dropping all owned payloads (capacity intact).
    pub fn clear(&mut self) {
        self.shared.clear();
        self.owned.clear();
    }

    /// Consumes the inbox, yielding its sender → payload map.
    pub fn into_inner(mut self) -> BTreeMap<ProcessId, M> {
        self.drain().collect()
    }
}

impl<M: Payload> Default for Inbox<'_, M> {
    fn default() -> Self {
        Inbox::new()
    }
}

impl<M: Payload> PartialEq for Inbox<'_, M> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<M: Payload> Eq for Inbox<'_, M> {}

/// Shows the received messages only, never the rest of the round's table.
impl<M: Payload> fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One ascending walk over an inbox's two parts in lockstep, a word of 64
/// ids at a time, telling for each id which part holds its payload. Nothing
/// is compared or peeked across the parts, and with nothing owned (every
/// pure-broadcast round) only the shared bitmask is walked. Backs both
/// [`Inbox::iter`] and [`Inbox::drain`].
struct Cursor {
    /// Ids not yet yielded, so the walk stops at the last one.
    remaining: usize,
    /// The first id of the current word.
    base: usize,
    /// The current word's ids not yet yielded, both parts.
    bits: u64,
    /// The owned part's ids of the current word.
    owned_bits: u64,
}

impl Cursor {
    /// A walk over `remaining` ids. The first word is loaded here, so an
    /// inbox of at most 64 senders never advances.
    fn new<M>(remaining: usize, shared: &ReceiverMask, owned: &[Option<M>]) -> Self {
        let owned_bits = occupied_bits(owned, 0);
        Cursor {
            remaining,
            base: 0,
            bits: shared.word(0) | owned_bits,
            owned_bits,
        }
    }

    /// The next id, and `true` iff the owned part holds its payload.
    #[inline]
    fn next<M>(&mut self, shared: &ReceiverMask, owned: &[Option<M>]) -> Option<(ProcessId, bool)> {
        if self.remaining == 0 || (self.bits == 0 && !self.advance(shared, owned)) {
            return None;
        }
        self.remaining -= 1;
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((ProcessId(self.base + b), self.owned_bits >> b & 1 != 0))
    }

    /// Moves to the next word with an id in either part; `false` once
    /// there is none.
    #[inline(never)]
    fn advance<M>(&mut self, shared: &ReceiverMask, owned: &[Option<M>]) -> bool {
        while self.bits == 0 {
            self.base += 64;
            if self.base / 64 >= shared.word_count() && self.base >= owned.len() {
                return false;
            }
            self.owned_bits = occupied_bits(owned, self.base);
            self.bits = shared.word(self.base / 64) | self.owned_bits;
        }
        true
    }
}

/// The payload in `sender`'s slot, which an inbox bit marks as filled.
#[inline]
fn filled<M>(slots: &[Option<M>], sender: ProcessId) -> &M {
    slots[sender.index()]
        .as_ref()
        .expect("an inbox bit marks a filled slot")
}

/// [`Inbox::iter`]: reads each payload from the part its id belongs to.
struct InboxIter<'a, M> {
    table: &'a [Option<M>],
    shared: &'a ReceiverMask,
    /// The owned slots; empty when nothing is owned.
    owned: &'a [Option<M>],
    cursor: Cursor,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (ProcessId, &'a M);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (sender, owned) = self.cursor.next(self.shared, self.owned)?;
        let slots = if owned { self.owned } else { self.table };
        Some((sender, filled(slots, sender)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.cursor.remaining, Some(self.cursor.remaining))
    }
}

/// [`Inbox::drain`]: removes each id from the inbox as it is yielded.
struct InboxDrain<'a, M> {
    table: &'a [Option<M>],
    shared: &'a mut ReceiverMask,
    owned: &'a mut Slab<M>,
    cursor: Cursor,
}

impl<M: Clone> Iterator for InboxDrain<'_, M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<Self::Item> {
        let (sender, owned) = self.cursor.next(self.shared, &self.owned.slots)?;
        if owned {
            let payload = self.owned.remove(sender).expect("an occupied slot");
            return Some((sender, payload));
        }
        self.shared.remove(sender);
        Some((sender, filled(self.table, sender).clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn outbox_records_messages_by_receiver() {
        let mut out = Outbox::new();
        out.send(ProcessId(2), 7u32).send(ProcessId(0), 9u32);
        let pairs: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(pairs, vec![(ProcessId(0), 9), (ProcessId(2), 7)]);
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn outbox_rejects_duplicate_receiver() {
        let mut out = Outbox::new();
        out.send(ProcessId(1), 1u32);
        out.send(ProcessId(1), 2u32);
    }

    #[test]
    fn broadcast_stores_one_payload_with_mask() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(2), ProcessId(5)], "b");
        assert_eq!(out.len(), 3);
        let (msg, mask) = out.broadcast_part().expect("broadcast queued");
        assert_eq!(*msg, "b");
        assert_eq!(mask.len(), 3);
        assert_eq!(
            out.iter().map(|(p, m)| (p, *m)).collect::<Vec<_>>(),
            vec![
                (ProcessId(0), "b"),
                (ProcessId(2), "b"),
                (ProcessId(5), "b")
            ]
        );
    }

    #[test]
    fn broadcast_equals_per_receiver_sends() {
        let mut bcast: Outbox<u8> = Outbox::new();
        bcast.broadcast([ProcessId(1), ProcessId(3)], 9);
        let mut unicast: Outbox<u8> = Outbox::new();
        unicast.send(ProcessId(1), 9).send(ProcessId(3), 9);
        assert_eq!(bcast, unicast);
        assert_eq!(unicast, bcast);

        // Materializing the broadcast changes nothing observable.
        let mut materialized = bcast.clone();
        materialized.materialize_broadcast();
        assert!(materialized.broadcast_part().is_none());
        assert_eq!(materialized, bcast);
    }

    #[test]
    fn broadcast_and_unicast_merge_in_ascending_order() {
        let mut out: Outbox<&str> = Outbox::new();
        out.send(ProcessId(2), "uni");
        out.broadcast([ProcessId(0), ProcessId(4)], "bc");
        assert_eq!(out.len(), 3);
        let view: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            view,
            vec![
                (ProcessId(0), "bc"),
                (ProcessId(2), "uni"),
                (ProcessId(4), "bc")
            ]
        );
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(
            drained,
            vec![
                (ProcessId(0), "bc"),
                (ProcessId(2), "uni"),
                (ProcessId(4), "bc")
            ]
        );
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn broadcast_rejects_receiver_with_queued_send() {
        let mut out = Outbox::new();
        out.send(ProcessId(1), 1u32);
        out.broadcast([ProcessId(0), ProcessId(1)], 2u32);
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn send_rejects_receiver_covered_by_broadcast() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(1)], 2u32);
        out.send(ProcessId(1), 1u32);
    }

    #[test]
    fn second_broadcast_falls_back_to_clones() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0)], "a");
        out.broadcast([ProcessId(1), ProcessId(2)], "b");
        assert_eq!(out.len(), 3);
        let view: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            view,
            vec![
                (ProcessId(0), "a"),
                (ProcessId(1), "b"),
                (ProcessId(2), "b")
            ]
        );
    }

    #[test]
    fn take_clears_mask_bits_and_moves_last_payload() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(2)], "b");
        assert_eq!(out.take(ProcessId(1)), None);
        assert_eq!(out.take(ProcessId(0)), Some("b"));
        assert_eq!(out.len(), 1);
        assert_eq!(out.take(ProcessId(2)), Some("b"));
        assert!(out.is_empty());
        assert!(out.broadcast_part().is_none());
    }

    #[test]
    fn receiver_mask_tracks_membership_and_order() {
        let mut mask = ReceiverMask::new();
        assert!(mask.is_empty());
        assert!(mask.insert(ProcessId(300)));
        assert!(mask.insert(ProcessId(3)));
        assert!(!mask.insert(ProcessId(3)));
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(ProcessId(300)));
        assert!(!mask.contains(ProcessId(299)));
        assert_eq!(mask.max_id(), Some(ProcessId(300)));
        assert_eq!(
            mask.iter().collect::<Vec<_>>(),
            vec![ProcessId(3), ProcessId(300)]
        );
        assert!(mask.remove(ProcessId(300)));
        assert!(!mask.remove(ProcessId(300)));
        assert_eq!(mask.max_id(), Some(ProcessId(3)));
        assert_eq!(mask.len(), 1);
    }

    #[test]
    fn huge_n_broadcast_round_trips_through_spill_words() {
        let n = 700;
        let mut out: Outbox<u16> = Outbox::new();
        out.broadcast((0..n).map(ProcessId), 1);
        assert_eq!(out.len(), n);
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained.len(), n);
        assert!(drained
            .iter()
            .enumerate()
            .all(|(i, (p, m))| p.index() == i && *m == 1));
    }

    #[test]
    fn merge_with_combines_collisions() {
        let mut a: Outbox<u32> = [(ProcessId(0), 1), (ProcessId(1), 2)].into_iter().collect();
        let b: Outbox<u32> = [(ProcessId(1), 10), (ProcessId(2), 20)]
            .into_iter()
            .collect();
        a.merge_with(b, |x, y| x + y);
        let pairs: Vec<_> = a.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            pairs,
            vec![(ProcessId(0), 1), (ProcessId(1), 12), (ProcessId(2), 20)]
        );
    }

    #[test]
    fn inbox_lookup_by_sender() {
        let inbox = Inbox::from_map([(ProcessId(3), "m")].into_iter().collect());
        assert_eq!(inbox.from_sender(ProcessId(3)), Some(&"m"));
        assert_eq!(inbox.from_sender(ProcessId(1)), None);
        assert_eq!(inbox.senders().collect::<Vec<_>>(), vec![ProcessId(3)]);
    }

    #[test]
    fn empty_boxes_report_empty() {
        assert!(Outbox::<u8>::new().is_empty());
        assert!(Inbox::<u8>::new().is_empty());
    }

    #[test]
    fn equality_ignores_slab_capacity() {
        // The same semantic content must compare equal regardless of how the
        // backing slab grew (trailing empty slots are invisible).
        let mut grown: Outbox<u8> = Outbox::with_capacity(64);
        grown.send(ProcessId(1), 5);
        let mut tight: Outbox<u8> = Outbox::new();
        tight.send(ProcessId(1), 5);
        assert_eq!(grown, tight);

        let mut big = Inbox::new();
        big.deliver(ProcessId(300), 1u8);
        assert_eq!(big.drain().count(), 1);
        big.deliver(ProcessId(2), 9u8);
        let mut small = Inbox::new();
        small.deliver(ProcessId(2), 9u8);
        assert_eq!(big, small);
        big.clear();
        assert_ne!(big, small);
        assert_eq!(big, Inbox::new());
    }

    #[test]
    fn drain_empties_and_preserves_order() {
        let mut out: Outbox<u8> = [(ProcessId(3), 3), (ProcessId(0), 0), (ProcessId(5), 5)]
            .into_iter()
            .collect();
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(
            drained,
            vec![(ProcessId(0), 0), (ProcessId(3), 3), (ProcessId(5), 5)]
        );
        assert!(out.is_empty());
        // The outbox is reusable after draining.
        out.send(ProcessId(1), 7);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn inbox_drain_and_reuse_round_trip() {
        let mut inbox = Inbox::new();
        inbox.deliver(ProcessId(2), "b");
        inbox.deliver(ProcessId(0), "a");
        assert_eq!(inbox.len(), 2);
        let drained: Vec<_> = inbox.drain().collect();
        assert_eq!(drained, vec![(ProcessId(0), "a"), (ProcessId(2), "b")]);
        assert!(inbox.is_empty());
        inbox.deliver(ProcessId(3), "c");
        assert_eq!(inbox.to_map().len(), 1);
        assert_eq!(inbox.into_inner().len(), 1);
    }

    #[test]
    fn partially_consumed_drain_leaves_the_slab_consistent() {
        // A custom TraceSink may drop a drain iterator early; the remaining
        // messages must stay counted, iterable, and clearable.
        let mut inbox: Inbox<u8> = Inbox::new();
        inbox.deliver(ProcessId(0), 10);
        inbox.deliver(ProcessId(2), 12);
        inbox.deliver(ProcessId(3), 13);
        let first = inbox.drain().next();
        assert_eq!(first, Some((ProcessId(0), 10)));
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let remaining: Vec<_> = inbox.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(remaining, vec![(ProcessId(2), 12), (ProcessId(3), 13)]);
        inbox.clear();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }

    #[test]
    fn into_iterator_moves_payloads_in_receiver_order() {
        let out: Outbox<u8> = [(ProcessId(4), 4), (ProcessId(1), 1)].into_iter().collect();
        let moved: Vec<_> = out.into_iter().collect();
        assert_eq!(moved, vec![(ProcessId(1), 1), (ProcessId(4), 4)]);
    }

    #[test]
    fn receiver_mask_equality_compares_sets_not_storage() {
        let mut shrunk: ReceiverMask = [ProcessId(1), ProcessId(300)].into_iter().collect();
        assert!(shrunk.remove(ProcessId(300)));
        let fresh: ReceiverMask = [ProcessId(1)].into_iter().collect();
        assert_eq!(shrunk, fresh);
        assert_eq!(fresh, shrunk);
        assert_ne!(shrunk, ReceiverMask::new());

        let mut cleared = ReceiverMask::all_but(700, ProcessId(3));
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared, ReceiverMask::new());
        assert_eq!(ReceiverMask::new(), cleared);
        assert_eq!(cleared.iter().next(), None);
        // A cleared mask is reusable in place.
        cleared.insert(ProcessId(650));
        assert_eq!(cleared, [ProcessId(650)].into_iter().collect());
    }

    #[test]
    fn all_but_matches_the_others_of_every_process() {
        for n in [1, 2, 63, 64, 65, 255, 256, 257, 700] {
            for me in ProcessId::all(n) {
                let ctx = ProcessCtx::new(me, n, 0);
                let words = ReceiverMask::all_but(n, me);
                let bits: ReceiverMask = ctx.others().collect();
                assert_eq!(words, bits, "n = {n}, me = {me}");
                assert_eq!(words.len(), n - 1);
                assert_eq!(words.max_id(), bits.max_id());
                assert!(words.iter().eq(ctx.others()));
            }
        }
    }

    #[test]
    fn broadcast_to_others_equals_broadcast_of_others() {
        for n in [1, 2, 63, 64, 65, 255, 256, 257, 700] {
            for me in ProcessId::all(n) {
                let ctx = ProcessCtx::new(me, n, 0);
                let mut words: Outbox<u16> = Outbox::new();
                words.broadcast_to_others(&ctx, 7);
                let mut bits: Outbox<u16> = Outbox::new();
                bits.broadcast(ctx.others(), 7);
                assert_eq!(words, bits, "n = {n}, me = {me}");
                assert_eq!(words.broadcast_part(), bits.broadcast_part());
                assert_eq!(words.len(), n - 1);

                // Fallback 1: a queued unicast (here to a non-peer id, which
                // the executor rejects later but the outbox accepts).
                let stray = ProcessId(n);
                let mut words: Outbox<u16> = Outbox::new();
                words.send(stray, 1).broadcast_to_others(&ctx, 7);
                let mut bits: Outbox<u16> = Outbox::new();
                bits.send(stray, 1).broadcast(ctx.others(), 7);
                assert_eq!(words, bits);
                assert_eq!(words.broadcast_part(), bits.broadcast_part());

                // Fallback 2: a broadcast already queued.
                let mut words: Outbox<u16> = Outbox::new();
                words.broadcast([stray], 1).broadcast_to_others(&ctx, 7);
                let mut bits: Outbox<u16> = Outbox::new();
                bits.broadcast([stray], 1).broadcast(ctx.others(), 7);
                assert_eq!(words, bits);
                assert_eq!(words.broadcast_part(), bits.broadcast_part());
                assert_eq!(words.len(), n);
            }
        }
    }

    #[test]
    fn broadcast_to_others_rejects_duplicates_like_broadcast() {
        fn panic_message(f: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("a duplicate receiver must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic message is a string")
        }
        let ctx = ProcessCtx::new(ProcessId(0), 70, 0);
        for queue in [
            (|out: &mut Outbox<u8>| {
                out.send(ProcessId(66), 1);
            }) as fn(&mut Outbox<u8>),
            |out| {
                out.broadcast([ProcessId(66)], 1);
            },
        ] {
            let words = panic_message(|| {
                let mut out = Outbox::new();
                queue(&mut out);
                out.broadcast_to_others(&ctx, 2);
            });
            let bits = panic_message(|| {
                let mut out = Outbox::new();
                queue(&mut out);
                out.broadcast(ctx.others(), 2);
            });
            assert_eq!(words, "duplicate message to p66 in one round");
            assert_eq!(words, bits);
        }
    }

    /// An inbox whose contents arrived over the shared path, the owned
    /// path, or both, plus the round table it reads and the expected map.
    fn random_inbox(
        rng: &mut SimRng,
        n: usize,
    ) -> (
        Vec<Option<u16>>,
        Inbox<'static, u16>,
        BTreeMap<ProcessId, u16>,
    ) {
        // 0: shared only, 1: owned only, 2: mixed.
        let path = rng.gen_index(0, 3);
        // Every sender broadcasts; this receiver hears a random subset.
        let table: Vec<Option<u16>> = (0..n).map(|_| Some(rng.gen_index(0, 5) as u16)).collect();
        let mut senders: Vec<ProcessId> = ProcessId::all(n).filter(|_| rng.gen_bool(0.6)).collect();
        rng.shuffle(&mut senders);
        let mut inbox = Inbox::new();
        let mut expected = BTreeMap::new();
        for sender in senders {
            let shared = match path {
                0 => true,
                1 => false,
                _ => rng.gen_bool(0.5),
            };
            let payload = if shared {
                inbox.deliver_shared(sender);
                table[sender.index()].expect("every sender broadcast")
            } else {
                let forged = 100 + rng.gen_index(0, 5) as u16;
                inbox.deliver(sender, forged);
                forged
            };
            expected.insert(sender, payload);
        }
        (table, inbox, expected)
    }

    #[test]
    fn shared_and_owned_deliveries_are_indistinguishable_from_a_map() {
        let mut rng = SimRng::seed_from_u64(0x1B0C);
        for _ in 0..300 {
            let n = [1, 3, 64, 65, 200, 256, 300][rng.gen_index(0, 7)];
            let (table, inbox, expected) = random_inbox(&mut rng, n);
            let mut inbox = inbox.attach(&table);
            let reference = Inbox::from_map(expected.clone());

            let pairs: Vec<_> = inbox.iter().map(|(p, m)| (p, *m)).collect();
            let want: Vec<_> = expected.iter().map(|(p, m)| (*p, *m)).collect();
            assert_eq!(pairs, want);
            assert!(inbox.iter().eq(reference.iter()));
            assert!(inbox.senders().eq(expected.keys().copied()));
            for p in ProcessId::all(n + 2) {
                assert_eq!(inbox.from_sender(p), reference.from_sender(p));
                assert_eq!(inbox.from_sender(p), expected.get(&p));
            }
            assert_eq!(inbox.len(), expected.len());
            assert_eq!(inbox.is_empty(), expected.is_empty());
            assert_eq!(inbox, reference);
            assert_eq!(reference, inbox);
            assert_eq!(inbox.to_map(), expected);
            // Debug shows what was received, not the rest of the table.
            assert_eq!(format!("{inbox:?}"), format!("{expected:?}"));

            // A partial drain removes exactly the yielded prefix.
            let k = rng.gen_index(0, expected.len() + 1);
            let mut copy = inbox.clone();
            let prefix: Vec<_> = copy.drain().take(k).collect();
            assert_eq!(prefix, want[..k]);
            assert_eq!(copy.len(), expected.len() - k);
            assert!(copy
                .iter()
                .map(|(p, m)| (p, *m))
                .eq(want[k..].iter().copied()));
            let rest: Vec<_> = copy.drain().collect();
            assert_eq!(rest, want[k..]);
            assert!(copy.is_empty());

            // A full drain yields the map; the emptied buffers are reusable.
            let drained: Vec<_> = inbox.drain().collect();
            assert_eq!(drained, want);
            assert!(inbox.is_empty());
            assert_eq!(inbox, Inbox::new());
            let mut reused = inbox.detach();
            reused.deliver_shared(ProcessId(0));
            let reused = reused.attach(&table);
            assert_eq!(reused.to_map(), [(ProcessId(0), table[0].unwrap())].into());
        }
    }

    #[test]
    fn clear_empties_both_parts() {
        let mut rng = SimRng::seed_from_u64(7);
        let (table, inbox, expected) = random_inbox(&mut rng, 300);
        assert!(!expected.is_empty());
        let mut inbox = inbox.attach(&table);
        inbox.clear();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
        assert_eq!(inbox, Inbox::new());
    }
}
