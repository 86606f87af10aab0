//! Exponential information gathering (EIG) — unauthenticated Byzantine
//! agreement for `n > 3t` (Lamport-Shostak-Pease \[78\]; formulation follows
//! Lynch, *Distributed Algorithms* \[82\]).
//!
//! Both variants run `t + 1` rounds and resolve the EIG tree bottom-up with
//! strict-majority voting:
//!
//! * [`EigConsensus`] — every process broadcasts its proposal in round 1;
//!   satisfies **Strong Validity** (if all correct processes propose `v`,
//!   `v` is decided).
//! * [`EigBroadcast`] — only a designated general broadcasts; satisfies
//!   **Sender Validity** (if the general is correct, its value is decided).
//!   One instance per sender, composed with
//!   [`crate::ParallelInstances`], yields *unauthenticated interactive
//!   consistency* — the `n > 3t` branch of the paper's Theorem 4.
//!
//! Message payloads grow exponentially with `t` (each round relays a full
//! tree level), which is the protocol's historical name and the reason it is
//! exercised at small `n` here; message *count* is `(t + 1)·n·(n − 1)`.

use std::collections::BTreeMap;

use ba_sim::{Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round, Value};

/// A label in the EIG tree: the sequence of distinct processes that relayed
/// a value, in order. The empty path is the root.
pub type Path = Vec<ProcessId>;

/// One round's relay: a map from tree path (of the previous level) to the
/// value the sender attributes to it.
pub type EigMsg<V> = BTreeMap<Path, V>;

/// Which agreement problem the EIG tree is solving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scope {
    /// All processes seed the tree (strong consensus).
    Consensus,
    /// Only the designated general seeds the tree (Byzantine generals).
    Broadcast(ProcessId),
}

impl Scope {
    /// Whether a non-empty path may exist under this scope.
    fn admits(self, path: &[ProcessId]) -> bool {
        match self {
            Scope::Consensus => true,
            Scope::Broadcast(g) => path.first() == Some(&g),
        }
    }
}

#[derive(Clone, Debug)]
struct EigCore<V> {
    scope: Scope,
    default: V,
    vals: BTreeMap<Path, V>,
    decision: Option<V>,
}

impl<V: Value> EigCore<V> {
    fn new(scope: Scope, default: V) -> Self {
        EigCore {
            scope,
            default,
            vals: BTreeMap::new(),
            decision: None,
        }
    }

    fn last_round(ctx: &ProcessCtx) -> u64 {
        ctx.t as u64 + 1
    }

    fn propose(&mut self, ctx: &ProcessCtx, proposal: V) -> Outbox<EigMsg<V>> {
        let mut out = Outbox::new();
        let seeds = match self.scope {
            Scope::Consensus => true,
            Scope::Broadcast(g) => ctx.id == g,
        };
        if seeds {
            // Level-1 node for ourselves (we do not send to ourselves).
            self.vals.insert(vec![ctx.id], proposal.clone());
            let msg: EigMsg<V> = [(Vec::new(), proposal)].into_iter().collect();
            out.broadcast_to_others(ctx, msg);
        }
        if ctx.t == 0 {
            // t + 1 = 1 round: with no relays, resolution happens after
            // round 1 in `round`.
        }
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<EigMsg<V>>,
    ) -> Outbox<EigMsg<V>> {
        let last = Self::last_round(ctx);
        let mut out = Outbox::new();
        if round.0 > last {
            return out;
        }

        // Store level-`round` nodes: a pair (α, v) from sender s yields the
        // node α·s, provided the label is well-formed.
        let level = round.0 as usize;
        for (sender, msg) in inbox.iter() {
            for (alpha, v) in msg {
                if alpha.len() + 1 != level {
                    continue; // wrong level
                }
                if alpha.contains(&sender) {
                    continue; // relayers must be distinct
                }
                if alpha.iter().any(|p| p.index() >= ctx.n) {
                    continue; // unknown process in label
                }
                let mut distinct = alpha.clone();
                distinct.sort();
                distinct.dedup();
                if distinct.len() != alpha.len() {
                    continue;
                }
                let mut path = alpha.clone();
                path.push(sender);
                if !self.scope.admits(&path) {
                    continue;
                }
                self.vals.entry(path).or_insert_with(|| v.clone());
            }
        }

        if round.0 < last {
            // Relay every stored level-`round` node we are not part of, and
            // record our own implicit relay (we trust ourselves).
            let relays: EigMsg<V> = self
                .vals
                .iter()
                .filter(|(path, _)| path.len() == level && !path.contains(&ctx.id))
                .map(|(path, v)| (path.clone(), v.clone()))
                .collect();
            let own: Vec<(Path, V)> = relays
                .iter()
                .map(|(path, v)| {
                    let mut extended = path.clone();
                    extended.push(ctx.id);
                    (extended, v.clone())
                })
                .collect();
            for (path, v) in own {
                self.vals.entry(path).or_insert(v);
            }
            if !relays.is_empty() {
                out.broadcast_to_others(ctx, relays);
            }
        } else {
            // End of round t + 1: resolve the tree and decide.
            self.decision = Some(match self.scope {
                Scope::Consensus => self.resolve(&[], ctx),
                Scope::Broadcast(g) => self.resolve(&[g], ctx),
            });
        }
        out
    }

    /// Bottom-up resolution with strict-majority voting and default
    /// tie-breaking (Lynch's `newval`).
    fn resolve(&self, path: &[ProcessId], ctx: &ProcessCtx) -> V {
        let leaf_level = (ctx.t + 1).max(1);
        if path.len() >= leaf_level {
            return self
                .vals
                .get(path)
                .cloned()
                .unwrap_or_else(|| self.default.clone());
        }
        let mut counts: BTreeMap<V, usize> = BTreeMap::new();
        let mut children = 0usize;
        for q in ProcessId::all(ctx.n) {
            if path.contains(&q) {
                continue;
            }
            let mut child = path.to_vec();
            child.push(q);
            if !self.scope.admits(&child) {
                continue;
            }
            children += 1;
            *counts.entry(self.resolve(&child, ctx)).or_default() += 1;
        }
        counts
            .into_iter()
            .find(|(_, c)| *c * 2 > children)
            .map(|(v, _)| v)
            .unwrap_or_else(|| self.default.clone())
    }
}

/// Unauthenticated strong consensus via EIG (`n > 3t`).
///
/// ```
/// use ba_protocols::EigConsensus;
/// use ba_sim::{Bit, Scenario};
///
/// let exec = Scenario::new(4, 1)
///     .protocol(|_| EigConsensus::new(4, 1, Bit::Zero))
///     .uniform_input(Bit::One)
///     .run()
///     .unwrap();
/// assert!(exec.all_correct_decided(Bit::One)); // strong validity
/// ```
#[derive(Clone, Debug)]
pub struct EigConsensus<V> {
    core: EigCore<V>,
}

impl<V: Value> EigConsensus<V> {
    /// Creates an instance for an `(n, t)` system with the given default
    /// (decided at unresolved tree nodes).
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` — EIG's resilience requirement, which the
    /// paper's Theorem 4 shows is inherent to every unauthenticated
    /// non-trivial agreement problem.
    pub fn new(n: usize, t: usize, default: V) -> Self {
        assert!(
            n > 3 * t,
            "EIG consensus requires n > 3t (got n = {n}, t = {t})"
        );
        EigConsensus {
            core: EigCore::new(Scope::Consensus, default),
        }
    }
}

impl<V: Value> Protocol for EigConsensus<V> {
    type Input = V;
    type Output = V;
    type Msg = EigMsg<V>;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: V) -> Outbox<Self::Msg> {
        self.core.propose(ctx, proposal)
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        self.core.round(ctx, round, inbox)
    }

    fn decision(&self) -> Option<V> {
        self.core.decision.clone()
    }
}

/// Unauthenticated Byzantine generals via EIG (`n > 3t`): only the
/// designated general's proposal seeds the tree.
#[derive(Clone, Debug)]
pub struct EigBroadcast<V> {
    core: EigCore<V>,
}

impl<V: Value> EigBroadcast<V> {
    /// Creates an instance with designated `general`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`.
    pub fn new(n: usize, t: usize, general: ProcessId, default: V) -> Self {
        assert!(
            n > 3 * t,
            "EIG broadcast requires n > 3t (got n = {n}, t = {t})"
        );
        assert!(general.index() < n, "general {general} out of range");
        EigBroadcast {
            core: EigCore::new(Scope::Broadcast(general), default),
        }
    }

    /// The designated general.
    pub fn general(&self) -> ProcessId {
        match self.core.scope {
            Scope::Broadcast(g) => g,
            Scope::Consensus => unreachable!("broadcast scope by construction"),
        }
    }
}

impl<V: Value> Protocol for EigBroadcast<V> {
    type Input = V;
    type Output = V;
    type Msg = EigMsg<V>;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: V) -> Outbox<Self::Msg> {
        self.core.propose(ctx, proposal)
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        self.core.round(ctx, round, inbox)
    }

    fn decision(&self) -> Option<V> {
        self.core.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Adversary, Bit, ByzantineBehavior, Scenario, SilentByzantine};
    use std::collections::BTreeSet;

    #[test]
    fn consensus_strong_validity_fault_free() {
        for bit in Bit::ALL {
            let exec = Scenario::new(4, 1)
                .protocol(|_| EigConsensus::new(4, 1, Bit::Zero))
                .uniform_input(bit)
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert!(exec.all_correct_decided(bit));
        }
    }

    #[test]
    fn consensus_strong_validity_under_silent_byzantine() {
        // All correct propose One; the Byzantine process is silent.
        let exec = Scenario::new(4, 1)
            .protocol(|_| EigConsensus::new(4, 1, Bit::Zero))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(3), SilentByzantine))
            .run()
            .unwrap();
        exec.validate().unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::One));
        }
    }

    #[test]
    fn consensus_agreement_with_mixed_proposals_and_fault() {
        let exec = Scenario::new(7, 2)
            .protocol(|_| EigConsensus::new(7, 2, Bit::Zero))
            .inputs([
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
            ])
            .adversary(Adversary::byzantine([
                (ProcessId(5), Box::new(SilentByzantine) as _),
                (ProcessId(6), Box::new(SilentByzantine) as _),
            ]))
            .run()
            .unwrap();
        exec.validate().unwrap();
        let decisions: BTreeSet<_> = exec
            .correct()
            .map(|p| exec.decision_of(p).cloned())
            .collect();
        assert_eq!(decisions.len(), 1, "agreement violated: {decisions:?}");
        assert!(decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn broadcast_delivers_correct_generals_value() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| EigBroadcast::new(4, 1, ProcessId(2), Bit::Zero))
            .inputs([Bit::Zero, Bit::Zero, Bit::One, Bit::Zero])
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert!(exec.all_correct_decided(Bit::One));
    }

    #[test]
    fn broadcast_silent_general_yields_default() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| EigBroadcast::new(4, 1, ProcessId(0), Bit::Zero))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(0), SilentByzantine))
            .run()
            .unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::Zero));
        }
    }

    #[test]
    fn message_count_matches_formula_fault_free() {
        // Fault-free consensus: every process broadcasts in each of the
        // t + 1 rounds ⇒ (t + 1) · n · (n − 1) messages.
        let (n, t) = (5, 1);
        let exec = Scenario::new(n, t)
            .protocol(move |_| EigConsensus::new(n, t, Bit::Zero))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        assert_eq!(exec.message_complexity(), ((t + 1) * n * (n - 1)) as u64);
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn consensus_rejects_insufficient_resilience() {
        let _ = EigConsensus::new(6, 2, Bit::Zero);
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn broadcast_rejects_insufficient_resilience() {
        let _ = EigBroadcast::new(3, 1, ProcessId(0), Bit::Zero);
    }

    #[test]
    fn scope_admits_filters_paths() {
        assert!(Scope::Consensus.admits(&[ProcessId(3)]));
        assert!(Scope::Broadcast(ProcessId(1)).admits(&[ProcessId(1), ProcessId(0)]));
        assert!(!Scope::Broadcast(ProcessId(1)).admits(&[ProcessId(0)]));
    }

    #[test]
    fn malformed_labels_are_ignored() {
        // A Byzantine process sending garbage labels must not corrupt the
        // tree: duplicate relayers, wrong level, out-of-range ids.
        #[derive(Clone)]
        struct GarbageSender;
        impl ByzantineBehavior<Bit, EigMsg<Bit>> for GarbageSender {
            fn propose(&mut self, ctx: &ProcessCtx, _: Bit) -> Outbox<EigMsg<Bit>> {
                let mut out = Outbox::new();
                let garbage: EigMsg<Bit> = [
                    (vec![ProcessId(0), ProcessId(0)], Bit::One), // dup
                    (vec![ProcessId(99)], Bit::One),              // out of range
                    (vec![ProcessId(0), ProcessId(1), ProcessId(2)], Bit::One), // wrong level
                ]
                .into_iter()
                .collect();
                out.broadcast_to_others(ctx, garbage);
                out
            }
            fn round(
                &mut self,
                _: &ProcessCtx,
                _: Round,
                _: &Inbox<EigMsg<Bit>>,
            ) -> Outbox<EigMsg<Bit>> {
                Outbox::new()
            }
        }
        let exec = Scenario::new(4, 1)
            .protocol(|_| EigConsensus::new(4, 1, Bit::Zero))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(3), GarbageSender))
            .run()
            .unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::One));
        }
    }
}
