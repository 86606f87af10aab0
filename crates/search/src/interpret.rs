//! The genome interpreter: [`GenomeModel`] executes a [`StrategyGenome`]
//! as a live, budget-sound [`FaultModel`].
//!
//! Soundness is structural, not checked per call: the model only ever
//! *adds* corruptions (no releases), each gene binds to the process it
//! corrupted when its trigger first fired, and every omission or forge
//! blames a bound — hence currently corrupted — process. New corruptions
//! stop as soon as `budget` distinct processes are bound, so an arbitrary
//! evolved genome can never trip the executor's `OmissionByCorrect` /
//! `ForgeByCorrect` guards or overdraw the adaptive budget.

use std::collections::BTreeSet;

use ba_sim::{
    Adversary, Bit, Envelope, ExecutionView, FaultBudget, FaultDirective, FaultMode, FaultModel,
    Payload, ProcessId, Protocol, Routing, Scenario, ScenarioStats, SimError, SimRng,
};

use crate::genome::{Action, StrategyGenome, TargetSel, Trigger};

/// A [`FaultModel`] executing a [`StrategyGenome`] against any message type.
///
/// Construct with [`GenomeModel::new`]; supply a forged payload with
/// [`GenomeModel::with_forge`] to activate [`Action::Forge`] genes (without
/// one they degrade to [`Action::Mute`], keeping the model omission-only).
#[derive(Clone, Debug)]
pub struct GenomeModel<M> {
    genome: StrategyGenome,
    /// Per-gene binding: the process the gene corrupted, once triggered.
    bound: Vec<Option<ProcessId>>,
    /// Every process this model has corrupted (never released).
    corrupted: BTreeSet<ProcessId>,
    rng: SimRng,
    forge: Option<M>,
}

impl<M> GenomeModel<M> {
    /// An interpreter for `genome` (omission-only until a forged payload is
    /// supplied).
    pub fn new(genome: StrategyGenome) -> Self {
        let bound = vec![None; genome.genes.len()];
        let rng = SimRng::seed_from_u64(genome.reorder_seed.unwrap_or(0));
        GenomeModel {
            genome,
            bound,
            corrupted: BTreeSet::new(),
            rng,
            forge: None,
        }
    }

    /// Supplies the payload [`Action::Forge`] genes plant, switching the
    /// model to [`FaultMode::Byzantine`] if any gene forges.
    pub fn with_forge(mut self, payload: M) -> Self {
        self.forge = Some(payload);
        self
    }

    /// The interpreted genome.
    pub fn genome(&self) -> &StrategyGenome {
        &self.genome
    }

    /// The processes corrupted so far (useful after a replayed run).
    pub fn corrupted(&self) -> &BTreeSet<ProcessId> {
        &self.corrupted
    }

    fn forging(&self) -> bool {
        self.forge.is_some()
            && self
                .genome
                .genes
                .iter()
                .any(|g| matches!(g.action, Action::Forge))
    }

    /// Resolves a target selector against the current view.
    fn resolve(target: TargetSel, view: &ExecutionView<'_>) -> ProcessId {
        match target {
            TargetSel::Fixed(id) => ProcessId(id % view.n),
            TargetSel::TopSender(rank) => {
                // The AdaptiveWorstCase ranking: sent traffic descending,
                // stable ties toward lower ids.
                let mut ranked: Vec<ProcessId> = ProcessId::all(view.n).collect();
                ranked.sort_by_key(|p| std::cmp::Reverse(view.sent[p.index()]));
                ranked[rank % view.n]
            }
        }
    }

    fn triggered(trigger: Trigger, target: ProcessId, view: &ExecutionView<'_>) -> bool {
        match trigger {
            Trigger::AtRound(r) => view.round.0 >= r,
            Trigger::SentAtLeast(s) => view.sent[target.index()] >= s,
        }
    }
}

impl<M: Payload> FaultModel<M> for GenomeModel<M> {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Adaptive(self.genome.budget)
    }

    fn mode(&self) -> FaultMode {
        if self.forging() {
            FaultMode::Byzantine
        } else {
            FaultMode::Omission
        }
    }

    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        let mut directives = Vec::new();
        for i in 0..self.genome.genes.len() {
            if self.bound[i].is_some() {
                continue;
            }
            let gene = self.genome.genes[i];
            let target = Self::resolve(gene.target, &view);
            if !Self::triggered(gene.trigger, target, &view) {
                continue;
            }
            if self.corrupted.contains(&target) {
                // Re-corruption is free: bind without a directive.
                self.bound[i] = Some(target);
            } else if self.corrupted.len() < self.genome.budget {
                self.corrupted.insert(target);
                self.bound[i] = Some(target);
                directives.push(FaultDirective::Corrupt(target));
            }
            // Budget exhausted: the gene stays dormant and may bind later
            // if its target resolves to an already corrupted process.
        }
        directives
    }

    fn reorders(&self) -> bool {
        self.genome.reorder_seed.is_some()
    }

    fn schedule(&mut self, _view: ExecutionView<'_>, queue: &mut [Envelope]) {
        self.rng.shuffle(queue);
    }

    fn route(
        &mut self,
        _view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _payload: &M,
    ) -> Routing<M> {
        for (i, gene) in self.genome.genes.iter().enumerate() {
            let Some(bound) = self.bound[i] else { continue };
            match gene.action {
                Action::Mute if sender == bound => return Routing::SendOmit,
                Action::Deafen if receiver == bound => return Routing::ReceiveOmit,
                Action::MuteReceivers { mask }
                    if sender == bound
                        && receiver.index() < 64
                        && mask >> receiver.index() & 1 == 1 =>
                {
                    return Routing::SendOmit;
                }
                Action::Forge if sender == bound => {
                    return match &self.forge {
                        Some(payload) => Routing::Forge(payload.clone()),
                        None => Routing::SendOmit,
                    };
                }
                _ => {}
            }
        }
        Routing::Deliver
    }
}

/// Evaluates `genome` against one scenario in stats-only mode: the standard
/// fitness evaluation the drivers, tests, and workers all share.
///
/// # Errors
///
/// Propagates simulator errors ([`SimError`]); a genome produced by
/// [`GenomeSpace`](crate::GenomeSpace) with a budget ≤ `t` cannot itself
/// cause one.
pub fn evaluate_genome<P, F>(
    genome: &StrategyGenome,
    n: usize,
    t: usize,
    max_rounds: u64,
    inputs: &[P::Input],
    factory: &F,
) -> Result<ScenarioStats<P::Output>, SimError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    Scenario::new(n, t)
        .max_rounds(max_rounds)
        .protocol(factory)
        .inputs(inputs.iter().copied())
        .adversary(Adversary::model(GenomeModel::new(genome.clone())))
        .run_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Gene;

    fn view<'a>(
        round: u64,
        n: usize,
        corrupted: &'a BTreeSet<ProcessId>,
        sent: &'a [u64],
        delivered: &'a [u64],
    ) -> ExecutionView<'a> {
        ExecutionView {
            round: ba_sim::Round(round),
            n,
            t: n / 3,
            corrupted,
            charged: corrupted,
            sent,
            delivered,
        }
    }

    fn gene(trigger: Trigger, target: TargetSel, action: Action) -> Gene {
        Gene {
            trigger,
            target,
            action,
        }
    }

    #[test]
    fn genes_bind_when_triggered_and_respect_the_budget() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![
                gene(Trigger::AtRound(2), TargetSel::Fixed(1), Action::Mute),
                gene(Trigger::AtRound(3), TargetSel::Fixed(2), Action::Mute),
            ],
            reorder_seed: None,
        };
        let mut model: GenomeModel<u8> = GenomeModel::new(genome);
        let (c, s, d) = (BTreeSet::new(), [0u64; 4], [0u64; 4]);
        assert!(model.begin_round(view(1, 4, &c, &s, &d)).is_empty());
        assert_eq!(
            model.begin_round(view(2, 4, &c, &s, &d)),
            vec![FaultDirective::Corrupt(ProcessId(1))]
        );
        // Budget 1 is spent: the second gene never fires.
        assert!(model.begin_round(view(3, 4, &c, &s, &d)).is_empty());
        assert_eq!(
            model.route(view(3, 4, &c, &s, &d), ProcessId(1), ProcessId(0), &0u8),
            Routing::SendOmit
        );
        assert_eq!(
            model.route(view(3, 4, &c, &s, &d), ProcessId(2), ProcessId(0), &0u8),
            Routing::Deliver,
            "unbound genes must not blame anyone"
        );
    }

    #[test]
    fn top_sender_targets_resolve_by_traffic_with_ties_to_low_ids() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![gene(
                Trigger::AtRound(2),
                TargetSel::TopSender(0),
                Action::Mute,
            )],
            reorder_seed: None,
        };
        let mut model: GenomeModel<u8> = GenomeModel::new(genome);
        let c = BTreeSet::new();
        let sent = [3u64, 7, 3, 1];
        let d = [0u64; 4];
        assert_eq!(
            model.begin_round(view(2, 4, &c, &sent, &d)),
            vec![FaultDirective::Corrupt(ProcessId(1))]
        );
    }

    #[test]
    fn sent_at_least_triggers_on_the_resolved_target() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![gene(
                Trigger::SentAtLeast(5),
                TargetSel::Fixed(2),
                Action::Deafen,
            )],
            reorder_seed: None,
        };
        let mut model: GenomeModel<u8> = GenomeModel::new(genome);
        let c = BTreeSet::new();
        let low = [9u64, 9, 4, 9];
        let d = [0u64; 4];
        assert!(model.begin_round(view(1, 4, &c, &low, &d)).is_empty());
        let high = [0u64, 0, 5, 0];
        assert_eq!(
            model.begin_round(view(2, 4, &c, &high, &d)),
            vec![FaultDirective::Corrupt(ProcessId(2))]
        );
        assert_eq!(
            model.route(view(2, 4, &c, &high, &d), ProcessId(0), ProcessId(2), &0u8),
            Routing::ReceiveOmit
        );
    }

    #[test]
    fn receiver_masks_split_deliveries() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![gene(
                Trigger::AtRound(1),
                TargetSel::Fixed(0),
                Action::MuteReceivers { mask: 0b0010 },
            )],
            reorder_seed: None,
        };
        let mut model: GenomeModel<u8> = GenomeModel::new(genome);
        let (c, s, d) = (BTreeSet::new(), [0u64; 4], [0u64; 4]);
        let _ = model.begin_round(view(1, 4, &c, &s, &d));
        assert_eq!(
            model.route(view(1, 4, &c, &s, &d), ProcessId(0), ProcessId(1), &0u8),
            Routing::SendOmit
        );
        assert_eq!(
            model.route(view(1, 4, &c, &s, &d), ProcessId(0), ProcessId(2), &0u8),
            Routing::Deliver
        );
    }

    #[test]
    fn forge_genes_need_a_payload_and_flip_the_mode() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![gene(
                Trigger::AtRound(1),
                TargetSel::Fixed(0),
                Action::Forge,
            )],
            reorder_seed: None,
        };
        let plain: GenomeModel<u8> = GenomeModel::new(genome.clone());
        assert_eq!(FaultModel::<u8>::mode(&plain), FaultMode::Omission);
        let mut forging = GenomeModel::new(genome).with_forge(9u8);
        assert_eq!(FaultModel::<u8>::mode(&forging), FaultMode::Byzantine);
        let (c, s, d) = (BTreeSet::new(), [0u64; 4], [0u64; 4]);
        let _ = forging.begin_round(view(1, 4, &c, &s, &d));
        assert_eq!(
            forging.route(view(1, 4, &c, &s, &d), ProcessId(0), ProcessId(1), &7u8),
            Routing::Forge(9)
        );
    }

    /// Echo-once protocol: broadcast in round 1, decide own proposal.
    #[derive(Clone)]
    struct EchoOnce {
        proposal: Bit,
        decision: Option<Bit>,
    }

    fn echo(_: ProcessId) -> EchoOnce {
        EchoOnce {
            proposal: Bit::Zero,
            decision: None,
        }
    }

    impl Protocol for EchoOnce {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ba_sim::ProcessCtx, proposal: Bit) -> ba_sim::Outbox<Bit> {
            self.proposal = proposal;
            let mut out = ba_sim::Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(
            &mut self,
            _: &ba_sim::ProcessCtx,
            round: ba_sim::Round,
            _: &ba_sim::Inbox<Bit>,
        ) -> ba_sim::Outbox<Bit> {
            if round == ba_sim::Round::FIRST {
                self.decision = Some(self.proposal);
            }
            ba_sim::Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_budget_sound() {
        // An arbitrary sweep of random genomes must never produce a
        // SimError: structural soundness of the interpreter.
        let space = crate::GenomeSpace::new(5, 1, 8);
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..60 {
            let genome = space.random_genome(&mut rng);
            let a = evaluate_genome(&genome, 5, 1, 8, &[Bit::Zero; 5], &echo)
                .expect("interpreted genomes are budget-sound");
            let b = evaluate_genome(&genome, 5, 1, 8, &[Bit::Zero; 5], &echo).unwrap();
            assert_eq!(a, b, "same genome, same stats");
        }
    }
}
