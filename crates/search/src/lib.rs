//! Adversary-strategy search over the `FaultModel` space.
//!
//! The lower-bound machinery in `ba-core` proves that *every* adversary
//! strategy within the fault budget is survivable (or finds the one
//! execution family that is not). This crate attacks from the other side:
//! it *searches* the strategy space for concrete adversaries that break a
//! protocol, using the same deterministic simulator as the ground truth.
//!
//! The pipeline:
//!
//! 1. [`StrategyGenome`] — a small, serializable program over corruption
//!    triggers, target selectors, and per-message actions, interpreted as
//!    a budget-sound `ba_sim::FaultModel` by [`GenomeModel`].
//! 2. [`Objective`] — a scalar fitness over a stats-only scenario run:
//!    [`DisagreementRate`], [`ValidityViolation`], [`DecisionRounds`],
//!    [`MessageComplexity`].
//! 3. [`search`] — a (1+λ) hill-climber or simulated annealing, fully
//!    replayable from one seed, with batches evaluated in parallel.
//! 4. [`shrink()`] — delta-debugging down to a 1-minimal violating genome,
//!    reported as a human-readable [`AttackReport`].
//!
//! Genomes travel through the `ba-dist` wire format ([`genome_label`] /
//! [`genome_from_label`]) so campaign workers can evaluate populations
//! across shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod genome;
pub mod interpret;
pub mod objective;
pub mod shrink;
pub mod wire;

pub use driver::{search, SearchAlgo, SearchConfig, SearchOutcome, SearchStep};
pub use genome::{Action, Gene, GenomeSpace, StrategyGenome, TargetSel, Trigger};
pub use interpret::{evaluate_genome, GenomeModel};
pub use objective::{
    DecisionRounds, DisagreementRate, MessageComplexity, Objective, ValidityViolation,
};
pub use shrink::{shrink, AttackReport};
pub use wire::{genome_from_label, genome_label, GENOME_LABEL_PREFIX};
