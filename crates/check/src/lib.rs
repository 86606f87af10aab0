//! # ba-check — exhaustive adversary-space model checking
//!
//! The paper's lower bounds quantify over *all* adversaries; the falsifier
//! follows one proof path and the prober samples. This crate closes the
//! remaining gap for **small `(n, t)` instances** by enumeration: it
//! branches over every decision point of the trait-based fault layer —
//! which corruption set to charge, each in-horizon message's fate
//! (deliver / send-omit / receive-omit / forge), and optionally the
//! within-round delivery order — and runs the protocol on every branch,
//! checking Termination, Agreement, and Weak Validity.
//!
//! The exploration is a lazy decision tree. A branch is a **choice tape**
//! (digits, one per decision point, `0` = "no fault"); running a tape
//! through the [`TapeModel`] fault model both produces the execution and
//! *records* the decision points it encountered, which is exactly what is
//! needed to enumerate the tape's children. The explorer:
//!
//! * runs a sequential breadth-first warm-up until the frontier is wide
//!   enough, then fans the frontier subtrees out over
//!   [`ba_sim::par_map`] — results are merged in deterministic order, so
//!   the outcome is **bit-identical at every thread count**;
//! * fingerprints every visited execution while it runs, through
//!   [`ba_sim::FingerprintSink`] (no trace, arena or payload clone is
//!   kept), and deduplicates states by that
//!   [`fingerprint`](ba_sim::Fingerprinted::fingerprint) — distinct
//!   adversary branches that produce the same execution, up to the order
//!   of deliveries within a round, count as one state;
//! * supports **sharding**: [`CheckSpec::slice`] assigns each shard a
//!   residue class of the frontier subtrees, and
//!   [`merge_outcomes`] recombines shard outcomes such that
//!   `merge(k slices) == run(1)` exactly, on both violation and
//!   exhausted outcomes;
//! * emits either a **minimal, replayable violation** (delta-debug
//!   shrunk, re-validated by [`Certificate::verify`]) or an
//!   **exhaustiveness certificate** ([`CheckReport`]: state count,
//!   frontier depth, branching profile, whether the execution budget was
//!   exhausted).
//!
//! Minimality is measured by [`ViolationKey`]: fewest non-default choices
//! first, then positionally by stable decision-point rank. On the
//! single-corruption omission subspace this ordering coincides with the
//! legacy `exhaustive_omission_check` popcount-then-mask order, so the two
//! checkers return identical minimal certificates there — a property the
//! differential test suite pins for every protocol in `ba-protocols`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod tape;

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use ba_core::lowerbound::{Certificate, ViolationKind};
use ba_sim::{Bit, Execution, ExecutorConfig, Payload, ProcessId, Protocol, SimError};

pub use tape::{PointRec, TapeModel, CORRUPTION_RANK, MAX_REORDER_QUEUE};

/// Default ceiling on executions explored per check (the budget cap a
/// [`CheckReport`] reports against).
pub const DEFAULT_MAX_EXECUTIONS: u64 = 1 << 20;

/// Ceiling on the corruption decision point's arity; a larger corruption
/// space is refused up front with [`CheckError::SpaceTooLarge`].
pub const MAX_CORRUPTION_CHOICES: u64 = 1 << 16;

/// Which corruption sets the explorer branches over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CorruptionSpace {
    /// Exactly this set, in every branch (no corruption decision point).
    Static(BTreeSet<ProcessId>),
    /// Every subset of the processes with at most `min(b, t)` members,
    /// enumerated size-ascending then lexicographically — the empty
    /// (fault-free) set is the default choice.
    UpTo(usize),
}

/// The instance and adversary space of one exhaustive check.
///
/// Embeds the exact [`ExecutorConfig`] the scenarios run under, so a
/// check explores precisely the executions other tools (falsifier, legacy
/// exhaustive checker) would construct for the same configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckSpec<M> {
    /// Executor configuration (n, t, horizon, quiescence).
    pub cfg: ExecutorConfig,
    /// The corruption sets to branch over.
    pub corruption: CorruptionSpace,
    /// Rounds in which the adversary may act (later rounds always deliver
    /// in natural order) — the fault horizon, as in the legacy checker.
    pub rounds: u64,
    /// Branch over send-omissions of corrupted senders.
    pub send_omissions: bool,
    /// Branch over receive-omissions of corrupted receivers.
    pub receive_omissions: bool,
    /// Payloads a corrupted sender may forge in place of its real message
    /// (empty = omission-only). A forged payload equal to the real one is
    /// never offered as a choice.
    pub forge_payloads: Vec<M>,
    /// Branch over within-round delivery reorderings (queues of up to
    /// [`MAX_REORDER_QUEUE`] messages).
    pub reorder: bool,
    /// Budget cap: the explorer stops branching after this many
    /// executions and reports `complete = false`.
    pub max_executions: u64,
    /// Shard assignment `(index, of)`: this check explores the frontier
    /// subtrees whose global index is `index` modulo `of`. `(0, 1)` is the
    /// whole space; [`merge_outcomes`] over all `of` slices reproduces it
    /// exactly.
    pub slice: (usize, usize),
}

impl<M: Payload> CheckSpec<M> {
    /// A spec exploring both omission directions for every corruption set
    /// of size ≤ `t` over the first `rounds` rounds.
    pub fn new(cfg: ExecutorConfig, rounds: u64) -> Self {
        CheckSpec {
            corruption: CorruptionSpace::UpTo(cfg.t),
            cfg,
            rounds,
            send_omissions: true,
            receive_omissions: true,
            forge_payloads: Vec::new(),
            reorder: false,
            max_executions: DEFAULT_MAX_EXECUTIONS,
            slice: (0, 1),
        }
    }

    /// Fixes the corruption set (no corruption decision point).
    pub fn static_corruption(mut self, set: impl IntoIterator<Item = ProcessId>) -> Self {
        self.corruption = CorruptionSpace::Static(set.into_iter().collect());
        self
    }

    /// Branches over all corruption sets of size ≤ `min(b, t)`.
    pub fn up_to(mut self, b: usize) -> Self {
        self.corruption = CorruptionSpace::UpTo(b);
        self
    }

    /// Restricts omission branching to send-omissions.
    pub fn send_only(mut self) -> Self {
        self.receive_omissions = false;
        self
    }

    /// Lets corrupted senders forge these payloads.
    pub fn forge(mut self, payloads: impl IntoIterator<Item = M>) -> Self {
        self.forge_payloads = payloads.into_iter().collect();
        self
    }

    /// Enables delivery-reorder branching.
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder = on;
        self
    }

    /// Sets the execution budget cap.
    pub fn max_executions(mut self, cap: u64) -> Self {
        self.max_executions = cap;
        self
    }

    /// Assigns this check shard `index` of `of`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < of`.
    pub fn slice(mut self, index: usize, of: usize) -> Self {
        assert!(index < of, "slice index {index} out of {of}");
        self.slice = (index, of);
        self
    }

    /// The corruption space in canonical enumeration order: the branch
    /// options of the corruption decision point, choice `0` first.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::SpaceTooLarge`] when an [`CorruptionSpace::UpTo`]
    /// space exceeds [`MAX_CORRUPTION_CHOICES`] subsets.
    pub fn corruption_subsets(&self) -> Result<Vec<BTreeSet<ProcessId>>, CheckError> {
        match &self.corruption {
            CorruptionSpace::Static(set) => Ok(vec![set.clone()]),
            CorruptionSpace::UpTo(b) => {
                let n = self.cfg.n;
                let b = (*b).min(self.cfg.t);
                let choices: u64 = (0..=b).map(|k| binomial(n, k)).fold(0, u64::saturating_add);
                if choices > MAX_CORRUPTION_CHOICES {
                    return Err(CheckError::SpaceTooLarge {
                        choices,
                        cap: MAX_CORRUPTION_CHOICES,
                    });
                }
                let mut subsets = Vec::with_capacity(choices as usize);
                for k in 0..=b {
                    combinations(n, k, &mut subsets);
                }
                Ok(subsets)
            }
        }
    }
}

/// `C(n, k)`, saturating.
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Appends every size-`k` subset of `0..n` in lexicographic order.
fn combinations(n: usize, k: usize, out: &mut Vec<BTreeSet<ProcessId>>) {
    if k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|i| ProcessId(*i)).collect());
        // Advance to the next combination: bump the rightmost index that
        // is not yet at its ceiling, then repack everything after it.
        let mut i = k;
        while i > 0 && idx[i - 1] == i - 1 + n - k {
            i -= 1;
        }
        if i == 0 {
            return;
        }
        idx[i - 1] += 1;
        for j in i..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Why a check could not run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The corruption space alone exceeds the supported arity — shrink
    /// `n` or the corruption bound.
    SpaceTooLarge {
        /// Number of corruption choices the spec asks for.
        choices: u64,
        /// The supported ceiling ([`MAX_CORRUPTION_CHOICES`]).
        cap: u64,
    },
    /// The simulator rejected a constructed scenario.
    Sim(SimError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::SpaceTooLarge { choices, cap } => write!(
                f,
                "corruption space has {choices} choices, above the cap of {cap}; shrink the bounds"
            ),
            CheckError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::SpaceTooLarge { .. } => None,
            CheckError::Sim(e) => Some(e),
        }
    }
}

impl From<SimError> for CheckError {
    fn from(e: SimError) -> Self {
        CheckError::Sim(e)
    }
}

/// Total order of violating adversary branches: fewest non-default
/// choices first ([`weight`](ViolationKey::weight)), then positionally by
/// decision-point rank. The derived lexicographic order over the
/// rank-descending digit list makes "smaller key" mean "numerically
/// smaller adversary mask" on the legacy checker's subspace, so the two
/// checkers agree on which violation is *the* minimal one.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ViolationKey {
    /// Number of non-default choices (the legacy mask's popcount).
    pub weight: usize,
    /// The non-default `(rank, choice)` digits, sorted rank-descending.
    pub digits: Vec<(u64, u32)>,
}

impl ViolationKey {
    /// The key of a recorded decision-point sequence.
    pub fn of(points: &[PointRec]) -> Self {
        let mut digits: Vec<(u64, u32)> = points
            .iter()
            .filter(|p| p.choice != 0)
            .map(|p| (p.rank, p.choice))
            .collect();
        digits.sort_unstable_by(|a, b| b.cmp(a));
        ViolationKey {
            weight: digits.len(),
            digits,
        }
    }
}

/// The minimal violation an exhaustive check found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FoundViolation<M> {
    /// The corruption set the violating branch charges.
    pub corrupted: BTreeSet<ProcessId>,
    /// The delta-debug shrunk choice tape; [`replay`] it to reproduce the
    /// certificate's execution exactly.
    pub choices: Vec<u32>,
    /// The selection key of the minimal violation *as discovered* during
    /// enumeration (the key shards are merged by). Equal to the key of
    /// [`choices`](FoundViolation::choices) whenever the exploration ran
    /// to completion — shrinking a globally minimal branch is a no-op.
    pub key: ViolationKey,
    /// The violating execution with its verified claim.
    pub certificate: Certificate<M>,
}

/// The exhaustiveness statistics of a check — the certificate side of an
/// [`CheckOutcome::Exhausted`] outcome, and context for violations.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckReport {
    /// Executions explored (leaves run) by this check/slice.
    pub executions: u64,
    /// Canonical fingerprints of the distinct states visited. Slices
    /// union these, so the merged state count is exact, not a sum of
    /// overlapping counts.
    pub fingerprints: BTreeSet<u64>,
    /// Deepest explored node, in non-default tree depth (explicit tape
    /// digits).
    pub max_depth: usize,
    /// Branching profile: how many decision points of each arity were
    /// encountered, summed over all executions.
    pub arity_profile: BTreeMap<u32, u64>,
    /// Number of violating executions encountered (before minimization).
    pub violations: u64,
    /// `false` iff the [`CheckSpec::max_executions`] budget cap was hit
    /// and part of the tree was left unexplored.
    pub complete: bool,
}

impl CheckReport {
    /// Number of distinct states visited (deduplicated by fingerprint).
    pub fn states(&self) -> u64 {
        self.fingerprints.len() as u64
    }

    /// Folds `other` into `self`: counts add, fingerprints union,
    /// completeness ANDs.
    pub fn absorb(&mut self, other: &CheckReport) {
        self.executions += other.executions;
        self.fingerprints.extend(other.fingerprints.iter().copied());
        self.max_depth = self.max_depth.max(other.max_depth);
        for (arity, count) in &other.arity_profile {
            *self.arity_profile.entry(*arity).or_insert(0) += count;
        }
        self.violations += other.violations;
        self.complete &= other.complete;
    }
}

/// The outcome of an exhaustive check (or of merging shard outcomes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckOutcome<M> {
    /// At least one branch violates weak consensus; the boxed violation is
    /// the minimal one.
    Violation(Box<FoundViolation<M>>, CheckReport),
    /// No explored branch violates weak consensus. When
    /// [`CheckReport::complete`] also holds, this is a
    /// proof-by-enumeration for the spec's whole adversary space.
    Exhausted(CheckReport),
}

impl<M: Payload> CheckOutcome<M> {
    /// The minimal violation, if one was found.
    pub fn violation(&self) -> Option<&FoundViolation<M>> {
        match self {
            CheckOutcome::Violation(v, _) => Some(v),
            CheckOutcome::Exhausted(_) => None,
        }
    }

    /// The certificate of the minimal violation, if one was found.
    pub fn certificate(&self) -> Option<&Certificate<M>> {
        self.violation().map(|v| &v.certificate)
    }

    /// The exhaustiveness statistics.
    pub fn report(&self) -> &CheckReport {
        match self {
            CheckOutcome::Violation(_, r) | CheckOutcome::Exhausted(r) => r,
        }
    }

    /// `true` iff no violation was found *and* the space was fully
    /// explored within budget.
    pub fn is_proof(&self) -> bool {
        matches!(self, CheckOutcome::Exhausted(r) if r.complete)
    }
}

/// Merges shard outcomes into the outcome of the unsharded run:
/// `merge(run over slice 0/k, …, run over slice k-1/k) == run over (0, 1)`
/// bit-for-bit, on both variants. Reports fold via
/// [`CheckReport::absorb`]; the minimal violation is the key-minimal one
/// across shards (keys are unambiguous — equal keys denote the identical
/// branch).
///
/// # Panics
///
/// Panics on an empty slice of outcomes.
pub fn merge_outcomes<M: Payload>(outcomes: &[CheckOutcome<M>]) -> CheckOutcome<M> {
    assert!(!outcomes.is_empty(), "nothing to merge");
    let mut report = CheckReport {
        complete: true,
        ..CheckReport::default()
    };
    let mut best: Option<&FoundViolation<M>> = None;
    for outcome in outcomes {
        report.absorb(outcome.report());
        if let Some(v) = outcome.violation() {
            if best.map_or(true, |b| v.key < b.key) {
                best = Some(v);
            }
        }
    }
    match best {
        Some(v) => CheckOutcome::Violation(Box::new(v.clone()), report),
        None => CheckOutcome::Exhausted(report),
    }
}

/// A snapshot streamed to a progress hook while a check runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckProgress {
    /// Executions explored so far by this check process.
    pub executions: u64,
    /// Distinct states (fingerprints) seen so far by this check process.
    pub states: u64,
    /// Deepest frontier node explored so far.
    pub depth: usize,
}

/// One replayed adversary branch: the direct [`TapeModel`] interpretation
/// of a choice tape, with its recorded canonical form and verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Replay<M> {
    /// The produced execution.
    pub execution: Execution<Bit, Bit, M>,
    /// The corruption set the tape selected.
    pub corrupted: BTreeSet<ProcessId>,
    /// The canonical choice digits actually consumed (out-of-range input
    /// digits collapse to `0`; trailing defaults are trimmed).
    pub choices: Vec<u32>,
    /// The weak-consensus violation this branch exhibits, if any.
    pub violation: Option<ViolationKind>,
}

/// Runs one choice tape through the fault layer — the "direct `FaultModel`
/// interpretation" a shrunk trace must replay under.
///
/// # Errors
///
/// Propagates [`CheckError`] from spec validation and the simulator.
pub fn replay<P, F>(
    spec: &CheckSpec<P::Msg>,
    factory: F,
    proposals: &[Bit],
    choices: &[u32],
) -> Result<Replay<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let subsets = spec.corruption_subsets()?;
    explore::interpret(spec, &subsets, &factory, proposals, choices)
}

/// Exhaustively explores the spec's adversary space.
///
/// Deterministic: the outcome is bit-identical for every `threads` value
/// (`0` = auto), and [`merge_outcomes`] over a full set of
/// [`CheckSpec::slice`] shards reproduces the unsharded outcome exactly.
///
/// # Errors
///
/// Returns [`CheckError::SpaceTooLarge`] for oversized corruption spaces
/// and propagates simulator errors.
pub fn check<P, F>(
    spec: &CheckSpec<P::Msg>,
    factory: F,
    proposals: &[Bit],
    threads: usize,
) -> Result<CheckOutcome<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    check_with_progress(spec, factory, proposals, threads, None)
}

/// [`check`], streaming [`CheckProgress`] snapshots to `hook` as the
/// exploration advances (roughly once per state batch and at every task
/// boundary). The hook observes *this process's* work — including the
/// deterministic warm-up a non-zero slice replays without banking — so a
/// dashboard can show live states/s per shard. Telemetry is
/// observation-only: the outcome is identical with and without a hook.
///
/// # Errors
///
/// See [`check`].
pub fn check_with_progress<P, F>(
    spec: &CheckSpec<P::Msg>,
    factory: F,
    proposals: &[Bit],
    threads: usize,
    hook: Option<&(dyn Fn(CheckProgress) + Sync)>,
) -> Result<CheckOutcome<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    explore::run(spec, &factory, proposals, threads, hook)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomials_are_exact_for_small_instances() {
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(4, 1), 4);
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 4), 0);
    }

    #[test]
    fn corruption_subsets_enumerate_size_then_lex() {
        let spec: CheckSpec<Bit> = CheckSpec::new(ExecutorConfig::new(3, 2), 1);
        let subsets = spec.corruption_subsets().unwrap();
        let rendered: Vec<Vec<usize>> = subsets
            .iter()
            .map(|s| s.iter().map(|p| p.0).collect())
            .collect();
        assert_eq!(
            rendered,
            vec![
                vec![],
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn oversized_corruption_spaces_are_refused() {
        let mut cfg = ExecutorConfig::new(40, 39);
        cfg.max_rounds = 1;
        let spec: CheckSpec<Bit> = CheckSpec::new(cfg, 1).up_to(39);
        let err = spec.corruption_subsets().unwrap_err();
        assert!(matches!(err, CheckError::SpaceTooLarge { .. }));
        assert!(err.to_string().contains("above the cap"));
    }

    #[test]
    fn violation_keys_order_like_legacy_masks() {
        // Equal weight: the rank-descending digit list compares like the
        // numeric mask. {rank 3, rank 1} < {rank 3, rank 2} < {rank 4}+{0}.
        let key = |ranks: &[u64]| {
            ViolationKey::of(
                &ranks
                    .iter()
                    .map(|r| PointRec {
                        arity: 2,
                        rank: *r,
                        choice: 1,
                    })
                    .collect::<Vec<_>>(),
            )
        };
        assert!(key(&[3, 1]) < key(&[3, 2]));
        assert!(key(&[3, 2]) < key(&[4, 0]));
        assert!(key(&[2, 1]) < key(&[3, 0]));
        // Weight dominates: one omission beats two, whatever the ranks.
        assert!(key(&[9]) < key(&[0, 1]));
    }
}
