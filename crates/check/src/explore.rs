//! The deterministic exhaustive explorer: lazy decision-tree enumeration,
//! parallel frontier fan-out, fingerprint dedup, and delta-debug
//! minimization.
//!
//! The tree's nodes are choice tapes ending in a non-default digit (the
//! root is the empty tape). Running a node's tape yields one execution —
//! the leaf value — and the recorded decision points; every point at a
//! position past the node's explicit digits spawns `arity − 1` children
//! (the non-default alternatives), so each choice vector is generated
//! exactly once and a child's decision-point prefix is fixed by its
//! parent (prefix determinism).
//!
//! Exploration runs in two phases. A sequential breadth-first warm-up
//! expands the tree until the frontier holds [`FRONTIER_TARGET`] nodes
//! (the warm-up is a pure function of the spec, so every slice replays it
//! identically; only slice 0 *banks* its statistics). The frontier
//! subtrees then fan out over [`par_map`] with per-subtree execution
//! budgets derived from the **global** subtree index — which is what
//! makes the outcome independent of both the thread count and the
//! slice split.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use ba_core::lowerbound::{weak_consensus_violation, Certificate, ViolationKind};
use ba_sim::{par_map, Adversary, Bit, FingerprintSink, ProcessId, Protocol, Scenario};

use crate::tape::{PointRec, TapeModel};
use crate::{
    CheckError, CheckOutcome, CheckProgress, CheckReport, CheckSpec, FoundViolation, Replay,
    ViolationKey,
};

/// The warm-up stops once the frontier holds this many subtrees: wide
/// enough to keep every worker of a many-core box busy, small enough that
/// replaying the warm-up on each slice stays negligible.
const FRONTIER_TARGET: usize = 64;

/// Progress snapshots are emitted about once per this many leaves.
const PROGRESS_BATCH: u64 = 64;

/// One leaf evaluation: the recorded branch and its verdict.
struct Leaf {
    points: Vec<PointRec>,
    corrupted: BTreeSet<ProcessId>,
    fingerprint: u64,
    violation: Option<ViolationKind>,
}

/// Statistics of one explored subtree (or warm-up), merged associatively.
#[derive(Default)]
struct SubStats {
    executions: u64,
    violations: u64,
    fingerprints: BTreeSet<u64>,
    max_depth: usize,
    arity_profile: BTreeMap<u32, u64>,
    /// Minimal violating branch seen: selection key, corruption set, tape.
    best: Option<(ViolationKey, BTreeSet<ProcessId>, Vec<u32>)>,
    incomplete: bool,
}

impl SubStats {
    fn absorb_leaf(&mut self, tape: &[u32], leaf: &Leaf) {
        self.executions += 1;
        self.fingerprints.insert(leaf.fingerprint);
        self.max_depth = self.max_depth.max(tape.len());
        for point in &leaf.points {
            *self.arity_profile.entry(point.arity).or_insert(0) += 1;
        }
        if leaf.violation.is_some() {
            self.violations += 1;
            let key = ViolationKey::of(&leaf.points);
            if self.best.as_ref().map_or(true, |(k, _, _)| key < *k) {
                self.best = Some((key, leaf.corrupted.clone(), tape.to_vec()));
            }
        }
    }

    fn merge(&mut self, other: SubStats) {
        self.executions += other.executions;
        self.violations += other.violations;
        self.fingerprints.extend(other.fingerprints);
        self.max_depth = self.max_depth.max(other.max_depth);
        for (arity, count) in other.arity_profile {
            *self.arity_profile.entry(arity).or_insert(0) += count;
        }
        if let Some((key, corrupted, tape)) = other.best {
            if self.best.as_ref().map_or(true, |(k, _, _)| key < *k) {
                self.best = Some((key, corrupted, tape));
            }
        }
        self.incomplete |= other.incomplete;
    }
}

/// Shared per-process progress accounting (telemetry only — never feeds
/// back into exploration decisions).
struct ProgressState {
    executions: u64,
    states: BTreeSet<u64>,
    depth: usize,
    since_emit: u64,
}

struct ProgressSink<'a> {
    hook: &'a (dyn Fn(CheckProgress) + Sync),
    state: Mutex<ProgressState>,
}

impl ProgressSink<'_> {
    fn note(&self, fingerprint: u64, depth: usize, flush: bool) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        state.executions += 1;
        state.states.insert(fingerprint);
        state.depth = state.depth.max(depth);
        state.since_emit += 1;
        if flush || state.since_emit >= PROGRESS_BATCH {
            state.since_emit = 0;
            let snapshot = CheckProgress {
                executions: state.executions,
                states: state.states.len() as u64,
                depth: state.depth,
            };
            drop(state);
            (self.hook)(snapshot);
        }
    }

    fn flush(&self) {
        let state = self.state.lock().expect("progress lock poisoned");
        let snapshot = CheckProgress {
            executions: state.executions,
            states: state.states.len() as u64,
            depth: state.depth,
        };
        drop(state);
        (self.hook)(snapshot);
    }
}

/// Runs one tape: interprets it through a [`TapeModel`], fingerprinting
/// the execution while it runs, then classifies its outcomes with
/// [`weak_consensus_violation`].
fn run_leaf<P, F>(
    spec: &CheckSpec<P::Msg>,
    subsets: &[BTreeSet<ProcessId>],
    factory: &F,
    proposals: &[Bit],
    tape: &[u32],
) -> Result<Leaf, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let mut model = TapeModel::new(spec, subsets, tape);
    let run = Scenario::config(&spec.cfg)
        .protocol(factory)
        .inputs(proposals.iter().cloned())
        .adversary(Adversary::model(&mut model))
        .run_with_sink(FingerprintSink::new())?;
    let (points, corrupted) = model.into_parts();
    Ok(Leaf {
        points,
        corrupted,
        fingerprint: run.fingerprint,
        violation: weak_consensus_violation(&run),
    })
}

/// The children of a node: every non-default alternative at every
/// decision point past the node's explicit digits, in `(position,
/// choice)` order.
fn children(tape: &[u32], points: &[PointRec]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for (position, point) in points.iter().enumerate().skip(tape.len()) {
        for choice in 1..point.arity {
            let mut child = Vec::with_capacity(position + 1);
            child.extend_from_slice(tape);
            child.resize(position, 0);
            child.push(choice);
            out.push(child);
        }
    }
    out
}

/// Direct interpretation of one tape (the public [`crate::replay`]).
pub(crate) fn interpret<P, F>(
    spec: &CheckSpec<P::Msg>,
    subsets: &[BTreeSet<ProcessId>],
    factory: &F,
    proposals: &[Bit],
    choices: &[u32],
) -> Result<Replay<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    interpret_recorded(spec, subsets, factory, proposals, choices).map(|(replay, _)| replay)
}

/// [`interpret`], also returning the recorded decision points (whose
/// clamped choices define the canonical key of the tape).
fn interpret_recorded<P, F>(
    spec: &CheckSpec<P::Msg>,
    subsets: &[BTreeSet<ProcessId>],
    factory: &F,
    proposals: &[Bit],
    choices: &[u32],
) -> Result<(Replay<P::Msg>, Vec<PointRec>), CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let mut model = TapeModel::new(spec, subsets, choices);
    let execution = Scenario::config(&spec.cfg)
        .protocol(factory)
        .inputs(proposals.iter().cloned())
        .adversary(Adversary::model(&mut model))
        .run()?;
    let violation = weak_consensus_violation(&execution);
    let (points, corrupted) = model.into_parts();
    let mut canonical: Vec<u32> = points.iter().map(|p| p.choice).collect();
    while canonical.last() == Some(&0) {
        canonical.pop();
    }
    let replay = Replay {
        execution,
        corrupted,
        choices: canonical,
        violation,
    };
    Ok((replay, points))
}

/// Depth-first exhaustion of one frontier subtree under a leaf budget.
fn dfs_subtree<P, F>(
    spec: &CheckSpec<P::Msg>,
    subsets: &[BTreeSet<ProcessId>],
    factory: &F,
    proposals: &[Bit],
    root: Vec<u32>,
    budget: u64,
    progress: Option<&ProgressSink<'_>>,
) -> Result<SubStats, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let mut stats = SubStats::default();
    let mut stack = vec![root];
    while let Some(tape) = stack.pop() {
        if stats.executions >= budget {
            stats.incomplete = true;
            break;
        }
        let leaf = run_leaf(spec, subsets, factory, proposals, &tape)?;
        if let Some(sink) = progress {
            sink.note(leaf.fingerprint, tape.len(), false);
        }
        let offspring = children(&tape, &leaf.points);
        stats.absorb_leaf(&tape, &leaf);
        stack.extend(offspring.into_iter().rev());
    }
    if let Some(sink) = progress {
        sink.flush();
    }
    Ok(stats)
}

/// The full exploration: warm-up, frontier fan-out, minimization.
pub(crate) fn run<P, F>(
    spec: &CheckSpec<P::Msg>,
    factory: &F,
    proposals: &[Bit],
    threads: usize,
    hook: Option<&(dyn Fn(CheckProgress) + Sync)>,
) -> Result<CheckOutcome<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let (slice_index, slice_of) = spec.slice;
    assert!(slice_of >= 1 && slice_index < slice_of, "invalid slice");
    let subsets = spec.corruption_subsets()?;
    let progress = hook.map(|hook| ProgressSink {
        hook,
        state: Mutex::new(ProgressState {
            executions: 0,
            states: BTreeSet::new(),
            depth: 0,
            since_emit: 0,
        }),
    });
    let progress = progress.as_ref();

    // Phase 1: sequential breadth-first warm-up, identical on every
    // slice. Only slice 0 banks the warm-up leaves; the others replay the
    // expansion purely to reconstruct the same frontier.
    let mut stats = SubStats::default();
    let mut warmup_executions = 0u64;
    let mut queue: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while queue.len() < FRONTIER_TARGET {
        let Some(tape) = queue.pop_front() else { break };
        if warmup_executions >= spec.max_executions {
            stats.incomplete = true;
            queue.clear();
            break;
        }
        let leaf = run_leaf(spec, &subsets, factory, proposals, &tape)?;
        warmup_executions += 1;
        if let Some(sink) = progress {
            sink.note(leaf.fingerprint, tape.len(), false);
        }
        queue.extend(children(&tape, &leaf.points));
        if slice_index == 0 {
            stats.absorb_leaf(&tape, &leaf);
        }
    }

    // Phase 2: fan the frontier out. Budgets split the remaining cap by
    // *global* subtree index, so every slice computes the same per-subtree
    // budget regardless of which subtrees it owns.
    let frontier: Vec<Vec<u32>> = queue.into_iter().collect();
    if !frontier.is_empty() {
        let remaining = spec.max_executions.saturating_sub(warmup_executions);
        let total = frontier.len() as u64;
        let (per_subtree, extra) = (remaining / total, remaining % total);
        let owned: Vec<(u64, Vec<u32>)> = frontier
            .into_iter()
            .enumerate()
            .filter(|(global, _)| global % slice_of == slice_index)
            .map(|(global, tape)| (global as u64, tape))
            .collect();
        let results = par_map(owned, threads, |_, (global, tape)| {
            let budget = per_subtree + u64::from(global < extra);
            dfs_subtree(spec, &subsets, factory, proposals, tape, budget, progress)
        });
        for result in results {
            stats.merge(result?);
        }
    }
    if let Some(sink) = progress {
        sink.flush();
    }

    let report = CheckReport {
        executions: stats.executions,
        fingerprints: stats.fingerprints,
        max_depth: stats.max_depth,
        arity_profile: stats.arity_profile,
        violations: stats.violations,
        complete: !stats.incomplete,
    };
    match stats.best {
        None => Ok(CheckOutcome::Exhausted(report)),
        Some((key, _, tape)) => {
            let violation = minimize::<P, F>(spec, &subsets, factory, proposals, tape, key)?;
            Ok(CheckOutcome::Violation(Box::new(violation), report))
        }
    }
}

/// Greedy delta-debug shrink of a violating tape, then certification.
///
/// Each pass tries lowering one non-default digit toward the default; a
/// candidate is accepted only when its replay still violates *and* its
/// canonical key strictly decreased (which also guarantees termination).
/// On complete explorations the input is globally minimal and shrinking
/// is a provable no-op; under a budget cap it walks the violation down to
/// a local minimum. The final replay *is* the certificate's execution, so
/// certificates can never go stale relative to their trace.
fn minimize<P, F>(
    spec: &CheckSpec<P::Msg>,
    subsets: &[BTreeSet<ProcessId>],
    factory: &F,
    proposals: &[Bit],
    tape: Vec<u32>,
    discovery_key: ViolationKey,
) -> Result<FoundViolation<P::Msg>, CheckError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let (mut current, points) = interpret_recorded(spec, subsets, factory, proposals, &tape)?;
    let mut key = ViolationKey::of(&points);

    loop {
        let mut improved = false;
        'candidates: for position in 0..current.choices.len() {
            if current.choices[position] == 0 {
                continue;
            }
            for lowered in 0..current.choices[position] {
                let mut candidate = current.choices.clone();
                candidate[position] = lowered;
                let (replayed, candidate_points) =
                    interpret_recorded(spec, subsets, factory, proposals, &candidate)?;
                if replayed.violation.is_none() {
                    continue;
                }
                let candidate_key = ViolationKey::of(&candidate_points);
                if candidate_key < key {
                    current = replayed;
                    key = candidate_key;
                    improved = true;
                    break 'candidates;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let kind = current
        .violation
        .expect("minimization preserves the violation");
    let provenance = vec![format!(
        "exhaustive model check: corrupted {{{}}}, choice tape {:?} ({} non-default choices)",
        current
            .corrupted
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        current.choices,
        key.weight,
    )];
    Ok(FoundViolation {
        corrupted: current.corrupted,
        choices: current.choices,
        key: discovery_key,
        certificate: Certificate {
            execution: current.execution,
            kind,
            provenance,
        },
    })
}

#[cfg(test)]
mod tests {
    use ba_protocols::broken::OneRoundAllToAll;
    use ba_sim::{Bit, ExecutorConfig, Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round};

    use crate::{check, merge_outcomes, replay, CheckOutcome, CheckSpec};

    /// Broadcasts its proposal once and decides it, whatever it hears: the
    /// payloads it receives never reach its outcome.
    #[derive(Clone, Default)]
    struct Announce {
        decision: Option<Bit>,
    }

    impl Protocol for Announce {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.decision = Some(proposal);
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn one_round_spec() -> CheckSpec<Bit> {
        CheckSpec::new(ExecutorConfig::new(4, 1), 1).send_only()
    }

    #[test]
    fn broken_one_round_protocol_yields_a_minimal_replayable_violation() {
        let spec = one_round_spec();
        let proposals = [Bit::Zero; 4];
        let outcome = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let violation = outcome.violation().expect("the protocol is broken");

        // Shrunk to a single corruption and a single omission.
        assert_eq!(violation.corrupted.len(), 1);
        assert_eq!(
            violation.choices.iter().filter(|&&c| c != 0).count(),
            2,
            "one corruption digit + one omission digit: {:?}",
            violation.choices
        );
        violation.certificate.verify().unwrap();

        // The shrunk tape replays to the same violation under direct
        // fault-model interpretation.
        let replayed = replay(
            &spec,
            |_| OneRoundAllToAll::new(),
            &proposals,
            &violation.choices,
        )
        .unwrap();
        assert_eq!(replayed.violation, Some(violation.certificate.kind));
        assert_eq!(replayed.choices, violation.choices);
        assert_eq!(replayed.execution, violation.certificate.execution);

        let report = outcome.report();
        assert!(report.complete, "the tiny space must be exhausted");
        // Root + 4 single-corruption subtrees of 2^3 omission patterns.
        assert_eq!(report.executions, 33);
        assert!(report.violations > 0);
    }

    #[test]
    fn correct_inputs_produce_an_exhaustiveness_certificate() {
        let spec = one_round_spec();
        let proposals = [Bit::One; 4];
        let outcome = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let report = match outcome {
            CheckOutcome::Exhausted(report) => report,
            CheckOutcome::Violation(v, _) => panic!("unexpected violation: {:?}", v.certificate),
        };
        assert!(report.complete);
        assert_eq!(report.executions, 33);
        assert_eq!(report.violations, 0);
        // Every branch differs in its faulty set or delivery pattern, so
        // each of the 33 executions is its own state here.
        assert_eq!(report.states(), 33);
    }

    #[test]
    fn thread_counts_do_not_change_the_outcome() {
        let spec = one_round_spec();
        for proposals in [[Bit::Zero; 4], [Bit::One; 4]] {
            let lone = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
            let wide = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 8).unwrap();
            assert_eq!(lone, wide);
        }
    }

    #[test]
    fn slices_merge_to_the_unsharded_outcome() {
        for proposals in [[Bit::Zero; 4], [Bit::One; 4]] {
            let whole = check(
                &one_round_spec(),
                |_| OneRoundAllToAll::new(),
                &proposals,
                2,
            )
            .unwrap();
            let shards: Vec<_> = (0..3)
                .map(|i| {
                    check(
                        &one_round_spec().slice(i, 3),
                        |_| OneRoundAllToAll::new(),
                        &proposals,
                        2,
                    )
                    .unwrap()
                })
                .collect();
            assert_eq!(merge_outcomes(&shards), whole);
        }
    }

    #[test]
    fn execution_budgets_cap_the_exploration_and_mark_it_incomplete() {
        let spec = one_round_spec().max_executions(5);
        let proposals = [Bit::One; 4];
        let outcome = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let report = outcome.report();
        assert!(!report.complete);
        assert!(report.executions <= 5);
    }

    #[test]
    fn capped_violation_search_still_merges_exactly() {
        // A budget that truncates phase 2 mid-subtree: merge(k) == run(1)
        // must hold even though each slice hits its caps at different
        // local points, because budgets key off the global subtree index.
        let spec = one_round_spec().max_executions(17);
        let proposals = [Bit::Zero; 4];
        let whole = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let shards: Vec<_> = (0..3)
            .map(|i| {
                check(
                    &one_round_spec().max_executions(17).slice(i, 3),
                    |_| OneRoundAllToAll::new(),
                    &proposals,
                    2,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(merge_outcomes(&shards), whole);
    }

    #[test]
    fn reordering_branches_are_explored_and_deduplicated() {
        // n = 2: the per-round delivery queue holds exactly two envelopes,
        // so reordering contributes one binary decision point per round.
        // Delivery order is semantically inert for this protocol, so the
        // permuted executions collapse to one fingerprint.
        let spec: CheckSpec<Bit> = CheckSpec::new(ExecutorConfig::new(2, 1), 1).reorder(true);
        let proposals = [Bit::Zero; 2];
        let outcome = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let report = outcome.report().clone();
        assert!(report.complete);
        // Exact counts: every swap branch pairs with an identity-order
        // twin, so a fingerprint that saw delivery order would read 18
        // states, and one that missed a fate or payload would read fewer
        // than 9.
        assert_eq!(report.executions, 18, "the swap branches must be explored");
        assert_eq!(
            report.states(),
            9,
            "permutation-equivalent executions must deduplicate"
        );
    }

    #[test]
    fn forged_payloads_reach_byzantine_violations_omissions_cannot() {
        // Proposals (1, 0, 0): omissions only ever push receivers toward
        // deciding 1, which every correct process does anyway. Forging
        // process 0's report down to 0 toward exactly one receiver splits
        // the correct processes — a genuinely Byzantine counterexample.
        let spec: CheckSpec<Bit> = CheckSpec::new(ExecutorConfig::new(3, 1), 1)
            .static_corruption([ProcessId(0)])
            .forge([Bit::Zero, Bit::One]);
        let proposals = [Bit::One, Bit::Zero, Bit::Zero];
        let outcome = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        let violation = outcome.violation().expect("forging splits the receivers");
        violation.certificate.verify().unwrap();
        assert_eq!(
            violation.choices.iter().filter(|&&c| c != 0).count(),
            1,
            "a single forged edge suffices: {:?}",
            violation.choices
        );
        let replayed = replay(
            &spec,
            |_| OneRoundAllToAll::new(),
            &proposals,
            &violation.choices,
        )
        .unwrap();
        assert_eq!(replayed.violation, Some(violation.certificate.kind));
    }

    #[test]
    fn forged_payloads_are_states_of_their_own() {
        // A forged edge and a delivered one differ only in the payload, and
        // nobody's outcome depends on it here, so only the payload tells
        // the two executions apart: every branch must stay its own state.
        let spec: CheckSpec<Bit> = CheckSpec::new(ExecutorConfig::new(3, 1), 1)
            .static_corruption([ProcessId(0)])
            .forge([Bit::One]);
        let outcome = check(&spec, |_| Announce::default(), &[Bit::Zero; 3], 1).unwrap();
        let report = outcome.report();
        assert!(report.complete);
        assert_eq!(report.executions, 36);
        assert_eq!(report.states(), 36, "forged payloads must separate states");
    }

    #[test]
    fn progress_hooks_observe_without_perturbing() {
        use std::sync::Mutex;

        let spec = one_round_spec();
        let proposals = [Bit::Zero; 4];
        let snapshots = Mutex::new(Vec::new());
        let hook = |p: crate::CheckProgress| snapshots.lock().unwrap().push(p);
        let observed = crate::check_with_progress(
            &spec,
            |_| OneRoundAllToAll::new(),
            &proposals,
            1,
            Some(&hook),
        )
        .unwrap();
        let silent = check(&spec, |_| OneRoundAllToAll::new(), &proposals, 1).unwrap();
        assert_eq!(observed, silent);

        let snapshots = snapshots.into_inner().unwrap();
        let last = snapshots.last().expect("at least one snapshot");
        assert_eq!(last.executions, observed.report().executions);
        assert_eq!(last.states, observed.report().states());
    }
}
