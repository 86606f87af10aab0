//! The Ω(t²) lower-bound argument (paper §3, Theorem 2) as an executable
//! **falsifier** for claimed weak-consensus protocols.
//!
//! The paper's proof assumes a weak-consensus algorithm `A` with message
//! complexity below `t²/32` and derives a contradiction through a chain of
//! constructed executions. The falsifier performs the identical chain on a
//! *real* protocol:
//!
//! 1. **Weak Validity / Termination** on the two fully correct uniform
//!    executions (`E_0` and its all-ones sibling) — also measuring `R_max`;
//! 2. **Lemma 2** on every isolation execution: an isolated process that
//!    disagrees with the correct processes and receive-omitted few messages
//!    is made *correct* via [`swap_omission`], yielding a concrete
//!    Agreement/Termination violation;
//! 3. **Lemma 3** on the mergeable pairs `(E_B(1)_0, E_C(1)_0)` and
//!    `(E_B(1)_0, E_C(1)_1)`: if group `A` decides differently, the
//!    [`merge`]d execution plus step 2 produces the violation;
//! 4. **WLOG flip**: if the default bit is 0, the whole argument re-runs on
//!    the [`BitFlipped`] protocol (Weak Validity is bit-symmetric);
//! 5. **Lemma 4**: scan for the critical round `R` where `E_B(R)_0` decides
//!    1 but `E_B(R+1)_0` decides 0;
//! 6. **Lemma 5**: merge `E_B(R or R+1)_0` with `E_C(R)_0` and apply step 2.
//!
//! Each produced [`Certificate`] carries the violating [`Execution`] and is
//! independently re-checkable with [`Certificate::verify`]. When every step
//! fails to produce a violation — which, per the paper, *must* happen for
//! correct protocols and can only happen because they send too many
//! messages for the Lemma 2 pigeonhole — the falsifier reports
//! [`SurvivalReport`] with the observed message complexity and the paper's
//! `t²/32` floor.
//!
//! With a [`FalsifierConfig::recorder`] attached, the run emits
//! orientation-scan telemetry: `falsifier.orientation` /
//! `falsifier.default_bit` / `falsifier.scan.critical` /
//! `falsifier.scan.exhausted` / `falsifier.verdict` events, plus
//! `falsifier.orientations`, `falsifier.executions`,
//! `falsifier.scan.rounds` and `falsifier.violations` counters and a
//! `falsifier.execution.messages` histogram — all derived from logical
//! argument state (the deterministic channel), never from the clock.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ba_obs::{NoopRecorder, Recorder};
use ba_sim::{
    Bit, CompressedTrace, Execution, ExecutionInvariantError, ExecutorConfig, Outcomes, Payload,
    PayloadArena, ProcessId, Protocol, Round, SimError,
};

use super::family::{FamilyRunner, Partition};
use super::flip::{unflip_execution, BitFlipped};
use super::merge::{merge, MergeError};
use super::swap::swap_omission;

/// Parameters of a falsification run.
#[derive(Clone)]
pub struct FalsifierConfig {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Fixed execution horizon: all constructed executions run exactly this
    /// many rounds so they are comparable. Termination certificates assert
    /// "undecided within the horizon" — generous by default
    /// (`4·(t + 2) + 8`, ample for every protocol in this repository, all
    /// of which decide within `3(t + 1) + 1` rounds).
    pub horizon: u64,
    /// Run the two bit orientations of the argument concurrently
    /// (`Some(choice)`), or decide by instance size (`None`, the default):
    /// big instances parallelize, small ones keep the sequential
    /// short-circuit — a refuted canonical orientation skips the flipped
    /// pass entirely, which thread-spawn overhead would otherwise swamp.
    pub parallel_orientations: Option<bool>,
    /// Precompute the Lemma 4 `E_B(k)` scan's isolation executions
    /// concurrently within one orientation (`Some(choice)`), or decide by
    /// instance size (`None`, the default — the same
    /// [`FalsifierConfig::PARALLEL_WORK_THRESHOLD`] gate as orientations).
    /// The precomputed executions are then replayed through the exact
    /// sequential examination order, so verdicts, statistics, and
    /// certificates are value-identical to the sequential scan; the only
    /// trade-off is speculative work past the critical round.
    pub parallel_scan: Option<bool>,
    /// Telemetry sink for orientation/scan events (`None` = off).
    /// Observation-only: everything recorded is logical argument state
    /// (orientations entered, executions explored, critical rounds), so
    /// snapshots for a fixed mode are schedule-independent. Sequential
    /// mode short-circuits a refuted canonical orientation while parallel
    /// mode always runs both, so exploration *counts* — like
    /// [`SurvivalReport::executions_explored`] — are comparable within a
    /// mode, not across modes.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for FalsifierConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FalsifierConfig")
            .field("n", &self.n)
            .field("t", &self.t)
            .field("horizon", &self.horizon)
            .field("parallel_orientations", &self.parallel_orientations)
            .field("parallel_scan", &self.parallel_scan)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl FalsifierConfig {
    /// Above this `n · t` product the per-orientation work dwarfs the cost
    /// of two scoped-thread spawns and forgoing the refuted-early
    /// short-circuit, so orientations default to running concurrently.
    pub const PARALLEL_WORK_THRESHOLD: usize = 512;

    /// Creates a configuration with the default horizon.
    ///
    /// # Panics
    ///
    /// Panics where [`FalsifierConfig::try_new`] returns an error.
    pub fn new(n: usize, t: usize) -> Self {
        Self::try_new(n, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a configuration with the default horizon, or says why the
    /// argument cannot run at `(n, t)`.
    ///
    /// # Errors
    ///
    /// Unless `2 ≤ t < n` and the paper partition fits (see
    /// [`Partition::paper_default`]).
    pub fn try_new(n: usize, t: usize) -> Result<Self, String> {
        if t >= n {
            return Err(format!("need t < n; t = {t}, n = {n}"));
        }
        Partition::try_paper_default(n, t)?;
        Ok(FalsifierConfig {
            n,
            t,
            horizon: 4 * (t as u64 + 2) + 8,
            parallel_orientations: None,
            parallel_scan: None,
            recorder: None,
        })
    }

    /// Forces orientation parallelism on or off (default: by size).
    pub fn with_parallel_orientations(mut self, parallel: bool) -> Self {
        self.parallel_orientations = Some(parallel);
        self
    }

    /// Whether this run executes its two bit orientations concurrently.
    pub fn orientations_in_parallel(&self) -> bool {
        self.parallel_orientations
            .unwrap_or(self.n * self.t >= Self::PARALLEL_WORK_THRESHOLD)
    }

    /// Forces Lemma 4 scan parallelism on or off (default: by size).
    pub fn with_parallel_scan(mut self, parallel: bool) -> Self {
        self.parallel_scan = Some(parallel);
        self
    }

    /// Attaches a telemetry recorder (see [`FalsifierConfig::recorder`]).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The configured recorder, or the zero-cost no-op sink.
    fn telemetry(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => &NoopRecorder,
        }
    }

    /// Whether this run precomputes the Lemma 4 `E_B(k)` scan in parallel.
    pub fn scan_in_parallel(&self) -> bool {
        self.parallel_scan
            .unwrap_or(self.n * self.t >= Self::PARALLEL_WORK_THRESHOLD)
    }

    /// The executor configuration used for every constructed execution:
    /// fixed horizon, no early stopping.
    pub fn executor_config(&self) -> ExecutorConfig {
        ExecutorConfig::new(self.n, self.t)
            .with_max_rounds(self.horizon)
            .with_stop_when_quiescent(false)
    }

    /// The `(A, B, C)` partition (paper Table 1).
    pub fn partition(&self) -> Partition {
        Partition::paper_default(self.n, self.t)
    }

    /// The paper's worst-case floor `⌊t²/32⌋` (Lemma 1). Vacuous for very
    /// small `t`; the falsifier's per-process pigeonhole is sharper.
    pub fn paper_bound(&self) -> u64 {
        (self.t as u64 * self.t as u64) / 32
    }
}

/// Which weak-consensus property a certificate violates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Two correct processes decided different values.
    Agreement {
        /// A correct process.
        p: ProcessId,
        /// Another correct process with a different decision.
        q: ProcessId,
    },
    /// A correct process never decided within the horizon.
    Termination {
        /// The undecided correct process.
        undecided: ProcessId,
        /// A decided correct process, when one exists (for context).
        decided: Option<ProcessId>,
    },
    /// All processes were correct and proposed the same bit, but some
    /// process decided the other bit.
    WeakValidity {
        /// The offending process.
        process: ProcessId,
        /// The bit everyone proposed.
        proposed: Bit,
        /// The bit the process decided.
        decided: Bit,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Agreement { p, q } => write!(f, "Agreement violated by {p} and {q}"),
            ViolationKind::Termination { undecided, .. } => {
                write!(f, "Termination violated by {undecided}")
            }
            ViolationKind::WeakValidity {
                process,
                proposed,
                decided,
            } => write!(
                f,
                "Weak Validity violated by {process}: all proposed {proposed}, it decided {decided}"
            ),
        }
    }
}

/// A machine-checkable counterexample: an omission-only execution in which
/// the claimed weak-consensus protocol violates one of its properties.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate<M> {
    /// The violating execution (valid per the five execution guarantees).
    pub execution: Execution<Bit, Bit, M>,
    /// What is violated, by whom.
    pub kind: ViolationKind,
    /// Human-readable derivation: which lemmas produced this execution.
    pub provenance: Vec<String>,
}

/// Why a certificate failed verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertificateError {
    /// The execution violates the model's guarantees.
    InvalidExecution(ExecutionInvariantError),
    /// A process named by the violation is not correct in the execution.
    NamedProcessFaulty(ProcessId),
    /// The recorded decisions do not exhibit the claimed violation.
    ClaimMismatch(String),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::InvalidExecution(e) => write!(f, "invalid execution: {e}"),
            CertificateError::NamedProcessFaulty(p) => {
                write!(f, "named process {p} is faulty in the execution")
            }
            CertificateError::ClaimMismatch(s) => write!(f, "claim mismatch: {s}"),
        }
    }
}

impl Error for CertificateError {}

impl<M: Payload> Certificate<M> {
    /// Independently re-checks this certificate: the execution satisfies
    /// the five execution guarantees with at most `t` omission-faulty
    /// processes, and the named correct processes exhibit exactly the
    /// claimed violation.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn verify(&self) -> Result<(), CertificateError> {
        let exec = &self.execution;
        exec.validate()
            .map_err(CertificateError::InvalidExecution)?;
        let check_correct = |p: ProcessId| {
            if exec.is_correct(p) {
                Ok(())
            } else {
                Err(CertificateError::NamedProcessFaulty(p))
            }
        };
        match self.kind {
            ViolationKind::Agreement { p, q } => {
                check_correct(p)?;
                check_correct(q)?;
                let (dp, dq) = (exec.decision_of(p), exec.decision_of(q));
                match (dp, dq) {
                    (Some(a), Some(b)) if a != b => Ok(()),
                    _ => Err(CertificateError::ClaimMismatch(format!(
                        "decisions of {p} and {q} are {dp:?} and {dq:?}"
                    ))),
                }
            }
            ViolationKind::Termination { undecided, decided } => {
                check_correct(undecided)?;
                if exec.decision_of(undecided).is_some() {
                    return Err(CertificateError::ClaimMismatch(format!(
                        "{undecided} actually decided"
                    )));
                }
                if let Some(q) = decided {
                    check_correct(q)?;
                    if exec.decision_of(q).is_none() {
                        return Err(CertificateError::ClaimMismatch(format!(
                            "{q} is claimed decided but is not"
                        )));
                    }
                }
                Ok(())
            }
            ViolationKind::WeakValidity {
                process,
                proposed,
                decided,
            } => {
                if !exec.faulty.is_empty() {
                    return Err(CertificateError::ClaimMismatch(
                        "weak-validity violations require a fully correct execution".into(),
                    ));
                }
                if exec.records.iter().any(|r| r.proposal != proposed) {
                    return Err(CertificateError::ClaimMismatch(
                        "proposals are not uniform".into(),
                    ));
                }
                if proposed == decided {
                    return Err(CertificateError::ClaimMismatch(
                        "claimed decision equals the proposal".into(),
                    ));
                }
                if exec.decision_of(process) != Some(&decided) {
                    return Err(CertificateError::ClaimMismatch(format!(
                        "{process} did not decide {decided}"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// Scans the correct processes of `exec` for a Termination or Agreement
/// violation, in ascending process order, returning the first one found.
///
/// This is the shared violation classifier of the enumeration checkers
/// ([`exhaustive_omission_check`](super::exhaustive::exhaustive_omission_check)
/// and the `ba-check` explorer): an undecided correct process yields
/// [`ViolationKind::Termination`] (paired with the first decided correct
/// process, when one exists, for context); two correct processes with
/// different decisions yield [`ViolationKind::Agreement`]. Weak Validity is
/// deliberately out of scope — it only applies to fully correct executions
/// and is checked separately by callers that enumerate those.
///
/// It reads `exec` through [`Outcomes`], so a full [`Execution`] and a
/// [`Fingerprinted`](ba_sim::Fingerprinted) run are classified by this one
/// function, each in the form it was recorded in.
pub fn weak_consensus_violation<E>(exec: &E) -> Option<ViolationKind>
where
    E: Outcomes<Input = Bit, Output = Bit>,
{
    let mut decided: Option<(Bit, ProcessId)> = None;
    for p in exec.correct() {
        match exec.decision_of(p) {
            None => {
                let partner = exec.correct().find(|q| exec.decision_of(*q).is_some());
                return Some(ViolationKind::Termination {
                    undecided: p,
                    decided: partner,
                });
            }
            Some(v) => match decided {
                Some((w, q)) if *v != w => {
                    return Some(ViolationKind::Agreement { p: q, q: p });
                }
                Some(_) => {}
                None => decided = Some((*v, p)),
            },
        }
    }
    None
}

/// The falsifier ran the complete argument without finding a violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SurvivalReport {
    /// The largest message complexity observed across all constructed
    /// executions. For a correct protocol, Theorem 2 puts the *worst-case*
    /// complexity at ≥ `t²/32`; the observed value is a lower estimate.
    pub max_message_complexity: u64,
    /// The paper's floor `⌊t²/32⌋`.
    pub paper_bound: u64,
    /// Number of executions constructed and examined.
    pub executions_explored: usize,
    /// Notes on why each avenue of the proof failed to produce a violation.
    pub notes: Vec<String>,
}

/// The overall outcome of a falsification run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict<M> {
    /// A concrete, verifiable counterexample was constructed.
    Violation(Certificate<M>),
    /// The protocol survived the full argument.
    Survived(SurvivalReport),
}

impl<M: Payload> Verdict<M> {
    /// The certificate, if a violation was found.
    pub fn certificate(&self) -> Option<&Certificate<M>> {
        match self {
            Verdict::Violation(c) => Some(c),
            Verdict::Survived(_) => None,
        }
    }

    /// `true` iff a violation was found.
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation(_))
    }
}

/// An error while driving the falsifier (distinct from finding or not
/// finding a violation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FalsifyError {
    /// The simulator rejected a run — the protocol violates the
    /// computational model itself.
    Sim(SimError),
    /// The merge construction failed — typically protocol non-determinism.
    Merge(MergeError),
}

impl fmt::Display for FalsifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FalsifyError::Sim(e) => write!(f, "simulation error: {e}"),
            FalsifyError::Merge(e) => write!(f, "merge error: {e}"),
        }
    }
}

impl Error for FalsifyError {}

impl From<SimError> for FalsifyError {
    fn from(e: SimError) -> Self {
        FalsifyError::Sim(e)
    }
}

impl From<MergeError> for FalsifyError {
    fn from(e: MergeError) -> Self {
        FalsifyError::Merge(e)
    }
}

struct Stats<'r> {
    recorder: &'r dyn Recorder,
    max_complexity: u64,
    explored: usize,
    notes: Vec<String>,
}

impl<'r> Stats<'r> {
    fn new(recorder: &'r dyn Recorder) -> Self {
        Stats {
            recorder,
            max_complexity: 0,
            explored: 0,
            notes: Vec::new(),
        }
    }

    fn observe<M: Payload>(&mut self, exec: &Execution<Bit, Bit, M>) {
        let complexity = exec.message_complexity();
        self.max_complexity = self.max_complexity.max(complexity);
        self.explored += 1;
        self.recorder.counter("falsifier.executions", 1, &[]);
        self.recorder
            .histogram("falsifier.execution.messages", complexity, &[]);
    }

    fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// Runs the complete Theorem 2 argument against `factory`'s protocol.
///
/// The two bit orientations — the canonical protocol and its
/// [`BitFlipped`] WLOG sibling — are **independent** full passes of the
/// argument; on big instances
/// ([`FalsifierConfig::orientations_in_parallel`]) they run concurrently
/// on the `ba_sim::par_map` pool (the same pool Campaign sweeps use), while
/// small instances keep the sequential short-circuit. The verdict is
/// orientation-ordered exactly as the sequential argument: a canonical
/// violation wins over a flipped one, and a survival report accumulates
/// canonical statistics before flipped ones, so survival results are
/// value-identical in both modes.
///
/// # Errors
///
/// Returns [`FalsifyError`] only for protocols that violate the
/// computational model (non-determinism, self-sends, revoked decisions);
/// "the protocol is broken as weak consensus" is a successful
/// [`Verdict::Violation`], not an error.
pub fn falsify<P, F>(cfg: &FalsifierConfig, factory: F) -> Result<Verdict<P::Msg>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let verdict = falsify_inner(cfg, factory)?;
    let recorder = cfg.telemetry();
    if verdict.is_violation() {
        recorder.counter("falsifier.violations", 1, &[]);
    }
    recorder.event(
        "falsifier.verdict",
        &[("violation", verdict.is_violation().into())],
    );
    Ok(verdict)
}

fn falsify_inner<P, F>(cfg: &FalsifierConfig, factory: F) -> Result<Verdict<P::Msg>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    if !cfg.orientations_in_parallel() {
        let mut stats = Stats::new(cfg.telemetry());
        if let Some(cert) = attempt(cfg, &factory, &mut stats, false)? {
            return Ok(Verdict::Violation(cert));
        }
        // WLOG step: rerun the whole argument on the bit-flipped protocol.
        let flipped_factory = |pid: ProcessId| BitFlipped::new(factory(pid));
        if let Some(cert) = attempt(cfg, &flipped_factory, &mut stats, true)? {
            return Ok(Verdict::Violation(unflip_certificate(cert)));
        }
        return Ok(survival(cfg, stats));
    }

    let mut outcomes = ba_sim::par_map(vec![false, true], 2, |_, flipped| {
        let mut stats = Stats::new(cfg.telemetry());
        let result = if flipped {
            // WLOG step: the whole argument on the bit-flipped protocol.
            let flipped_factory = |pid: ProcessId| BitFlipped::new(factory(pid));
            attempt(cfg, &flipped_factory, &mut stats, true)
        } else {
            attempt(cfg, &factory, &mut stats, false)
        };
        (result, stats)
    });
    let (flipped_outcome, flipped_stats) = outcomes.pop().expect("two orientations");
    let (canonical_outcome, mut stats) = outcomes.pop().expect("two orientations");
    if let Some(cert) = canonical_outcome? {
        return Ok(Verdict::Violation(cert));
    }
    if let Some(cert) = flipped_outcome? {
        return Ok(Verdict::Violation(unflip_certificate(cert)));
    }
    stats.max_complexity = stats.max_complexity.max(flipped_stats.max_complexity);
    stats.explored += flipped_stats.explored;
    stats.notes.extend(flipped_stats.notes);
    Ok(Verdict::Survived(survival_report(cfg, stats)))
}

fn survival<M: Payload>(cfg: &FalsifierConfig, stats: Stats<'_>) -> Verdict<M> {
    Verdict::Survived(survival_report(cfg, stats))
}

fn survival_report(cfg: &FalsifierConfig, stats: Stats<'_>) -> SurvivalReport {
    SurvivalReport {
        max_message_complexity: stats.max_complexity,
        paper_bound: cfg.paper_bound(),
        executions_explored: stats.explored,
        notes: stats.notes,
    }
}

fn unflip_certificate<M: Payload>(cert: Certificate<M>) -> Certificate<M> {
    let mut provenance = cert.provenance;
    provenance.push("mapped back from the bit-flipped orientation".into());
    let kind = match cert.kind {
        ViolationKind::WeakValidity {
            process,
            proposed,
            decided,
        } => ViolationKind::WeakValidity {
            process,
            proposed: proposed.flip(),
            decided: decided.flip(),
        },
        other => other,
    };
    Certificate {
        execution: unflip_execution(cert.execution),
        kind,
        provenance,
    }
}

/// Either a clean unanimous verdict of the correct processes, or a direct
/// violation certificate (the execution itself is the counterexample).
fn correct_verdict<M: Payload>(
    exec: &Execution<Bit, Bit, M>,
    provenance: &[String],
    label: &str,
) -> Result<Bit, Box<Certificate<M>>> {
    let mut decided: Option<(Bit, ProcessId)> = None;
    let mut undecided: Option<ProcessId> = None;
    for p in exec.correct() {
        match exec.decision_of(p) {
            Some(v) => match decided {
                Some((w, q)) if *v != w => {
                    return Err(Box::new(Certificate {
                        execution: exec.clone(),
                        kind: ViolationKind::Agreement { p: q, q: p },
                        provenance: with_note(
                            provenance,
                            format!("{label}: correct processes disagree directly"),
                        ),
                    }));
                }
                Some(_) => {}
                None => decided = Some((*v, p)),
            },
            None => undecided = Some(p),
        }
    }
    if let Some(u) = undecided {
        return Err(Box::new(Certificate {
            execution: exec.clone(),
            kind: ViolationKind::Termination {
                undecided: u,
                decided: decided.map(|(_, q)| q),
            },
            provenance: with_note(
                provenance,
                format!("{label}: a correct process never decides within the horizon"),
            ),
        }));
    }
    Ok(decided.expect("at least one correct process exists").0)
}

fn with_note(provenance: &[String], note: String) -> Vec<String> {
    let mut out = provenance.to_vec();
    out.push(note);
    out
}

/// The Lemma 2 engine, exposed for standalone use: given an execution in
/// which the processes of `group` are faulty (e.g. isolated per
/// Definition 1) while the rest decided `expected`, find a group member
/// that disagrees and can be made correct by [`swap_omission`] within the
/// fault budget — a direct, verifiable violation of weak consensus.
///
/// Returns `None` when every disagreeing member receive-omitted messages
/// from too many senders (the pigeonhole of Lemma 2 does not apply — the
/// protocol sent too much), which is exactly how correct quadratic
/// protocols escape.
///
/// `provenance` and `label` annotate the certificate's derivation trail.
pub fn lemma2_violation<M: Payload>(
    exec: &Execution<Bit, Bit, M>,
    group: &BTreeSet<ProcessId>,
    expected: Bit,
    provenance: &[String],
    label: &str,
) -> Option<Certificate<M>> {
    // Cheapest pivots first: fewer receive-omissions blame fewer senders.
    let mut candidates: Vec<(usize, ProcessId)> = group
        .iter()
        .filter(|p| exec.decision_of(**p) != Some(&expected))
        .map(|p| (exec.record(*p).all_receive_omitted().count(), *p))
        .collect();
    candidates.sort_unstable();
    for (_, pivot) in candidates {
        let Ok(swapped) = swap_omission(exec, pivot) else {
            continue;
        };
        if swapped.validate().is_err() {
            continue;
        }
        let Some(partner) = swapped
            .correct()
            .find(|q| *q != pivot && swapped.decision_of(*q) == Some(&expected))
        else {
            continue;
        };
        let kind = match swapped.decision_of(pivot) {
            Some(_) => ViolationKind::Agreement {
                p: pivot,
                q: partner,
            },
            None => ViolationKind::Termination {
                undecided: pivot,
                decided: Some(partner),
            },
        };
        return Some(Certificate {
            execution: swapped,
            kind,
            provenance: with_note(
                provenance,
                format!(
                    "{label}: Lemma 2 — swap_omission (Algorithm 4) makes disagreeing \
                     isolated process {pivot} correct"
                ),
            ),
        });
    }
    None
}

/// One full pass of the argument in one bit orientation.
#[allow(clippy::too_many_lines, clippy::type_complexity)]
fn attempt<P, F>(
    cfg: &FalsifierConfig,
    factory: &F,
    stats: &mut Stats<'_>,
    flipped: bool,
) -> Result<Option<Certificate<P::Msg>>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let ecfg = cfg.executor_config();
    let partition = cfg.partition();
    let runner = FamilyRunner::new(ecfg, factory, partition.clone());
    let orientation = if flipped { "flipped" } else { "canonical" };
    let mut prov = vec![format!("orientation: {orientation}")];
    let recorder = cfg.telemetry();
    recorder.counter("falsifier.orientations", 1, &[]);
    recorder.event(
        "falsifier.orientation",
        &[
            ("orientation", orientation.into()),
            ("n", cfg.n.into()),
            ("t", cfg.t.into()),
        ],
    );

    // Step 1: Weak Validity and Termination on the fully correct uniform
    // executions; also measure R_max.
    let mut rmax = Round(1);
    for bit in Bit::ALL {
        let e = runner.e0::<P>(bit)?;
        stats.observe(&e);
        for p in ProcessId::all(cfg.n) {
            match e.decision_of(p) {
                Some(v) if *v != bit => {
                    return Ok(Some(Certificate {
                        kind: ViolationKind::WeakValidity {
                            process: p,
                            proposed: bit,
                            decided: *v,
                        },
                        execution: e,
                        provenance: with_note(
                            &prov,
                            format!("fully correct all-{bit} execution decides {}", bit.flip()),
                        ),
                    }));
                }
                Some(_) => {}
                None => {
                    let decided = e.correct().find(|q| e.decision_of(*q).is_some());
                    return Ok(Some(Certificate {
                        kind: ViolationKind::Termination {
                            undecided: p,
                            decided,
                        },
                        execution: e,
                        provenance: with_note(
                            &prov,
                            format!("fully correct all-{bit} execution: {p} never decides"),
                        ),
                    }));
                }
            }
        }
        rmax = rmax.max(e.all_decided_by().expect("all decided above"));
    }
    prov.push(format!(
        "R_max = {} (all correct decide by then in E_0)",
        rmax.0
    ));

    // Helper: examine one isolation execution, require a clean verdict of
    // the correct processes, and apply the Lemma 2 engine to the isolated
    // group. Borrows: only a certificate copies the execution.
    let examine = |exec: &Execution<Bit, Bit, P::Msg>,
                   group: &BTreeSet<ProcessId>,
                   label: &str,
                   prov: &[String],
                   stats: &mut Stats<'_>|
     -> Result<Bit, Box<Certificate<P::Msg>>> {
        stats.observe(exec);
        debug_assert_eq!(exec.validate(), Ok(()));
        let verdict = correct_verdict(exec, prov, label)?;
        if let Some(cert) = lemma2_violation(exec, group, verdict, prov, label) {
            return Err(Box::new(cert));
        }
        Ok(verdict)
    };

    // Step 2/3: the k = 1 isolation executions and the Lemma 3 pairs.
    let eb1_0 = runner.isolated_b::<P>(Round(1), Bit::Zero)?;
    let x = match examine(&eb1_0, partition.b(), "E_B(1)_0", &prov, stats) {
        Ok(v) => v,
        Err(cert) => return Ok(Some(*cert)),
    };
    let ec1_0 = runner.isolated_c::<P>(Round(1), Bit::Zero)?;
    let y = match examine(&ec1_0, partition.c(), "E_C(1)_0", &prov, stats) {
        Ok(v) => v,
        Err(cert) => return Ok(Some(*cert)),
    };
    prov.push(format!("A decides {x} in E_B(1)_0 and {y} in E_C(1)_0"));
    if x != y {
        prov.push("Lemma 3 violated by (E_B(1)_0, E_C(1)_0): merging".into());
        return contradict::<P, F>(
            cfg,
            factory,
            &partition,
            stats,
            &prov,
            &eb1_0,
            Round(1),
            &ec1_0,
            Round(1),
            Bit::Zero,
        );
    }
    let ec1_1 = runner.isolated_c::<P>(Round(1), Bit::One)?;
    let z = match examine(&ec1_1, partition.c(), "E_C(1)_1", &prov, stats) {
        Ok(v) => v,
        Err(cert) => return Ok(Some(*cert)),
    };
    prov.push(format!("A decides {z} in E_C(1)_1"));
    if x != z {
        prov.push("Lemma 3 violated by (E_B(1)_0, E_C(1)_1): merging".into());
        return contradict::<P, F>(
            cfg,
            factory,
            &partition,
            stats,
            &prov,
            &eb1_0,
            Round(1),
            &ec1_1,
            Round(1),
            Bit::One,
        );
    }

    // Step 4: the WLOG orientation check.
    let default_bit = x;
    recorder.event(
        "falsifier.default_bit",
        &[
            ("orientation", orientation.into()),
            ("bit", default_bit.to_string().into()),
        ],
    );
    if default_bit == Bit::Zero {
        stats.note(format!(
            "{orientation}: default bit is 0; Lemma-3 pairs agree; the argument continues in \
             the other orientation"
        ));
        return Ok(None);
    }
    prov.push("default bit is 1 (paper's WLOG normal form)".into());

    // Step 5 (Lemma 4): scan for the critical round R. On big instances
    // the isolation executions for every k are precomputed concurrently,
    // then *replayed through the identical sequential walk* below — each
    // execution passes through `examine` (and the stats) in ascending-k
    // order, stopping at the first critical round, so verdicts and
    // statistics are value-identical to the sequential scan. Work past the
    // stopping point is speculative and discarded unexamined.
    let scan_rounds: Vec<u64> = (2..=rmax.0 + 1).collect();
    // Speculative executions are recorded *compressed* (payloads interned
    // into a per-task arena, fragments as u32 handles) while they wait their
    // turn — all-to-all traces repeat the same few payloads across n² slots
    // per round, so the resident cost of the whole scan is a handful of
    // distinct payloads per k instead of the full traces. Hydration in the
    // walk below is a lossless bit-for-bit round trip.
    let precomputed: Option<Vec<Result<_, SimError>>> =
        if cfg.scan_in_parallel() && scan_rounds.len() > 1 {
            Some(ba_sim::par_map(scan_rounds.clone(), 0, |_, k| {
                let mut arena = PayloadArena::new();
                runner
                    .isolated_b_with::<P, _>(Round(k), Bit::Zero, CompressedTrace::new(&mut arena))
                    .map(|compressed| (arena, compressed))
            }))
        } else {
            None
        };
    let mut precomputed = precomputed.map(Vec::into_iter);
    let mut prev = eb1_0;
    let mut critical: Option<(
        Round,
        Execution<Bit, Bit, P::Msg>,
        Execution<Bit, Bit, P::Msg>,
    )> = None;
    for k in scan_rounds {
        recorder.counter("falsifier.scan.rounds", 1, &[]);
        let e = match precomputed.as_mut() {
            Some(runs) => {
                let (arena, compressed) = runs.next().expect("one precomputed run per k")?;
                compressed.hydrate(&arena)
            }
            None => runner.isolated_b::<P>(Round(k), Bit::Zero)?,
        };
        let d = match examine(&e, partition.b(), &format!("E_B({k})_0"), &prov, stats) {
            Ok(v) => v,
            Err(cert) => return Ok(Some(*cert)),
        };
        if d == Bit::Zero {
            critical = Some((Round(k - 1), prev, e));
            break;
        }
        prev = e;
    }
    let Some((r, eb_r, eb_r1)) = critical else {
        stats.note(format!(
            "{orientation}: no critical round up to R_max + 1 = {} — A never abandons the \
             default within the horizon",
            rmax.0 + 1
        ));
        recorder.event(
            "falsifier.scan.exhausted",
            &[
                ("orientation", orientation.into()),
                ("r_max", rmax.0.into()),
            ],
        );
        return Ok(None);
    };
    prov.push(format!(
        "Lemma 4: critical round R = {} (A decides 1 in E_B({})_0 and 0 in E_B({})_0)",
        r.0,
        r.0,
        r.0 + 1
    ));
    recorder.event(
        "falsifier.scan.critical",
        &[
            ("orientation", orientation.into()),
            ("round", r.0.into()),
            ("r_max", rmax.0.into()),
        ],
    );

    // Step 6 (Lemma 5): merge the appropriate pair with E_C(R)_0.
    let ec_r = runner.isolated_c::<P>(r, Bit::Zero)?;
    let w = match examine(
        &ec_r,
        partition.c(),
        &format!("E_C({})_0", r.0),
        &prov,
        stats,
    ) {
        Ok(v) => v,
        Err(cert) => return Ok(Some(*cert)),
    };
    prov.push(format!("A decides {w} in E_C({})_0", r.0));
    let outcome = if w == Bit::One {
        prov.push("merging E_B(R+1)_0 (A: 0) with E_C(R)_0 (A: 1) — Lemma 5".into());
        contradict::<P, F>(
            cfg,
            factory,
            &partition,
            stats,
            &prov,
            &eb_r1,
            r.next(),
            &ec_r,
            r,
            Bit::Zero,
        )
    } else {
        prov.push("merging E_B(R)_0 (A: 1) with E_C(R)_0 (A: 0) — Lemma 5".into());
        contradict::<P, F>(
            cfg,
            factory,
            &partition,
            stats,
            &prov,
            &eb_r,
            r,
            &ec_r,
            r,
            Bit::Zero,
        )
    }?;
    if outcome.is_none() {
        stats.note(format!(
            "{orientation}: merged execution around the critical round produced no \
             low-omission disagreeing process (Lemma 2 pigeonhole holds — the protocol \
             sends too many messages)"
        ));
    }
    Ok(outcome)
}

/// The Lemma 3/5 endgame: merge a mergeable pair whose `A`-decisions differ
/// and extract a violation via the Lemma 2 engine.
#[allow(clippy::too_many_arguments)]
fn contradict<P, F>(
    cfg: &FalsifierConfig,
    factory: &F,
    partition: &Partition,
    stats: &mut Stats<'_>,
    prov: &[String],
    eb: &Execution<Bit, Bit, P::Msg>,
    kb: Round,
    ec: &Execution<Bit, Bit, P::Msg>,
    kc: Round,
    b: Bit,
) -> Result<Option<Certificate<P::Msg>>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let ecfg = cfg.executor_config();
    let merged = merge::<P, _>(&ecfg, factory, partition, eb, kb, ec, kc, b)?;
    stats.observe(&merged);
    debug_assert_eq!(merged.validate(), Ok(()));
    // Lemma 16 sanity: isolated groups cannot distinguish E* from their
    // originals, so they decide identically.
    debug_assert!(partition
        .b()
        .iter()
        .all(|p| merged.indistinguishable_to(eb, *p)));
    debug_assert!(partition
        .c()
        .iter()
        .all(|p| merged.indistinguishable_to(ec, *p)));

    let prov = with_note(
        prov,
        format!("merged execution E* (Algorithm 5) with B isolated from {kb}, C from {kc}"),
    );
    let a_verdict = match correct_verdict(&merged, &prov, "E*") {
        Ok(v) => v,
        Err(cert) => return Ok(Some(*cert)),
    };
    let prov = with_note(&prov, format!("group A decides {a_verdict} in E*"));
    for (group, label) in [(partition.b(), "E*/B"), (partition.c(), "E*/C")] {
        if let Some(cert) = lemma2_violation(&merged, group, a_verdict, &prov, label) {
            return Ok(Some(cert));
        }
    }
    stats.note(
        "merged execution: every disagreeing isolated process receive-omitted messages from \
         too many correct senders for swap_omission to stay within the fault budget",
    );
    Ok(None)
}

/// The outcome of the standalone Lemma 4 analysis (experiment EXP-L4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CriticalRoundReport {
    /// `true` iff the default-1 structure appeared only after the WLOG bit
    /// flip.
    pub flipped: bool,
    /// The bit group `A` decides in `E_B(1)_0` in the canonical
    /// orientation.
    pub default_bit_canonical: Bit,
    /// The round by which all processes decide in the fault-free all-zeros
    /// execution (of the analyzed orientation).
    pub r_max: Round,
    /// The critical round `R`: `A` decides the default in `E_B(R)_0` and
    /// abandons it in `E_B(R+1)_0`.
    pub critical_round: Round,
}

/// Standalone Lemma 4 analysis: locate the critical round of a protocol, if
/// its isolation behavior has the default-bit structure (in either bit
/// orientation).
///
/// Returns `None` when the structure is absent — e.g. for sender-driven
/// protocols whose `A`-decision tracks the proposals rather than fault
/// detection, where the Theorem 2 argument instead proceeds through the
/// Lemma 3 pair mismatch.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn find_critical_round<P, F>(
    cfg: &FalsifierConfig,
    factory: F,
) -> Result<Option<CriticalRoundReport>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let canonical_default = default_bit::<P, _>(cfg, &factory)?;
    match canonical_default {
        Some(Bit::One) => {
            let found = scan_critical::<P, _>(cfg, &factory)?;
            Ok(found.map(|(r_max, critical_round)| CriticalRoundReport {
                flipped: false,
                default_bit_canonical: Bit::One,
                r_max,
                critical_round,
            }))
        }
        Some(Bit::Zero) => {
            let flipped_factory = |pid: ProcessId| BitFlipped::new(factory(pid));
            let flipped_default = default_bit::<BitFlipped<P>, _>(cfg, &flipped_factory)?;
            if flipped_default != Some(Bit::One) {
                return Ok(None);
            }
            let found = scan_critical::<BitFlipped<P>, _>(cfg, &flipped_factory)?;
            Ok(found.map(|(r_max, critical_round)| CriticalRoundReport {
                flipped: true,
                default_bit_canonical: Bit::Zero,
                r_max,
                critical_round,
            }))
        }
        None => Ok(None),
    }
}

/// The `A`-decision in `E_B(1)_0`, or `None` if `A` is not unanimous.
fn default_bit<P, F>(cfg: &FalsifierConfig, factory: &F) -> Result<Option<Bit>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let partition = cfg.partition();
    let runner = FamilyRunner::new(cfg.executor_config(), factory, partition.clone());
    let eb = runner.isolated_b::<P>(Round(1), Bit::Zero)?;
    Ok(eb.unanimous_decision(partition.a().iter()))
}

fn scan_critical<P, F>(
    cfg: &FalsifierConfig,
    factory: &F,
) -> Result<Option<(Round, Round)>, FalsifyError>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let partition = cfg.partition();
    let runner = FamilyRunner::new(cfg.executor_config(), factory, partition.clone());
    let e0 = runner.e0::<P>(Bit::Zero)?;
    let Some(r_max) = e0.all_decided_by() else {
        return Ok(None);
    };
    for k in 2..=r_max.0 + 1 {
        let e = runner.isolated_b::<P>(Round(k), Bit::Zero)?;
        match e.unanimous_decision(partition.a().iter()) {
            Some(Bit::Zero) => return Ok(Some((r_max, Round(k - 1)))),
            Some(Bit::One) => {}
            None => return Ok(None),
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_protocols::broken::{LeaderEcho, OneRoundAllToAll, OwnProposal, SilentConstant};

    #[test]
    fn parallel_and_sequential_orientations_agree() {
        use ba_crypto::Keybook;
        use ba_protocols::DolevStrong;
        // A surviving protocol: both orientations always run, so the
        // survival reports must be value-identical across modes.
        let (n, t) = (8, 2);
        let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero);
        let sequential = falsify(
            &FalsifierConfig::new(n, t).with_parallel_orientations(false),
            &factory,
        )
        .unwrap();
        let parallel = falsify(
            &FalsifierConfig::new(n, t).with_parallel_orientations(true),
            &factory,
        )
        .unwrap();
        match (&sequential, &parallel) {
            (Verdict::Survived(a), Verdict::Survived(b)) => assert_eq!(a, b),
            other => panic!("dolev-strong should survive in both modes: {other:?}"),
        }
        // A refuted protocol yields the same certificate in both modes (the
        // canonical orientation wins regardless of scheduling).
        let seq = falsify(
            &FalsifierConfig::new(n, t).with_parallel_orientations(false),
            |_: ProcessId| LeaderEcho::new(ProcessId(0)),
        )
        .unwrap();
        let par = falsify(
            &FalsifierConfig::new(n, t).with_parallel_orientations(true),
            |_: ProcessId| LeaderEcho::new(ProcessId(0)),
        )
        .unwrap();
        assert_eq!(
            seq.certificate().map(|c| (&c.kind, &c.provenance)),
            par.certificate().map(|c| (&c.kind, &c.provenance)),
        );
    }

    #[test]
    fn orientation_parallelism_defaults_by_instance_size() {
        assert!(!FalsifierConfig::new(8, 2).orientations_in_parallel());
        assert!(FalsifierConfig::new(96, 88).orientations_in_parallel());
        assert!(FalsifierConfig::new(8, 2)
            .with_parallel_orientations(true)
            .orientations_in_parallel());
    }

    #[test]
    fn parallel_and_sequential_scans_agree() {
        use ba_protocols::broken::ParanoidEcho;
        let (n, t) = (8, 2);
        let run = |parallel: bool| {
            falsify(
                &FalsifierConfig::new(n, t).with_parallel_scan(parallel),
                |_: ProcessId| ParanoidEcho::new(),
            )
            .unwrap()
        };
        // ParanoidEcho reaches the Lemma 4 critical-round scan and then
        // survives, so the survival reports (statistics, notes, explored
        // counts) must be value-identical across scan modes.
        match (&run(false), &run(true)) {
            (Verdict::Survived(a), Verdict::Survived(b)) => assert_eq!(a, b),
            other => panic!("paranoid-echo should survive in both modes: {other:?}"),
        }
        // A refuted protocol yields the same certificate either way.
        let refuted = |parallel: bool| {
            falsify(
                &FalsifierConfig::new(n, t).with_parallel_scan(parallel),
                |_: ProcessId| LeaderEcho::new(ProcessId(0)),
            )
            .unwrap()
        };
        let (seq, par) = (refuted(false), refuted(true));
        assert_eq!(
            seq.certificate().map(|c| (&c.kind, &c.provenance)),
            par.certificate().map(|c| (&c.kind, &c.provenance)),
        );
    }

    #[test]
    fn scan_parallelism_defaults_by_instance_size() {
        assert!(!FalsifierConfig::new(8, 2).scan_in_parallel());
        assert!(FalsifierConfig::new(96, 88).scan_in_parallel());
        assert!(FalsifierConfig::new(8, 2)
            .with_parallel_scan(true)
            .scan_in_parallel());
    }

    #[test]
    fn telemetry_is_observation_only_and_schedule_independent() {
        use ba_obs::Aggregator;
        use ba_protocols::broken::ParanoidEcho;
        use std::sync::Arc;

        // ParanoidEcho traverses the full argument (both orientations, the
        // Lemma 4 scan, the Lemma 5 merge) and survives.
        let (n, t) = (8, 2);
        let run = |recorder: Option<Arc<Aggregator>>, scan_parallel: bool| {
            let mut cfg = FalsifierConfig::new(n, t)
                .with_parallel_orientations(false)
                .with_parallel_scan(scan_parallel);
            if let Some(agg) = &recorder {
                cfg = cfg.with_recorder(agg.clone());
            }
            falsify(&cfg, |_: ProcessId| ParanoidEcho::new()).unwrap()
        };

        // Recording changes nothing about the verdict.
        let plain = run(None, false);
        let agg_seq = Arc::new(Aggregator::new());
        let recorded = run(Some(agg_seq.clone()), false);
        match (&plain, &recorded) {
            (Verdict::Survived(a), Verdict::Survived(b)) => assert_eq!(a, b),
            other => panic!("paranoid-echo should survive: {other:?}"),
        }

        // The deterministic channel is identical whether the Lemma 4 scan
        // precomputes in parallel or walks sequentially.
        let agg_par = Arc::new(Aggregator::new());
        let _ = run(Some(agg_par.clone()), true);
        let seq = agg_seq.snapshot().deterministic();
        let par = agg_par.snapshot().deterministic();
        assert_eq!(seq, par);

        // Counters mirror the survival report's logical quantities.
        let Verdict::Survived(report) = &recorded else {
            unreachable!()
        };
        assert_eq!(
            seq.counters["falsifier.executions"],
            report.executions_explored as u64
        );
        assert_eq!(seq.counters["falsifier.orientations"], 2);
        assert_eq!(seq.events["falsifier.orientation"], 2);
        assert_eq!(seq.events["falsifier.verdict"], 1);
        assert!(seq.counters["falsifier.scan.rounds"] >= 1);
        assert!(!seq.counters.contains_key("falsifier.violations"));

        // A refuted protocol counts its violation.
        let agg = Arc::new(Aggregator::new());
        let cfg = FalsifierConfig::new(n, t).with_recorder(agg.clone());
        let verdict = falsify(&cfg, |_| LeaderEcho::new(ProcessId(0))).unwrap();
        assert!(verdict.is_violation());
        let snap = agg.snapshot().deterministic();
        assert_eq!(snap.counters["falsifier.violations"], 1);
    }

    #[test]
    fn silent_constant_one_fails_weak_validity() {
        let cfg = FalsifierConfig::new(8, 2);
        let verdict = falsify(&cfg, |_| SilentConstant::new(Bit::One)).unwrap();
        let cert = verdict.certificate().expect("violation expected");
        cert.verify().unwrap();
        assert!(matches!(
            cert.kind,
            ViolationKind::WeakValidity {
                proposed: Bit::Zero,
                decided: Bit::One,
                ..
            }
        ));
    }

    #[test]
    fn silent_constant_zero_fails_weak_validity() {
        let cfg = FalsifierConfig::new(8, 2);
        let verdict = falsify(&cfg, |_| SilentConstant::new(Bit::Zero)).unwrap();
        let cert = verdict.certificate().expect("violation expected");
        cert.verify().unwrap();
        assert!(matches!(
            cert.kind,
            ViolationKind::WeakValidity {
                proposed: Bit::One,
                decided: Bit::Zero,
                ..
            }
        ));
    }

    #[test]
    fn own_proposal_fails_agreement_via_merge() {
        let cfg = FalsifierConfig::new(8, 2);
        let verdict = falsify(&cfg, |_| OwnProposal::new()).unwrap();
        let cert = verdict.certificate().expect("violation expected");
        cert.verify().unwrap();
        assert!(matches!(cert.kind, ViolationKind::Agreement { .. }));
        // The provenance should show the merge path.
        assert!(cert
            .provenance
            .iter()
            .any(|s| s.contains("merged execution")));
    }

    #[test]
    fn leader_echo_fails_agreement_via_lemma_2() {
        for (n, t) in [(8usize, 2usize), (12, 4), (16, 8)] {
            let cfg = FalsifierConfig::new(n, t);
            let verdict = falsify(&cfg, |_| LeaderEcho::new(ProcessId(0))).unwrap();
            let cert = verdict
                .certificate()
                .expect("violation expected at n={n}, t={t}");
            cert.verify().unwrap();
            assert!(matches!(cert.kind, ViolationKind::Agreement { .. }));
        }
    }

    #[test]
    fn certificates_reject_tampering() {
        let cfg = FalsifierConfig::new(8, 2);
        let verdict = falsify(&cfg, |_| LeaderEcho::new(ProcessId(0))).unwrap();
        let cert = verdict.certificate().unwrap().clone();
        let ViolationKind::Agreement { p, q } = cert.kind else {
            panic!("expected an agreement certificate")
        };
        // Tamper 1: name a faulty process as the violator.
        let mut bad = cert.clone();
        let faulty = *bad
            .execution
            .faulty
            .iter()
            .next()
            .expect("certificate has faults");
        bad.kind = ViolationKind::Agreement { p: faulty, q };
        assert!(matches!(
            bad.verify(),
            Err(CertificateError::NamedProcessFaulty(_))
        ));
        // Tamper 2: claim two processes that actually agree.
        let mut bad = cert.clone();
        let agree_with_q = bad
            .execution
            .correct()
            .find(|r| *r != q && bad.execution.decision_of(*r) == bad.execution.decision_of(q))
            .expect("some correct process agrees with q");
        bad.kind = ViolationKind::Agreement { p: agree_with_q, q };
        assert!(matches!(
            bad.verify(),
            Err(CertificateError::ClaimMismatch(_))
        ));
        // Tamper 3: excess fault blame breaks the execution guarantees.
        let mut bad = cert.clone();
        for pid in ProcessId::all(bad.execution.n) {
            bad.execution.faulty.insert(pid);
        }
        assert!(matches!(
            bad.verify(),
            Err(CertificateError::InvalidExecution(_))
        ));
        // The untampered certificate still verifies.
        cert.verify().unwrap();
        let _ = p;
    }

    #[test]
    fn one_round_all_to_all_survives_the_paper_recipe() {
        // n(n-1) messages: the Lemma 2 pigeonhole never applies, exactly as
        // the theory predicts. (The protocol is still broken — the random
        // prober finds the violation; see prober tests.)
        let cfg = FalsifierConfig::new(8, 2);
        let verdict = falsify(&cfg, |_| OneRoundAllToAll::new()).unwrap();
        match verdict {
            Verdict::Survived(report) => {
                assert!(report.max_message_complexity >= report.paper_bound);
                assert!(!report.notes.is_empty());
            }
            Verdict::Violation(cert) => {
                panic!(
                    "unexpected violation: {:?} / {:?}",
                    cert.kind, cert.provenance
                )
            }
        }
    }

    #[test]
    fn config_rejects_t_below_two() {
        let result = std::panic::catch_unwind(|| FalsifierConfig::new(5, 1));
        assert!(result.is_err());
    }
}
