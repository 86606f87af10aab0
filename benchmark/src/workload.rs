//! The five workloads: their inputs (all derived from `--seed`), the fixed
//! work one repetition does, and the checks that its outputs are correct.
//!
//! Every repetition uses at most [`THREADS`] busy threads. The work runs
//! through the repository's public entry points only: the `ba_bench::dist`
//! protocol registry for sweeps and model checks, `ba_dist::Coordinator`
//! for the distributed sweep, and `ba_core::lowerbound::falsify`.

use std::fmt::Write as _;
use std::path::PathBuf;

use ba_bench::check::{CheckLabel, CheckSweepPoint};
use ba_bench::dist::{registry_check, scenario_campaign_report};
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_dist::{Coordinator, SweepSpec, WorkerCommand};
use ba_sim::{Bit, Campaign, CampaignPoint, CampaignReport, ProcessId, Protocol};

/// Binds `$factory` to the per-process factory of a registry protocol
/// label at `(n, t)` and evaluates `$body` once per label arm, yielding
/// `Ok($body)`, or `Err` for labels the benchmark does not use. The
/// factories are the ones `ba_bench::dist`'s registry builds; the traced
/// run wraps them, and the tests check both give identical outputs.
macro_rules! with_protocol {
    ($label:expr, $n:expr, $t:expr, $factory:ident => $body:expr) => {{
        #[allow(unused_variables)]
        let (n, t): (usize, usize) = ($n, $t);
        match $label {
            "dolev-strong" => {
                let $factory = ba_protocols::DolevStrong::factory(
                    ba_crypto::Keybook::new(n),
                    ba_sim::ProcessId(0),
                    ba_sim::Bit::Zero,
                );
                Ok($body)
            }
            "phase-king" => {
                let $factory = move |_: ba_sim::ProcessId| ba_protocols::PhaseKing::new(n, t);
                Ok($body)
            }
            "flood-set" => {
                let $factory = |_: ba_sim::ProcessId| ba_protocols::FloodSet::<ba_sim::Bit>::new();
                Ok($body)
            }
            "leader-echo" => {
                let $factory = |_: ba_sim::ProcessId| {
                    ba_protocols::broken::LeaderEcho::new(ba_sim::ProcessId(0))
                };
                Ok($body)
            }
            "own-proposal" => {
                let $factory = |_: ba_sim::ProcessId| ba_protocols::broken::OwnProposal::new();
                Ok($body)
            }
            "silent-constant-1" => {
                let $factory = |_: ba_sim::ProcessId| {
                    ba_protocols::broken::SilentConstant::new(ba_sim::Bit::One)
                };
                Ok($body)
            }
            "paranoid-echo" => {
                let $factory = |_: ba_sim::ProcessId| ba_protocols::broken::ParanoidEcho::new();
                Ok($body)
            }
            "one-round-all-to-all" => {
                let $factory = |_: ba_sim::ProcessId| ba_protocols::broken::OneRoundAllToAll::new();
                Ok($body)
            }
            other => Err(format!(
                "protocol label {other:?} is not used by the benchmark"
            )),
        }
    }};
}
pub(crate) use with_protocol;

/// The threads every repetition's work runs on. Not a flag: the numbers
/// are only comparable at one width. One, because a repetition is pinned to
/// one CPU, where the reference pacer of [`crate::reference`] measures the
/// speed the work got; work spread over two CPUs would meet speeds the
/// pacer does not see.
pub const THREADS: usize = 1;

/// The worker processes of `dist-sweep`, one worker thread each. They
/// share the repetition's CPU with the coordinator.
pub const DIST_WORKERS: usize = 2;

/// Each `--seed` owns the base seeds `16·seed … 16·seed + 15`, so two
/// seeds never share a pass over a grid.
const SEED_STRIDE: u64 = 16;

/// The first `count` base seeds `seed` owns.
fn base_seeds(seed: u64, count: u64) -> Vec<u64> {
    let first = seed.wrapping_mul(SEED_STRIDE);
    (0..count).map(|i| first.wrapping_add(i)).collect()
}

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Workload {
    /// Phase King on large grids: broadcast fan-out, inbox delivery and
    /// round steps dominate, on the batched fault path.
    SweepBroadcast,
    /// Dolev–Strong on many small grids under every adversary label:
    /// per-point set-up, signature chains, trait-dispatched fault models.
    SweepAdversarial,
    /// `sweep-adversarial`'s grid and seeds through the coordinator over
    /// two worker processes: the only added layer is `ba-dist`.
    DistSweep,
    /// The Theorem 2 falsifier: three survivors and three refutations.
    Falsify,
    /// Exhaustive model checks: two exhausted spaces, two refutations.
    ModelCheck,
}

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 5] = [
        Workload::SweepBroadcast,
        Workload::SweepAdversarial,
        Workload::DistSweep,
        Workload::Falsify,
        Workload::ModelCheck,
    ];

    /// The workload's name, as declared in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepBroadcast => "sweep-broadcast",
            Workload::SweepAdversarial => "sweep-adversarial",
            Workload::DistSweep => "dist-sweep",
            Workload::Falsify => "falsify",
            Workload::ModelCheck => "model-check",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The inputs of one repetition, built during set-up.
pub enum Input {
    /// A scenario sweep: one grid run once per base seed, in process.
    Sweep(Sweep),
    /// The same, through the coordinator and worker processes.
    Dist(Sweep, WorkerCommand),
    /// The falsifier jobs.
    Falsify(&'static [FalsifyJob]),
    /// The model-check jobs and the base seed handed to the registry.
    Check(&'static [CheckJob], u64),
}

/// A scenario sweep: a registry protocol over a grid, once per base seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sweep {
    /// The registry protocol label.
    pub protocol: &'static str,
    /// The grid, in sweep order.
    pub points: Vec<CampaignPoint>,
    /// One base seed per pass over the grid.
    pub base_seeds: Vec<u64>,
}

/// One falsifier job and the verdict it must reach.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FalsifyJob {
    /// Registry protocol label.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// `true` for a broken protocol the falsifier must refute.
    pub refute: bool,
}

impl FalsifyJob {
    /// The falsifier configuration of this job: both bit orientations and
    /// every critical-round scan run sequentially, on [`THREADS`] = 1. The
    /// default would fan them out over every CPU.
    pub fn config(&self) -> FalsifierConfig {
        FalsifierConfig::new(self.n, self.t)
            .with_parallel_orientations(false)
            .with_parallel_scan(false)
    }
}

/// Correct protocols survive at sizes where the paper's floor `⌊t²/32⌋`
/// bites; the planted sub-quadratic bugs are refuted at (96, 88).
pub const FALSIFY_JOBS: [FalsifyJob; 6] = [
    FalsifyJob {
        protocol: "dolev-strong",
        n: 128,
        t: 120,
        refute: false,
    },
    FalsifyJob {
        protocol: "flood-set",
        n: 96,
        t: 24,
        refute: false,
    },
    FalsifyJob {
        protocol: "phase-king",
        n: 96,
        t: 24,
        refute: false,
    },
    FalsifyJob {
        protocol: "leader-echo",
        n: 96,
        t: 88,
        refute: true,
    },
    FalsifyJob {
        protocol: "own-proposal",
        n: 96,
        t: 88,
        refute: true,
    },
    FalsifyJob {
        protocol: "silent-constant-1",
        n: 96,
        t: 88,
        refute: true,
    },
];

/// One exhaustive model check (send and receive omissions, corruption up
/// to `t`, all-zero proposals) with its exact expected outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckJob {
    /// Registry protocol label.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Fault horizon in rounds.
    pub rounds: u64,
    /// `true` when the check must find (shrink and replay) a violation.
    pub refute: bool,
    /// The exact number of distinct states the check visits.
    pub states: u64,
}

/// The model-check jobs: two spaces exhausted, two refuted.
pub const CHECK_JOBS: [CheckJob; 4] = [
    CheckJob {
        protocol: "phase-king",
        n: 4,
        t: 1,
        rounds: 3,
        refute: false,
        states: 57_345,
    },
    CheckJob {
        protocol: "flood-set",
        n: 4,
        t: 1,
        rounds: 2,
        refute: false,
        states: 16_385,
    },
    CheckJob {
        protocol: "paranoid-echo",
        n: 4,
        t: 1,
        rounds: 2,
        refute: true,
        states: 16_385,
    },
    CheckJob {
        protocol: "one-round-all-to-all",
        n: 5,
        t: 1,
        rounds: 1,
        refute: true,
        states: 1_281,
    },
];

impl CheckJob {
    /// The grid point carrying this check's space as its adversary label.
    pub fn point(&self) -> CampaignPoint {
        CampaignPoint::new(self.n, self.t)
            .with_adversary(CheckLabel::new(self.rounds).render())
            .with_inputs("zeros")
    }
}

/// The `sweep-broadcast` grid: Phase King at `n = 96 … 256`, `t = n/4`,
/// fault-free and with one isolated process, under four input profiles —
/// 48 points, one base seed.
pub fn broadcast_sweep(seed: u64) -> Sweep {
    let nts = (96..=256).step_by(32).map(|n| (n, n / 4));
    let points = Campaign::grid(
        nts,
        &["none", "isolation"],
        &["ones", "alternating", "majority-one", "random"],
    )
    .points()
    .to_vec();
    Sweep {
        protocol: "phase-king",
        points,
        base_seeds: base_seeds(seed, 1),
    }
}

/// The `sweep-adversarial` grid: Dolev–Strong at `n = 8, 12, …, 64` with
/// `t ∈ {1, n/8, n/4, ⌊(n−1)/3⌋}` (deduplicated, `t ≥ 1`), every adversary
/// label and four input profiles — 1,568 points, sixteen base seeds.
pub fn adversarial_sweep(seed: u64) -> Sweep {
    let mut nts = Vec::new();
    for n in (8..=64).step_by(4) {
        let mut ts = vec![1, n / 8, n / 4, (n - 1) / 3];
        ts.retain(|&t| t >= 1);
        ts.sort_unstable();
        ts.dedup();
        nts.extend(ts.into_iter().map(|t| (n, t)));
    }
    let points = Campaign::grid(
        nts,
        ba_bench::dist::ADVERSARIES,
        &["ones", "random", "alternating", "majority-one"],
    )
    .points()
    .to_vec();
    Sweep {
        protocol: "dolev-strong",
        points,
        base_seeds: base_seeds(seed, SEED_STRIDE),
    }
}

impl Input {
    /// Builds the inputs of `workload` from `seed`: the set-up a
    /// repetition pays before its timed work. `worker` is the program the
    /// distributed sweep spawns as its workers.
    pub fn build(workload: Workload, seed: u64, worker: PathBuf) -> Input {
        match workload {
            Workload::SweepBroadcast => Input::Sweep(broadcast_sweep(seed)),
            Workload::SweepAdversarial => Input::Sweep(adversarial_sweep(seed)),
            Workload::DistSweep => Input::Dist(
                adversarial_sweep(seed),
                WorkerCommand::new(worker).arg("--worker"),
            ),
            Workload::Falsify => Input::Falsify(&FALSIFY_JOBS),
            Workload::ModelCheck => Input::Check(&CHECK_JOBS, seed),
        }
    }

    /// Operations one repetition attempts, counted against failures: grid
    /// points, falsifier jobs, model checks.
    pub fn operations(&self) -> u64 {
        match self {
            Input::Sweep(sweep) | Input::Dist(sweep, _) => {
                (sweep.points.len() * sweep.base_seeds.len()) as u64
            }
            Input::Falsify(jobs) => jobs.len() as u64,
            Input::Check(jobs, _) => jobs.len() as u64,
        }
    }

    /// Runs the repetition's timed work, untraced.
    ///
    /// # Errors
    ///
    /// Any error an entry point reports; the repetition's operations then
    /// count as failed.
    pub fn run(&self) -> Result<Output, String> {
        match self {
            Input::Sweep(sweep) => sweep
                .base_seeds
                .iter()
                .map(|&base| scenario_campaign_report(&sweep.points, sweep.protocol, base, THREADS))
                .collect::<Result<_, _>>()
                .map(Output::Sweeps),
            Input::Dist(sweep, worker) => {
                let coordinator = Coordinator::new(worker.clone(), DIST_WORKERS);
                sweep
                    .base_seeds
                    .iter()
                    .map(|&base| {
                        let spec = dist_spec(sweep, base);
                        coordinator.run_campaign(&spec).map_err(|e| e.to_string())
                    })
                    .collect::<Result<_, _>>()
                    .map(Output::Sweeps)
            }
            Input::Falsify(jobs) => jobs
                .iter()
                .map(|job| {
                    let cfg = job.config();
                    with_protocol!(job.protocol, job.n, job.t, factory => falsify_job(&cfg, factory, |_| {}))?
                })
                .collect::<Result<_, _>>()
                .map(Output::Falsify),
            Input::Check(jobs, seed) => jobs
                .iter()
                .map(|job| registry_check(&job.point(), job.protocol, *seed, THREADS, None))
                .collect::<Result<_, _>>()
                .map(Output::Checks),
        }
    }
}

/// The coordinator's view of one pass of a sweep: one shard per worker
/// process, one worker thread each.
pub fn dist_spec(sweep: &Sweep, base_seed: u64) -> SweepSpec {
    SweepSpec::scenarios(sweep.points.clone(), sweep.protocol)
        .base_seed(base_seed)
        .worker_threads(1)
}

/// Runs one falsifier job with `factory` and re-verifies a refutation's
/// certificate, handing the verification time to `verified`.
///
/// # Errors
///
/// Simulator errors and certificates that fail to re-verify.
pub fn falsify_job<P, F>(
    cfg: &FalsifierConfig,
    factory: F,
    verified: impl FnOnce(std::time::Duration),
) -> Result<JobVerdict, String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let verdict =
        falsify(cfg, factory).map_err(|e| format!("falsify({}, {}): {e}", cfg.n, cfg.t))?;
    Ok(match verdict {
        Verdict::Violation(cert) => {
            let started = std::time::Instant::now();
            cert.verify().map_err(|e| {
                format!(
                    "certificate at ({}, {}) failed to re-verify: {e}",
                    cfg.n, cfg.t
                )
            })?;
            verified(started.elapsed());
            JobVerdict {
                refuted: true,
                verdict: format!("REFUTED ({})", cert.kind),
                max_message_complexity: cert.execution.message_complexity(),
                paper_bound: cfg.paper_bound(),
            }
        }
        Verdict::Survived(report) => JobVerdict {
            refuted: false,
            verdict: "survived".into(),
            max_message_complexity: report.max_message_complexity,
            paper_bound: cfg.paper_bound(),
        },
    })
}

/// One falsifier job's outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobVerdict {
    /// `true` iff a re-verified violation certificate was produced.
    pub refuted: bool,
    /// The one-line verdict.
    pub verdict: String,
    /// The largest message complexity observed (of the certificate's
    /// execution, when refuted).
    pub max_message_complexity: u64,
    /// The paper's floor `⌊t²/32⌋`.
    pub paper_bound: u64,
}

/// What one repetition produced.
#[derive(Clone, PartialEq, Debug)]
pub enum Output {
    /// One campaign report per base seed.
    Sweeps(Vec<CampaignReport<Bit>>),
    /// One verdict per falsifier job.
    Falsify(Vec<JobVerdict>),
    /// One outcome per model check.
    Checks(Vec<CheckSweepPoint>),
}

impl Output {
    /// Units of completed work, the numerator of `items_per_s`: grid
    /// points for sweeps, verdicts for the falsifier, distinct states for
    /// the model checker.
    pub fn items(&self) -> u64 {
        match self {
            Output::Sweeps(reports) => reports.iter().map(|r| r.outcomes.len() as u64).sum(),
            Output::Falsify(verdicts) => verdicts.len() as u64,
            Output::Checks(points) => points.iter().map(CheckSweepPoint::states).sum(),
        }
    }

    /// A stable digest of every output field the checks cover: per-point
    /// `ScenarioStats`, verdicts, bounds, state and execution counts, and
    /// shrunk tapes. Equal outputs digest equally across processes,
    /// thread counts and shard splits.
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        match self {
            Output::Sweeps(reports) => {
                for report in reports {
                    for o in &report.outcomes {
                        match &o.result {
                            Ok(s) => {
                                let _ = writeln!(
                                    h,
                                    "{} | {} {} {} {} {:?} {:?} {:?}",
                                    o.point,
                                    s.message_complexity,
                                    s.total_messages,
                                    s.rounds,
                                    s.quiescent,
                                    s.decided_by,
                                    s.decisions,
                                    s.violations,
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(h, "{} | error {e}", o.point);
                            }
                        }
                    }
                }
            }
            Output::Falsify(verdicts) => {
                for v in verdicts {
                    let _ = writeln!(
                        h,
                        "{} {} {} {}",
                        v.refuted, v.verdict, v.max_message_complexity, v.paper_bound
                    );
                }
            }
            Output::Checks(points) => {
                for p in points {
                    let _ = writeln!(
                        h,
                        "{} | {} {} {} {} {} {:?} {:?} {}",
                        p.point,
                        p.verdict,
                        p.states(),
                        p.executions,
                        p.max_depth,
                        p.violations,
                        p.corrupted,
                        p.choices,
                        p.complete,
                    );
                }
            }
        }
        format!("{:016x}", h.0)
    }

    /// The semantic checks that hold for every seed: no simulator errors
    /// and no property violations on the sweeps; every falsifier verdict as
    /// expected, survivors at or above the paper's floor; every model check
    /// complete with its exact verdict and state count.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn check(&self, input: &Input) -> Result<(), String> {
        match (self, input) {
            (Output::Sweeps(reports), Input::Sweep(sweep) | Input::Dist(sweep, _)) => {
                if reports.len() != sweep.base_seeds.len() {
                    return Err(format!(
                        "{} reports for {} seeds",
                        reports.len(),
                        sweep.base_seeds.len()
                    ));
                }
                for report in reports {
                    if report.outcomes.len() != sweep.points.len() {
                        return Err(format!(
                            "report covers {} of {} points",
                            report.outcomes.len(),
                            sweep.points.len()
                        ));
                    }
                    if let Some((point, err)) = report.errors().next() {
                        return Err(format!("simulator error at {point}: {err}"));
                    }
                    if let Some((point, violation)) = report.violations().next() {
                        return Err(format!("violation at {point}: {violation}"));
                    }
                }
                Ok(())
            }
            (Output::Falsify(verdicts), Input::Falsify(jobs)) => {
                if verdicts.len() != jobs.len() {
                    return Err(format!(
                        "{} verdicts for {} jobs",
                        verdicts.len(),
                        jobs.len()
                    ));
                }
                for (job, v) in jobs.iter().zip(verdicts) {
                    if v.refuted != job.refute {
                        return Err(format!(
                            "{} at ({}, {}): unexpected verdict {}",
                            job.protocol, job.n, job.t, v.verdict
                        ));
                    }
                    if !v.refuted && v.max_message_complexity < v.paper_bound {
                        return Err(format!(
                            "{} at ({}, {}) survived below the paper floor: {} < {}",
                            job.protocol, job.n, job.t, v.max_message_complexity, v.paper_bound
                        ));
                    }
                }
                Ok(())
            }
            (Output::Checks(points), Input::Check(jobs, _)) => {
                if points.len() != jobs.len() {
                    return Err(format!(
                        "{} outcomes for {} checks",
                        points.len(),
                        jobs.len()
                    ));
                }
                for (job, p) in jobs.iter().zip(points) {
                    if p.refuted != job.refute || p.states() != job.states || !p.complete {
                        return Err(format!(
                            "{} n{} t{} r{}: {} with {} states (complete: {}), expected {} with {} states",
                            job.protocol,
                            job.n,
                            job.t,
                            job.rounds,
                            p.verdict,
                            p.states(),
                            p.complete,
                            if job.refute { "a refutation" } else { "exhaustion" },
                            job.states,
                        ));
                    }
                }
                Ok(())
            }
            _ => Err("output does not match the workload".into()),
        }
    }
}

/// The digests of the default seed (`--seed 1`), pinned: a change that
/// alters any per-point statistic, verdict or state count shows as a
/// failed operation. The falsifier and model-check inputs do not depend on
/// the seed, so their digests hold for every seed.
pub fn pinned_digest(workload: Workload, seed: u64) -> Option<&'static str> {
    match (workload, seed) {
        (Workload::SweepBroadcast, 1) => Some("5b99b95b756d1c21"),
        (Workload::SweepAdversarial | Workload::DistSweep, 1) => Some("8828678557b4ae81"),
        (Workload::Falsify, _) => Some("ed9cfdfb3e6d6fb7"),
        (Workload::ModelCheck, _) => Some("dda8b4cfd37f7c22"),
        _ => None,
    }
}

/// FNV-1a over formatted text, so digests need no intermediate buffer.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes_and_seeds() {
        let broadcast = broadcast_sweep(1);
        assert_eq!(broadcast.points.len(), 48);
        assert_eq!(broadcast.base_seeds, vec![16]);
        let adversarial = adversarial_sweep(1);
        assert_eq!(adversarial.points.len(), 1_568);
        assert_eq!(adversarial.base_seeds, (16..32).collect::<Vec<u64>>());
        assert!(adversarial.points.iter().all(|p| p.t >= 1 && 3 * p.t < p.n));
        // Different seeds give disjoint base seeds.
        assert!(adversarial_sweep(2)
            .base_seeds
            .iter()
            .all(|s| !adversarial.base_seeds.contains(s)));
    }

    #[test]
    fn workload_names_round_trip_and_are_declared() {
        let declared = &crate::spec::spec().workloads;
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                declared.iter().any(|d| d == w.name()),
                "{} not declared",
                w.name()
            );
        }
        assert_eq!(declared.len(), Workload::ALL.len());
    }
}
