//! Shared measurement helpers for the benches and the `paper-experiments`
//! binary: Campaign-driven sweeps plus a dependency-free timing harness
//! (the workspace builds offline, so there is no criterion).

use ba_core::lowerbound::{falsify, FalsifierConfig, FamilyRunner, Partition, Verdict};
use ba_sim::{
    Bit, Campaign, CampaignPoint, ExecutorConfig, Payload, ProcessId, Protocol, Round, Scenario,
};

pub mod check;
pub mod dist;
pub mod harness;
pub mod search;

/// A labeled measurement of one protocol's observed message complexity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComplexityMeasurement {
    /// Protocol label.
    pub protocol: String,
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// The maximum message complexity across the exercised executions.
    pub observed_max: u64,
    /// The paper's `⌊t²/32⌋` floor.
    pub paper_bound: u64,
    /// Number of executions exercised.
    pub executions: usize,
}

impl ComplexityMeasurement {
    /// `true` iff the observation is consistent with Theorem 2 (only
    /// meaningful for *correct* weak-consensus protocols).
    pub fn consistent_with_bound(&self) -> bool {
        self.observed_max >= self.paper_bound
    }
}

/// Exercises a weak-consensus protocol across the Theorem 2 execution
/// families (fault-free ×2, `E_B(k)` and `E_C(k)` sweeps) and reports the
/// maximum observed message complexity.
///
/// This is a *lower estimate* of the worst case, which suffices for the
/// bound-shape experiments: correct protocols land above `t²/32`, the
/// broken sub-quadratic ones far below.
///
/// # Panics
///
/// Panics on simulator errors (protocol bugs).
pub fn measure_family_complexity<P, F>(
    label: &str,
    n: usize,
    t: usize,
    factory: F,
) -> ComplexityMeasurement
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let cfg = ExecutorConfig::new(n, t);
    let mut max = 0u64;
    let mut executions = 0usize;
    let mut observe = |c: u64| {
        max = max.max(c);
        executions += 1;
    };

    for bit in Bit::ALL {
        let exec = Scenario::config(&cfg)
            .protocol(&factory)
            .uniform_input(bit)
            .run()
            .expect("fault-free run");
        observe(exec.message_complexity());
    }
    if t >= 2 {
        let partition = Partition::paper_default(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition);
        for k in 1..=4u64 {
            for bit in Bit::ALL {
                let eb = runner.isolated_b::<P>(Round(k), bit).expect("family run");
                observe(eb.message_complexity());
                let ec = runner.isolated_c::<P>(Round(k), bit).expect("family run");
                observe(ec.message_complexity());
            }
        }
    }
    ComplexityMeasurement {
        protocol: label.to_string(),
        n,
        t,
        observed_max: max,
        paper_bound: (t as u64 * t as u64) / 32,
        executions,
    }
}

/// Runs one fault-free execution and returns it (bench helper).
///
/// # Panics
///
/// Panics on simulator errors.
pub fn run_fault_free<P, F>(
    n: usize,
    t: usize,
    factory: F,
    proposal: Bit,
) -> ba_sim::Execution<Bit, P::Output, P::Msg>
where
    P: Protocol<Input = Bit>,
    P::Msg: Payload,
    F: Fn(ProcessId) -> P,
{
    Scenario::new(n, t)
        .protocol(factory)
        .uniform_input(proposal)
        .run()
        .expect("fault-free run")
}

/// One grid point's result of a parallel falsifier sweep.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FalsifierSweepPoint {
    /// The swept grid point.
    pub point: CampaignPoint,
    /// `true` iff the falsifier produced a verified violation certificate.
    pub refuted: bool,
    /// The falsifier's one-line verdict.
    pub verdict: String,
    /// The largest message complexity the falsifier observed.
    pub max_message_complexity: u64,
    /// The paper's `⌊t²/32⌋` floor at this point.
    pub paper_bound: u64,
}

/// The canonical falsifier-sweep grid over `(n, t)` points: one labeled
/// [`CampaignPoint`] per pair. Both the in-process [`falsifier_sweep`] and
/// the distributed [`dist::distributed_falsifier_sweep`] sweep exactly these
/// points, which is what makes their results comparable value-for-value.
pub(crate) fn falsifier_points(nts: &[(usize, usize)]) -> Vec<CampaignPoint> {
    Campaign::grid(nts.iter().copied(), &["theorem-2-families"], &["uniform"])
        .points()
        .to_vec()
}

/// Runs the Theorem 2 falsifier at one grid point — the unit of work shared
/// by [`falsifier_sweep`] and the `campaign_worker` shard executor.
///
/// # Panics
///
/// Panics on simulator errors (protocol bugs).
pub(crate) fn falsify_point<P, F>(point: &CampaignPoint, factory: F) -> FalsifierSweepPoint
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    falsify_point_recorded(point, factory, None)
}

/// [`falsify_point`] with the falsifier's own orientation-scan telemetry
/// wired to `recorder` (the same sink the surrounding Campaign records
/// into, when sweeps run with one).
pub(crate) fn falsify_point_recorded<P, F>(
    point: &CampaignPoint,
    factory: F,
    recorder: Option<std::sync::Arc<dyn ba_obs::Recorder>>,
) -> FalsifierSweepPoint
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let mut cfg = FalsifierConfig::new(point.n, point.t);
    if let Some(r) = recorder {
        cfg = cfg.with_recorder(r);
    }
    let verdict = falsify(&cfg, factory).expect("falsifier run");
    match verdict {
        Verdict::Violation(cert) => {
            cert.verify().expect("certificate must re-verify");
            FalsifierSweepPoint {
                point: point.clone(),
                refuted: true,
                verdict: format!("REFUTED ({})", cert.kind),
                max_message_complexity: cert.execution.message_complexity(),
                paper_bound: cfg.paper_bound(),
            }
        }
        Verdict::Survived(report) => FalsifierSweepPoint {
            point: point.clone(),
            refuted: false,
            verdict: "survived".into(),
            max_message_complexity: report.max_message_complexity,
            paper_bound: cfg.paper_bound(),
        },
    }
}

/// Runs the Theorem 2 falsifier over a grid of `(n, t)` points **in
/// parallel** via [`Campaign::map`] — the batchable sweep interface the
/// old per-point loops in `paper_experiments` hand-rolled. For sweeps too
/// large for one process, [`dist::distributed_falsifier_sweep`] shards the
/// same grid across `campaign_worker` processes and reproduces this
/// function's results exactly.
///
/// `factory` builds, per grid point, the per-process protocol factory.
///
/// # Panics
///
/// Panics on simulator errors (protocol bugs).
pub fn falsifier_sweep<P, F, G>(nts: &[(usize, usize)], factory: G) -> Vec<FalsifierSweepPoint>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    Campaign::over(falsifier_points(nts))
        .map(|point| falsify_point(point, factory(point)))
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::Keybook;
    use ba_protocols::broken::LeaderEcho;
    use ba_protocols::DolevStrong;

    #[test]
    fn family_complexity_orders_protocols_correctly() {
        let (n, t) = (12, 4);
        let cheap =
            measure_family_complexity("leader-echo", n, t, |_| LeaderEcho::new(ProcessId(0)));
        let quadratic = measure_family_complexity(
            "dolev-strong",
            n,
            t,
            DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero),
        );
        assert!(cheap.observed_max < quadratic.observed_max);
        assert!(quadratic.consistent_with_bound());
        assert!(cheap.executions >= 2);
    }

    #[test]
    fn fault_free_runner_works() {
        let exec = run_fault_free(
            5,
            2,
            DolevStrong::factory(Keybook::new(5), ProcessId(0), Bit::Zero),
            Bit::One,
        );
        assert!(exec.all_correct_decided(Bit::One));
    }

    #[test]
    fn falsifier_sweep_refutes_leader_echo_on_a_grid() {
        // A Campaign grid sweep of the falsifier over four (n, t) points,
        // executed in parallel.
        let points = [(8usize, 2usize), (10, 2), (12, 4), (16, 8)];
        let results = falsifier_sweep(&points, |_point| {
            |_: ProcessId| LeaderEcho::new(ProcessId(0))
        });
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.refuted, "leader-echo must be refuted at {}", r.point);
            assert!(r.verdict.starts_with("REFUTED"));
        }
    }
}
