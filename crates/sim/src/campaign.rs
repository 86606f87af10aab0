//! The [`Campaign`] runner: parallel sweeps of [`Scenario`] grids.
//!
//! The large `(n, t)` sweeps needed to probe sub-quadratic regimes — and any
//! experiment that varies the adversary or the input profile — are grids of
//! independent scenarios. `Campaign` enumerates the grid, executes every
//! point on a scoped-thread worker pool, and aggregates trace-complete
//! per-point reports: message complexity, decision rounds, and property
//! violations.
//!
//! Two run modes:
//!
//! * [`Campaign::run_scenarios`] — each grid point builds one [`Scenario`];
//!   the runner executes it and derives a [`ScenarioStats`] report;
//! * [`Campaign::map`] — each grid point runs an arbitrary job (e.g. a full
//!   falsifier invocation) and returns its result.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ba_obs::Recorder;

use crate::error::SimError;
use crate::execution::Execution;
use crate::ids::{ProcessId, Round};
use crate::par::par_map;
use crate::protocol::Protocol;
use crate::scenario::ProtocolScenario;
use crate::sink::TraceMode;
use crate::value::{Payload, Value};

/// One point of a campaign grid: system size plus free-form labels naming
/// the adversary and input profile the builder closure should realize.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CampaignPoint {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Which adversary to install (interpreted by the builder closure).
    pub adversary: String,
    /// Which input profile to use (interpreted by the builder closure).
    pub inputs: String,
}

impl CampaignPoint {
    /// A point with the default adversary (`"none"`) and inputs
    /// (`"default"`).
    pub fn new(n: usize, t: usize) -> Self {
        CampaignPoint {
            n,
            t,
            adversary: "none".into(),
            inputs: "default".into(),
        }
    }

    /// Names the adversary for this point.
    pub fn with_adversary(mut self, adversary: impl Into<String>) -> Self {
        self.adversary = adversary.into();
        self
    }

    /// Names the input profile for this point.
    pub fn with_inputs(mut self, inputs: impl Into<String>) -> Self {
        self.inputs = inputs.into();
        self
    }
}

impl fmt::Display for CampaignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} t={} adv={} in={}",
            self.n, self.t, self.adversary, self.inputs
        )
    }
}

/// A grid of scenarios to sweep in parallel.
#[derive(Clone, Default)]
pub struct Campaign {
    points: Vec<CampaignPoint>,
    threads: usize,
    trace_mode: Option<TraceMode>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("points", &self.points)
            .field("threads", &self.threads)
            .field("trace_mode", &self.trace_mode)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// A campaign over explicit points.
    pub fn over(points: impl IntoIterator<Item = CampaignPoint>) -> Self {
        Campaign {
            points: points.into_iter().collect(),
            ..Campaign::default()
        }
    }

    /// The full cross product of `(n, t)` pairs × adversary labels × input
    /// labels.
    pub fn grid(
        nts: impl IntoIterator<Item = (usize, usize)>,
        adversaries: &[&str],
        inputs: &[&str],
    ) -> Self {
        let mut points = Vec::new();
        for (n, t) in nts {
            for adv in adversaries {
                for inp in inputs {
                    points.push(
                        CampaignPoint::new(n, t)
                            .with_adversary(*adv)
                            .with_inputs(*inp),
                    );
                }
            }
        }
        Campaign {
            points,
            ..Campaign::default()
        }
    }

    /// Appends one point.
    pub fn point(mut self, point: CampaignPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Caps the worker pool. An explicit `0` clamps to 1 (a serial sweep)
    /// rather than configuring a zero-width pool; leaving the cap unset
    /// keeps the default of machine parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Forces a [`TraceMode`] on every scenario of the sweep, overriding
    /// whatever the builder closure configured. Unset (the default), each
    /// scenario's own mode applies — which is [`TraceMode::Stats`] unless a
    /// point opted into [`TraceMode::Full`].
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = Some(mode);
        self
    }

    /// Installs a telemetry [`Recorder`] on the sweep. Per-point logical
    /// counters (points, messages, rounds, violations, errors) go to the
    /// deterministic channel; per-point wall time, total sweep wall time,
    /// and worker-pool utilization go to the wall-clock channel. The
    /// recorder is also threaded into every scenario
    /// ([`ProtocolScenario::recorder`](crate::ProtocolScenario::recorder)),
    /// so executor-level telemetry is captured too. Observation-only:
    /// reports are bit-identical with recording on or off.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The grid points, in sweep order.
    pub fn points(&self) -> &[CampaignPoint] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Runs an arbitrary job per grid point, in parallel; results return in
    /// grid order. Use this to sweep whole-algorithm workloads (e.g. the
    /// `ba-core` falsifier) over `(n, t)` grids.
    ///
    /// Consumes the campaign: each worker takes ownership of its point, so
    /// no point is ever cloned for the result pairing.
    pub fn map<R, F>(self, job: F) -> Vec<(CampaignPoint, R)>
    where
        R: Send,
        F: Fn(&CampaignPoint) -> R + Sync,
    {
        let recorder = self.recorder;
        let meter = recorder
            .as_ref()
            .map(|_| SweepMeter::start(&self.points, self.threads));
        let results = par_map(self.points, self.threads, |i, point| {
            let started = recorder.as_ref().map(|_| Instant::now());
            let result = job(&point);
            if let (Some(r), Some(started)) = (&recorder, started) {
                let nanos = elapsed_nanos(started);
                r.timing("campaign.point.wall", nanos, &[]);
                r.counter("campaign.points", 1, &[]);
                r.event(
                    "campaign.point.done",
                    &[
                        ("index", i.into()),
                        ("messages", 0u64.into()),
                        ("rounds", 0u64.into()),
                        ("ok", true.into()),
                    ],
                );
                if let Some(m) = &meter {
                    m.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                }
            }
            (point, result)
        });
        if let (Some(r), Some(meter)) = (&recorder, meter) {
            meter.finish(r.as_ref());
        }
        results
    }

    /// Builds one scenario per grid point (via `build`), executes them all
    /// in parallel, and aggregates per-point [`ScenarioStats`] reports.
    ///
    /// Each point runs through [`ProtocolScenario::run_report`], so sweeps
    /// take the allocation-free [`TraceMode::Stats`] engine path unless the
    /// builder (or [`Campaign::trace_mode`]) opts into [`TraceMode::Full`].
    /// Consumes the campaign: workers own their points outright.
    pub fn run_scenarios<P, F, B>(self, build: B) -> CampaignReport<P::Output>
    where
        P: Protocol,
        F: Fn(ProcessId) -> P,
        B: Fn(&CampaignPoint) -> ProtocolScenario<'static, P, F> + Sync,
    {
        let forced_mode = self.trace_mode;
        let recorder = self.recorder;
        let meter = recorder
            .as_ref()
            .map(|_| SweepMeter::start(&self.points, self.threads));
        let outcomes = par_map(self.points, self.threads, |i, point| {
            let mut scenario = build(&point);
            if let Some(mode) = forced_mode {
                scenario = scenario.trace_mode(mode);
            }
            if let Some(r) = &recorder {
                scenario = scenario.recorder(r.clone());
            }
            let started = recorder.as_ref().map(|_| Instant::now());
            let result = scenario.run_report();
            if let Some(r) = &recorder {
                record_point(r.as_ref(), i, &result);
                if let (Some(m), Some(started)) = (&meter, started) {
                    let nanos = elapsed_nanos(started);
                    r.timing("campaign.point.wall", nanos, &[]);
                    m.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                }
            }
            ScenarioOutcome { point, result }
        });
        if let (Some(r), Some(meter)) = (&recorder, meter) {
            meter.finish(r.as_ref());
        }
        CampaignReport { outcomes }
    }
}

/// Nanoseconds since `started`, saturating on the (theoretical) overflow.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records one completed grid point's deterministic counters, plus a
/// `campaign.point.done` event carrying the point's grid index — the hook
/// progress streamers (the `campaign_worker --progress` recorder) key on.
fn record_point<O>(
    recorder: &dyn Recorder,
    index: usize,
    result: &Result<ScenarioStats<O>, SimError>,
) {
    recorder.counter("campaign.points", 1, &[]);
    let (messages, rounds, ok) = match result {
        Ok(stats) => {
            recorder.counter("campaign.messages", stats.total_messages, &[]);
            recorder.histogram("campaign.point.messages", stats.total_messages, &[]);
            recorder.histogram("campaign.point.rounds", stats.rounds, &[]);
            if !stats.violations.is_empty() {
                recorder.counter("campaign.violations", stats.violations.len() as u64, &[]);
            }
            (stats.total_messages, stats.rounds, true)
        }
        Err(_) => {
            recorder.counter("campaign.errors", 1, &[]);
            (0, 0, false)
        }
    };
    recorder.event(
        "campaign.point.done",
        &[
            ("index", index.into()),
            ("messages", messages.into()),
            ("rounds", rounds.into()),
            ("ok", ok.into()),
        ],
    );
}

/// Wall-clock sweep accounting: total sweep time plus worker-pool
/// utilization (busy point-time over pool capacity). Wall channel only.
struct SweepMeter {
    started: Instant,
    busy_nanos: AtomicU64,
    workers: usize,
}

impl SweepMeter {
    fn start(points: &[CampaignPoint], threads: usize) -> Self {
        SweepMeter {
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
            workers: crate::par::resolve_threads(threads, points.len()),
        }
    }

    fn finish(self, recorder: &dyn Recorder) {
        let elapsed = elapsed_nanos(self.started);
        recorder.timing("campaign.sweep.wall", elapsed, &[]);
        let capacity = elapsed.saturating_mul(self.workers as u64);
        if capacity > 0 {
            let busy = self.busy_nanos.load(Ordering::Relaxed);
            recorder.gauge("campaign.utilization", busy as f64 / capacity as f64, &[]);
        }
    }
}

/// The trace-derived report of one scenario execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioStats<O> {
    /// Messages sent by correct processes (paper §2's message complexity).
    pub message_complexity: u64,
    /// Messages sent by all processes.
    pub total_messages: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether the execution quiesced within the horizon.
    pub quiescent: bool,
    /// The round at the start of which every correct process had decided.
    pub decided_by: Option<Round>,
    /// Decision of each correct process (`None` = undecided).
    pub decisions: BTreeMap<ProcessId, Option<O>>,
    /// Property violations observed in the trace (invalid execution,
    /// disagreement, undecided correct processes).
    pub violations: Vec<String>,
}

impl<O: Value> ScenarioStats<O> {
    /// Derives the report from a completed execution, including a full
    /// validation pass over the trace.
    pub fn from_execution<I: Value, M: Payload>(exec: &Execution<I, O, M>) -> Self {
        let decisions: BTreeMap<ProcessId, Option<O>> = exec
            .correct()
            .map(|p| (p, exec.decision_of(p).cloned()))
            .collect();
        let mut violations = Vec::new();
        if let Err(e) = exec.validate() {
            violations.push(format!("invalid execution: {e}"));
        }
        violations.extend(Self::derive_violations(&decisions));
        ScenarioStats {
            message_complexity: exec.message_complexity(),
            total_messages: exec.total_messages(),
            rounds: exec.rounds,
            quiescent: exec.quiescent,
            decided_by: exec.all_decided_by(),
            decisions,
            violations,
        }
    }

    /// The decision-level property checks (agreement, termination) shared
    /// by [`ScenarioStats::from_execution`] and the trace-free
    /// [`StatsSink`](crate::StatsSink) path, byte-identical in both.
    pub(crate) fn derive_violations(decisions: &BTreeMap<ProcessId, Option<O>>) -> Vec<String> {
        let mut violations = Vec::new();
        let distinct: std::collections::BTreeSet<&O> = decisions.values().flatten().collect();
        if distinct.len() > 1 {
            violations.push(format!(
                "agreement violated: correct decisions {distinct:?}"
            ));
        }
        for (p, d) in decisions {
            if d.is_none() {
                violations.push(format!(
                    "termination violated: {p} undecided within horizon"
                ));
            }
        }
        violations
    }
}

/// The outcome of one grid point: stats, or the simulator error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioOutcome<O> {
    /// The grid point.
    pub point: CampaignPoint,
    /// Stats on success; the typed error if the scenario was invalid or the
    /// protocol violated the model.
    pub result: Result<ScenarioStats<O>, SimError>,
}

/// Aggregated results of a scenario sweep, in grid order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignReport<O> {
    /// One outcome per grid point.
    pub outcomes: Vec<ScenarioOutcome<O>>,
}

impl<O: Value> CampaignReport<O> {
    /// Total message complexity across all successful points.
    pub fn total_message_complexity(&self) -> u64 {
        self.stats().map(|(_, s)| s.message_complexity).sum()
    }

    /// The largest message complexity observed at any point.
    pub fn max_message_complexity(&self) -> u64 {
        self.stats()
            .map(|(_, s)| s.message_complexity)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(point, stats)` for every successful point.
    pub fn stats(&self) -> impl Iterator<Item = (&CampaignPoint, &ScenarioStats<O>)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|s| (&o.point, s)))
    }

    /// Iterates over `(point, violation)` pairs across the sweep.
    pub fn violations(&self) -> impl Iterator<Item = (&CampaignPoint, &str)> {
        self.stats()
            .flat_map(|(p, s)| s.violations.iter().map(move |v| (p, v.as_str())))
    }

    /// Iterates over `(point, error)` for points that failed to execute.
    pub fn errors(&self) -> impl Iterator<Item = (&CampaignPoint, &SimError)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|e| (&o.point, e)))
    }

    /// `true` iff every point executed and no point recorded a violation.
    pub fn all_clean(&self) -> bool {
        self.errors().next().is_none() && self.violations().next().is_none()
    }

    /// A human-readable per-point summary table.
    pub fn summary(&self) -> String {
        let mut out = String::from("point | msgs(correct) | rounds | decided_by | violations\n");
        for o in &self.outcomes {
            match &o.result {
                Ok(s) => out.push_str(&format!(
                    "{} | {} | {} | {} | {}\n",
                    o.point,
                    s.message_complexity,
                    s.rounds,
                    s.decided_by.map_or("—".into(), |r| r.0.to_string()),
                    if s.violations.is_empty() {
                        "none".into()
                    } else {
                        s.violations.join("; ")
                    },
                )),
                Err(e) => out.push_str(&format!("{} | error: {e}\n", o.point)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Round;
    use crate::mailbox::{Inbox, Outbox};
    use crate::protocol::ProcessCtx;
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

    /// Echo-once protocol: broadcast in round 1, decide own proposal.
    #[derive(Clone)]
    struct EchoOnce {
        proposal: Bit,
        decision: Option<Bit>,
    }

    impl Protocol for EchoOnce {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.proposal = proposal;
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, _: &ProcessCtx, round: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            if round == Round::FIRST {
                self.decision = Some(self.proposal);
            }
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn echo_factory(_: ProcessId) -> EchoOnce {
        EchoOnce {
            proposal: Bit::Zero,
            decision: None,
        }
    }

    #[test]
    fn grid_enumerates_the_cross_product() {
        let campaign = Campaign::grid([(4, 1), (5, 2)], &["none", "isolation"], &["zeros"]);
        assert_eq!(campaign.len(), 4);
        assert_eq!(campaign.points()[0].adversary, "none");
        assert_eq!(campaign.points()[1].adversary, "isolation");
    }

    #[test]
    fn scenario_sweep_aggregates_stats_per_point() {
        let campaign = Campaign::grid([(4, 1), (5, 1), (6, 2), (7, 2)], &["none"], &["ones"]);
        let report = campaign.run_scenarios(|point| {
            Scenario::new(point.n, point.t)
                .protocol(echo_factory as fn(ProcessId) -> EchoOnce)
                .uniform_input(Bit::One)
        });
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.all_clean(), "{}", report.summary());
        // Each point sends n(n-1) messages.
        let expected: u64 = [4u64, 5, 6, 7].iter().map(|n| n * (n - 1)).sum();
        assert_eq!(report.total_message_complexity(), expected);
        assert_eq!(report.max_message_complexity(), 42);
        // Every point decided by round 2.
        for (_, stats) in report.stats() {
            assert_eq!(stats.decided_by, Some(Round(2)));
            assert!(stats.quiescent);
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let points: Vec<(usize, usize)> = (4..12).map(|n| (n, 2)).collect();
        let build = |point: &CampaignPoint| {
            Scenario::new(point.n, point.t)
                .protocol(echo_factory as fn(ProcessId) -> EchoOnce)
                .uniform_input(Bit::Zero)
        };
        let serial = Campaign::grid(points.clone(), &["none"], &["zeros"])
            .threads(1)
            .run_scenarios(build);
        let parallel = Campaign::grid(points, &["none"], &["zeros"])
            .threads(4)
            .run_scenarios(build);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_surfaces_violations_and_errors() {
        // The builder closure realizes the grid's adversary label: the last
        // process is isolated from round 1. This protocol decides its own
        // proposal regardless of its inbox, so mixed inputs disagree, which
        // the report must surface.
        let campaign = Campaign::grid([(4, 1), (3, 3)], &["isolation"], &["mixed"]);
        let report = campaign.run_scenarios(|point| {
            let n = point.n;
            let scenario = Scenario::new(point.n, point.t)
                .protocol(echo_factory as fn(ProcessId) -> EchoOnce)
                .inputs((0..n).map(|i| if i == 0 { Bit::One } else { Bit::Zero }));
            match point.adversary.as_str() {
                "isolation" => {
                    scenario.adversary(Adversary::isolation([ProcessId(n - 1)], Round::FIRST))
                }
                _ => scenario,
            }
        });
        // (3, 3) is an invalid resilience bound → typed error, not a panic.
        assert_eq!(report.errors().count(), 1);
        let (point, err) = report.errors().next().unwrap();
        assert_eq!((point.n, point.t), (3, 3));
        assert_eq!(*err, SimError::InvalidResilience { n: 3, t: 3 });
        // The (4, 1) point disagrees (p0 decides One, others Zero).
        assert!(report
            .violations()
            .any(|(_, v)| v.contains("agreement violated")));
        assert!(!report.all_clean());
        assert!(report.summary().contains("error"));
    }

    #[test]
    fn threads_zero_clamps_to_a_serial_sweep() {
        // An explicit zero thread cap must not configure a zero-width pool:
        // it clamps to one worker, and the sweep still runs (identically to
        // an explicit serial sweep).
        let campaign = Campaign::grid([(4, 1), (5, 1)], &["none"], &["ones"]).threads(0);
        assert_eq!(campaign.threads, 1);
        let build = |point: &CampaignPoint| {
            Scenario::new(point.n, point.t)
                .protocol(echo_factory as fn(ProcessId) -> EchoOnce)
                .uniform_input(Bit::One)
        };
        let clamped = campaign.run_scenarios(build);
        let serial = Campaign::grid([(4, 1), (5, 1)], &["none"], &["ones"])
            .threads(1)
            .run_scenarios(build);
        assert_eq!(clamped, serial);
        assert!(clamped.all_clean());
        // The unset default still means machine parallelism.
        assert_eq!(Campaign::new().threads, 0);
    }

    #[test]
    fn map_runs_arbitrary_jobs_per_point() {
        let campaign = Campaign::grid([(4, 2), (8, 2), (12, 4), (16, 8)], &["none"], &["-"]);
        let results = campaign.map(|point| point.n * point.t);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].1, 8);
        assert_eq!(results[3].1, 128);
        // Grid order is preserved.
        assert!(results
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 || w[0].0.n <= w[1].0.n));
    }
}
