//! Timing the layers from outside the library crates.
//!
//! Three benchmark-local wrappers sit on the layer boundaries of every
//! traced execution: [`TimedProtocol`] (protocol state machines),
//! [`TimedModel`] (the `FaultModel`, including `route_broadcast`, so
//! broadcast batching is preserved) and [`TimedSink`] (the trace sink, via
//! `run_with_sink`). Every call is counted. Frequent calls (steps,
//! `decision`, routing, sink events) are timed on a pseudo-random one in
//! [`SAMPLE_EVERY`], and the sample is scaled, so the clock does not
//! dominate the work it measures; once-per-run calls and process
//! construction are timed exactly. Every interval has the calibrated cost
//! of reading the clock subtracted.
//!
//! Each wrapper tallies locally and flushes into its point's or job's
//! shared atomics when its execution ends, because the falsifier and the
//! checker fan work out to pool threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ba_bench::dist::input_bits;
use ba_sim::{
    AdaptiveWorstCase, Adversary, Bit, CampaignPoint, CrashPlan, Envelope, ExecutionView,
    FaultBudget, FaultDirective, FaultMode, FaultModel, Inbox, IsolationPlan, MobileOmission,
    Outbox, Payload, PlannedFaults, ProcessCtx, ProcessId, Protocol, RandomOmissionPlan,
    ReceiverMask, Round, Routing, RunSummary, Scenario, SchedulerOmission, SimError, TraceSink,
};

use crate::stats;

/// Frequent calls are timed on about one call in this many.
pub const SAMPLE_EVERY: u32 = 16;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The calibrated cost of one `Instant::elapsed` reading, subtracted from
/// every timed interval.
static CLOCK_COST_NS: AtomicU64 = AtomicU64::new(0);

/// Measures the median cost of reading the clock.
pub fn calibrate_clock() {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    CLOCK_COST_NS.store(stats::median(&samples) as u64, Ordering::Relaxed);
}

/// Nanoseconds since `since`, less the clock's own cost.
pub fn ns_since(since: Instant) -> u64 {
    let raw = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    raw.saturating_sub(CLOCK_COST_NS.load(Ordering::Relaxed))
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `a / b`, or zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Splits `total` into the measured `parts` and the residual self time of
/// the enclosing layer. Sampled estimates can overshoot `total` by a few
/// percent; the parts are then scaled down to fit, so the residual is never
/// negative and the shares always sum to one.
pub fn split_self_time(total: u64, parts: &[u64]) -> (Vec<u64>, u64) {
    let sum: u64 = parts.iter().sum();
    if sum <= total {
        return (parts.to_vec(), total - sum);
    }
    let scaled: Vec<u64> = parts
        .iter()
        .map(|&p| (p as u128 * total as u128 / sum as u128) as u64)
        .collect();
    let residual = total - scaled.iter().sum::<u64>();
    (scaled, residual)
}

// ---------------------------------------------------------------------------
// Per-point layer clocks and the timed wrappers
// ---------------------------------------------------------------------------

/// Busy time and call counts of one point's or job's layers, shared by the
/// wrappers of every process and thread that works on it.
#[derive(Default, Debug)]
pub struct LayerClock {
    protocol_ns: AtomicU64,
    steps: AtomicU64,
    fault_ns: AtomicU64,
    fault_calls: AtomicU64,
    sink_ns: AtomicU64,
    sink_calls: AtomicU64,
    build_ns: AtomicU64,
    builds: AtomicU64,
}

/// A [`LayerClock`]'s totals.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LayerTimes {
    /// Protocol busy time.
    pub protocol_ns: u64,
    /// `propose` and `round` calls.
    pub steps: u64,
    /// Fault-model busy time.
    pub fault_ns: u64,
    /// Fault-model calls.
    pub fault_calls: u64,
    /// Trace-sink busy time.
    pub sink_ns: u64,
    /// Trace-sink calls.
    pub sink_calls: u64,
    /// Keybook and per-process factory time.
    pub build_ns: u64,
    /// Factory calls.
    pub builds: u64,
}

impl std::ops::AddAssign for LayerTimes {
    fn add_assign(&mut self, o: LayerTimes) {
        self.protocol_ns += o.protocol_ns;
        self.steps += o.steps;
        self.fault_ns += o.fault_ns;
        self.fault_calls += o.fault_calls;
        self.sink_ns += o.sink_ns;
        self.sink_calls += o.sink_calls;
        self.build_ns += o.build_ns;
        self.builds += o.builds;
    }
}

impl LayerClock {
    /// Counts one build (keybook, factory, process construction) that
    /// started at `since`.
    pub fn add_build(&self, since: Instant) {
        self.build_ns.fetch_add(ns_since(since), Ordering::Relaxed);
        self.builds.fetch_add(1, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn times(&self) -> LayerTimes {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LayerTimes {
            protocol_ns: get(&self.protocol_ns),
            steps: get(&self.steps),
            fault_ns: get(&self.fault_ns),
            fault_calls: get(&self.fault_calls),
            sink_ns: get(&self.sink_ns),
            sink_calls: get(&self.sink_calls),
            build_ns: get(&self.build_ns),
            builds: get(&self.builds),
        }
    }
}

thread_local! {
    /// Each thread's sampling sequence (xorshift64).
    static SAMPLER: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

/// How many calls to skip before the next timed one: uniform in
/// `0 ..= 2·(SAMPLE_EVERY − 1)`, so one call in [`SAMPLE_EVERY`] is timed
/// on average. The gaps are pseudo-random, so the timed calls cannot alias
/// with the executor's fixed call order, in which every `n`-th call
/// belongs to the same process.
fn next_gap() -> u32 {
    SAMPLER.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        (x % u64::from(2 * SAMPLE_EVERY - 1)) as u32
    })
}

/// Busy time and calls a wrapper accumulates before it flushes them into
/// its [`LayerClock`], once per execution: the hot path touches no shared
/// atomics, and a call that is not timed costs one decrement.
struct Tally {
    ns: Cell<u64>,
    calls: Cell<u64>,
    skip: Cell<u32>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            ns: Cell::new(0),
            calls: Cell::new(0),
            skip: Cell::new(next_gap()),
        }
    }
}

impl Tally {
    /// Runs and times one call.
    fn exact<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + ns_since(t));
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Runs one call, timing about one call in [`SAMPLE_EVERY`] and
    /// scaling that sample to stand for the calls not timed.
    fn sampled<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        let skip = self.skip.get();
        if skip > 0 {
            self.skip.set(skip - 1);
            return f();
        }
        self.skip.set(next_gap());
        let t = Instant::now();
        let r = f();
        self.ns
            .set(self.ns.get() + ns_since(t) * u64::from(SAMPLE_EVERY));
        r
    }

    /// Moves the busy time into `ns` and, when given, the calls into
    /// `calls`.
    fn flush(&self, ns: &AtomicU64, calls: Option<&AtomicU64>) {
        ns.fetch_add(self.ns.take(), Ordering::Relaxed);
        let counted = self.calls.take();
        if let Some(calls) = calls {
            calls.fetch_add(counted, Ordering::Relaxed);
        }
    }
}

/// A protocol whose `propose`, `round` and `decision` calls are timed
/// into a [`LayerClock`] (flushed when the process is dropped); behaviour
/// is the wrapped protocol's. `propose` and `round` count as steps.
pub struct TimedProtocol<P> {
    inner: P,
    clock: Arc<LayerClock>,
    steps: Tally,
    decisions: Tally,
}

impl<P> TimedProtocol<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, clock: Arc<LayerClock>) -> Self {
        TimedProtocol {
            inner,
            clock,
            steps: Tally::default(),
            decisions: Tally::default(),
        }
    }
}

/// A clone starts with empty tallies, so every call is flushed once.
impl<P: Clone> Clone for TimedProtocol<P> {
    fn clone(&self) -> Self {
        TimedProtocol::new(self.inner.clone(), self.clock.clone())
    }
}

impl<P> Drop for TimedProtocol<P> {
    fn drop(&mut self) {
        self.steps
            .flush(&self.clock.protocol_ns, Some(&self.clock.steps));
        self.decisions.flush(&self.clock.protocol_ns, None);
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Input = P::Input;
    type Output = P::Output;
    type Msg = P::Msg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: P::Input) -> Outbox<P::Msg> {
        self.steps.sampled(|| self.inner.propose(ctx, proposal))
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<P::Msg>) -> Outbox<P::Msg> {
        self.steps.sampled(|| self.inner.round(ctx, round, inbox))
    }

    fn decision(&self) -> Option<P::Output> {
        self.decisions.sampled(|| self.inner.decision())
    }
}

/// Wraps a per-process factory: each call's own time counts as build time,
/// and each process it makes is a [`TimedProtocol`].
pub fn timed_factory<P, F>(
    factory: F,
    clock: &Arc<LayerClock>,
) -> impl Fn(ProcessId) -> TimedProtocol<P> + Sync
where
    P: Protocol,
    F: Fn(ProcessId) -> P + Sync,
{
    let clock = clock.clone();
    move |pid| {
        let t = Instant::now();
        let process = factory(pid);
        clock.add_build(t);
        TimedProtocol::new(process, clock.clone())
    }
}

/// A fault model whose calls are timed into a [`LayerClock`] (flushed
/// when the execution drops it). Every method forwards, `route_broadcast`
/// included, so the wrapped model keeps its batched fan-out path.
pub struct TimedModel<F> {
    inner: F,
    clock: Arc<LayerClock>,
    tally: Tally,
}

impl<F> TimedModel<F> {
    /// Wraps `inner`.
    pub fn new(inner: F, clock: Arc<LayerClock>) -> Self {
        TimedModel {
            inner,
            clock,
            tally: Tally::default(),
        }
    }
}

impl<F> Drop for TimedModel<F> {
    fn drop(&mut self) {
        self.tally
            .flush(&self.clock.fault_ns, Some(&self.clock.fault_calls));
    }
}

impl<M, F: FaultModel<M>> FaultModel<M> for TimedModel<F> {
    fn budget(&self) -> FaultBudget {
        self.inner.budget()
    }

    fn mode(&self) -> FaultMode {
        self.inner.mode()
    }

    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        self.tally.sampled(|| self.inner.begin_round(view))
    }

    fn reorders(&self) -> bool {
        self.inner.reorders()
    }

    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        self.tally.sampled(|| self.inner.schedule(view, queue));
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        self.tally
            .sampled(|| self.inner.route(view, sender, receiver, payload))
    }

    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        self.tally
            .sampled(|| self.inner.route_broadcast(view, sender, mask, payload, out));
    }
}

/// A trace sink whose calls are timed into a [`LayerClock`] (flushed at
/// `finish`); it produces exactly the wrapped sink's output.
pub struct TimedSink<S> {
    inner: S,
    clock: Arc<LayerClock>,
    tally: Tally,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, clock: Arc<LayerClock>) -> Self {
        TimedSink {
            inner,
            clock,
            tally: Tally::default(),
        }
    }
}

impl<P: Protocol, S: TraceSink<P>> TraceSink<P> for TimedSink<S> {
    type Output = S::Output;

    fn init(&mut self, n: usize, proposals: &[P::Input]) {
        self.tally.exact(|| self.inner.init(n, proposals));
    }

    fn begin_round(&mut self, round: Round) {
        self.tally.sampled(|| self.inner.begin_round(round));
    }

    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        self.tally
            .sampled(|| self.inner.sent(round, sender, receiver, payload));
    }

    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.tally
            .sampled(|| self.inner.send_omitted(round, sender, receiver, payload));
    }

    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.tally
            .sampled(|| self.inner.receive_omitted(round, sender, receiver, payload));
    }

    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        self.tally
            .sampled(|| self.inner.absorb_inbox(round, receiver, inbox));
    }

    fn corrupted(&mut self, round: Round, process: ProcessId) {
        self.tally.sampled(|| self.inner.corrupted(round, process));
    }

    fn released(&mut self, round: Round, process: ProcessId) {
        self.tally.sampled(|| self.inner.released(round, process));
    }

    fn finish(self, summary: RunSummary<P>) -> S::Output {
        let TimedSink {
            inner,
            clock,
            tally,
        } = self;
        let out = tally.exact(|| inner.finish(summary));
        tally.flush(&clock.sink_ns, Some(&clock.sink_calls));
        out
    }
}

/// The registry's adversary for a point's label, its fault model wrapped
/// in a [`TimedModel`]. A local copy of `ba_bench::dist`'s mapping: each
/// arm builds the same model the registry's `Adversary` constructor does.
fn timed_adversary<M: Payload>(
    point: &CampaignPoint,
    seed: u64,
    clock: &Arc<LayerClock>,
) -> Result<Adversary<'static, Bit, M>, String> {
    fn timed<M, F: FaultModel<M> + 'static>(
        model: F,
        clock: &Arc<LayerClock>,
    ) -> Adversary<'static, Bit, M>
    where
        M: Payload,
    {
        Adversary::model(TimedModel::new(model, clock.clone()))
    }
    let (n, t) = (point.n, point.t);
    let last = ProcessId(n.saturating_sub(1));
    Ok(match point.adversary.as_str() {
        "none" => timed(PlannedFaults::none(), clock),
        "isolation" => timed(
            PlannedFaults::new([last], IsolationPlan::new([last], Round(2))),
            clock,
        ),
        "crash" => timed(
            PlannedFaults::new([last], CrashPlan::new([(last, Round(2))])),
            clock,
        ),
        "random-omission" => timed(
            PlannedFaults::new(
                [last],
                RandomOmissionPlan::new([last], 0.25, 0.25, seed ^ 0x2),
            ),
            clock,
        ),
        "adaptive-worst-case" => timed(AdaptiveWorstCase::new(t), clock),
        "mobile" => timed(
            MobileOmission::new((n.saturating_sub(t)..n).map(ProcessId), 2),
            clock,
        ),
        "scheduler" => timed(
            SchedulerOmission::new(last, n.saturating_sub(1) / 2, seed ^ 0x3),
            clock,
        ),
        other => {
            return Err(format!(
                "adversary label {other:?} is not used by the benchmark"
            ))
        }
    })
}

/// Runs the registry scenario of `point` with every layer boundary timed,
/// recording into `sink`.
pub fn run_timed<P, F, S>(
    point: &CampaignPoint,
    seed: u64,
    factory: F,
    clock: &Arc<LayerClock>,
    sink: S,
) -> Result<Result<S::Output, SimError>, String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    S: TraceSink<TimedProtocol<P>>,
{
    let adversary = timed_adversary(point, seed, clock)?;
    Ok(Scenario::new(point.n, point.t)
        .protocol(timed_factory(factory, clock))
        .inputs(input_bits(&point.inputs, point.n, seed))
        .adversary(adversary)
        .run_with_sink(TimedSink::new(sink, clock.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::adversarial_sweep;

    #[test]
    fn self_time_residual_is_never_negative_and_shares_sum_to_one() {
        let (parts, residual) = split_self_time(100, &[10, 20, 30]);
        assert_eq!((parts, residual), (vec![10, 20, 30], 40));
        // Sampled estimates that overshoot the total are scaled to fit.
        let (parts, residual) = split_self_time(100, &[80, 40, 0]);
        assert_eq!(parts.iter().sum::<u64>() + residual, 100);
        assert!(parts[0] > parts[1] && parts[2] == 0);
        let (parts, residual) = split_self_time(0, &[5, 5]);
        assert_eq!((parts, residual), (vec![0, 0], 0));
        for total in [1u64, 7, 1_000, 123_456_789] {
            for parts in [
                [0u64, 0, 0],
                [1, 2, 3],
                [total, total, 1],
                [u64::MAX / 4, 3, 9],
            ] {
                let (scaled, residual) = split_self_time(total, &parts);
                assert_eq!(
                    scaled.iter().sum::<u64>() + residual,
                    total,
                    "{total} {parts:?}"
                );
            }
        }
    }

    #[test]
    fn sampling_times_one_call_in_sample_every_on_average() {
        let tally = Tally::default();
        let calls = 160_000u64;
        let mut timed = 0u64;
        for _ in 0..calls {
            let before = tally.ns.get();
            // Every call spins for a microsecond, so a timed call always
            // moves the tally.
            tally.sampled(|| {
                let t = Instant::now();
                while t.elapsed() < Duration::from_micros(1) {}
            });
            timed += u64::from(tally.ns.get() != before);
        }
        assert_eq!(tally.calls.get(), calls);
        let expected = calls / u64::from(SAMPLE_EVERY);
        assert!(
            timed.abs_diff(expected) < expected / 20,
            "{timed} timed of {calls}"
        );
    }

    #[test]
    fn the_adversarial_grid_maps_every_label() {
        let clock = Arc::new(LayerClock::default());
        for point in adversarial_sweep(3).points.iter().take(28) {
            assert!(timed_adversary::<Bit>(point, 1, &clock).is_ok(), "{point}");
        }
    }
}
