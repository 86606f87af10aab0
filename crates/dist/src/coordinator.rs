//! The fault-tolerant merging coordinator: dispatches shards over a
//! [`ShardTransport`], recovers at **point** granularity, and reassembles
//! the global result.
//!
//! The recovery fabric replaces whole-shard retry with three cooperating
//! mechanisms:
//!
//! * **streamed harvest** — workers in `--stream` mode emit one checksummed
//!   [`PointOutcome`] line per completed point;
//!   the coordinator banks them as they arrive, so a worker that dies after
//!   k points only forfeits the points it had not yet finished. (Workers
//!   without streaming still work: their final [`ShardReport`] is harvested
//!   wholesale.)
//! * **no-progress watchdog** — with [`Coordinator::watchdog`] set, an
//!   attempt that produces no output lines for the given duration is
//!   declared dead: its [`AbortHandle`](crate::transport::AbortHandle)
//!   fires (killing the worker / closing the connection) and the attempt
//!   fails with [`DistError::Stalled`]. Liveness is driven by the
//!   `--progress` JSONL stream, not wall-clock totals — a slow shard that
//!   keeps finishing points is never killed.
//! * **work-stealing re-plan** — a failed attempt's *unfinished* points are
//!   requeued (after a deterministic exponential backoff with seeded
//!   jitter, [`Backoff`]) and picked up by whichever fabric thread frees up
//!   first. [`point_seed`](crate::shard::point_seed) makes the points'
//!   seeds position-independent, so the re-planned manifest reproduces
//!   identical results on any worker — the idempotency key behind
//!   dedup-on-merge: the first harvested outcome per grid index wins, and
//!   `merge(k) == run(1)` stays bit-for-bit under any chaos schedule that
//!   eventually lets work finish.
//!
//! When a shard exhausts its retry budget the strict entry points
//! ([`Coordinator::run`], [`Coordinator::run_campaign`]) fail with
//! [`DistError::Exhausted`]; the graceful ones
//! ([`Coordinator::run_partial`], [`Coordinator::run_campaign_partial`])
//! degrade to a typed [`PartialSweep`] / [`PartialReport`] carrying
//! everything that finished plus a coverage map of what did not.
//!
//! Retries are always visible — they are logged to stderr (shard, attempt,
//! cause) whether or not an observer is installed, so flaky workers can't
//! hide behind silent re-dispatch.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ba_sim::{Bit, CampaignReport, ScenarioStats, SimError, SimRng};

use crate::progress::{CoordEvent, ProgressEvent};
use crate::shard::{
    assemble_campaign_report, plan_shards, PartialReport, PartialSweep, PointOutcome, ShardEntry,
    ShardFailure, ShardManifest, ShardReport, SweepSpec,
};
use crate::transport::{truncate_lossy, ShardTransport};
use crate::wire::{fnv64, Decode, WireError, WireReader};

/// A distributed-sweep failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DistError {
    /// A worker could not be spawned or its pipes broke.
    Spawn {
        /// The shard being attempted.
        shard: usize,
        /// The OS error text.
        detail: String,
    },
    /// A worker exited unsuccessfully.
    WorkerFailed {
        /// The shard being attempted.
        shard: usize,
        /// The worker's exit code, if any.
        code: Option<i32>,
        /// Captured (truncated) stderr.
        stderr: String,
    },
    /// A worker's output did not decode as a shard report.
    Wire {
        /// The shard being attempted.
        shard: usize,
        /// The decode failure.
        error: WireError,
    },
    /// A report claimed a different shard index than the manifest it was
    /// produced from.
    ShardMismatch {
        /// The shard the coordinator dispatched.
        expected: usize,
        /// The shard index the report claimed.
        got: usize,
    },
    /// The no-progress watchdog declared an attempt dead.
    Stalled {
        /// The shard being attempted.
        shard: usize,
    },
    /// An attempt ended cleanly but left manifest points uncovered.
    Incomplete {
        /// The shard being attempted.
        shard: usize,
        /// How many of the attempt's points never arrived.
        missing: usize,
    },
    /// The stock worker binary could not be located.
    WorkerNotFound {
        /// Every path that was searched, in order.
        searched: Vec<String>,
    },
    /// A shard kept failing after all retries.
    Exhausted {
        /// The failing shard.
        shard: usize,
        /// Number of attempts made.
        attempts: usize,
        /// The final attempt's failure, rendered.
        last: String,
    },
    /// The merged reports left a grid index uncovered.
    MissingPoint {
        /// The first uncovered global index.
        index: usize,
    },
    /// Two reports covered the same grid index.
    DuplicatePoint {
        /// The doubly-covered global index.
        index: usize,
    },
    /// A report covered an index outside the grid.
    StrayPoint {
        /// The out-of-range global index.
        index: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Spawn { shard, detail } => {
                write!(f, "shard {shard}: failed to spawn worker: {detail}")
            }
            DistError::WorkerFailed {
                shard,
                code,
                stderr,
            } => {
                write!(f, "shard {shard}: worker exited with status {code:?}")?;
                if !stderr.is_empty() {
                    write!(f, "; stderr: {stderr}")?;
                }
                Ok(())
            }
            DistError::Wire { shard, error } => {
                write!(f, "shard {shard}: undecodable report: {error}")
            }
            DistError::ShardMismatch { expected, got } => {
                write!(f, "dispatched shard {expected} but report claims {got}")
            }
            DistError::Stalled { shard } => {
                write!(f, "shard {shard}: no progress within the watchdog window")
            }
            DistError::Incomplete { shard, missing } => {
                write!(
                    f,
                    "shard {shard}: attempt ended cleanly but left {missing} point(s) uncovered"
                )
            }
            DistError::WorkerNotFound { searched } => {
                write!(
                    f,
                    "campaign_worker binary not found; searched: {}",
                    searched.join(", ")
                )
            }
            DistError::Exhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} failed all {attempts} attempts; last: {last}"
            ),
            DistError::MissingPoint { index } => {
                write!(f, "merged reports leave grid point {index} uncovered")
            }
            DistError::DuplicatePoint { index } => {
                write!(f, "grid point {index} covered by more than one report")
            }
            DistError::StrayPoint { index } => {
                write!(f, "report covers index {index} outside the grid")
            }
        }
    }
}

impl Error for DistError {}

/// Deterministic exponential backoff with seeded jitter, governing when a
/// failed shard's unfinished points are re-planned.
///
/// The delay before re-attempting after `attempt` failures is
/// `base · 2^(attempt−1)` capped at `max`, plus a jitter fraction in
/// `[0, jitter]` of the delay drawn from a [`SimRng`] seeded by
/// `(seed, shard, attempt)` — a pure function, so a chaos run's entire
/// retry timeline is reproducible from its seeds.
#[derive(Clone, PartialEq, Debug)]
pub struct Backoff {
    /// First-retry delay.
    pub base: Duration,
    /// Cap on the exponential part.
    pub max: Duration,
    /// Maximum extra delay, as a fraction of the exponential part.
    pub jitter: f64,
    /// Seed of the jitter draws.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            jitter: 0.5,
            seed: 0xBAC0FF,
        }
    }
}

impl Backoff {
    /// No delay at all (for tests and in-process transports).
    pub fn none() -> Self {
        Backoff {
            base: Duration::ZERO,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The delay before re-planning `shard` after its `attempt`-th failure
    /// (1-based). Pure: identical inputs give identical delays.
    pub fn delay(&self, shard: usize, attempt: usize) -> Duration {
        let exp = attempt.saturating_sub(1).min(20) as u32;
        let nanos = u64::try_from(self.base.as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_mul(1u64 << exp)
            .min(u64::try_from(self.max.as_nanos()).unwrap_or(u64::MAX));
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(&(shard as u64).to_le_bytes());
        key.extend_from_slice(&(attempt as u64).to_le_bytes());
        let mut rng = SimRng::seed_from_u64(self.seed ^ fnv64(&key));
        let jitter = (nanos as f64 * self.jitter * rng.gen_f64(0.0, 1.0)) as u64;
        Duration::from_nanos(nanos.saturating_add(jitter))
    }
}

/// The coordinator's progress observer: called from fabric threads as
/// events arrive, so it must be both `Send` and `Sync`.
type Observer = Box<dyn Fn(&CoordEvent) + Send + Sync>;

/// The merging coordinator: plans shards, dispatches them concurrently over
/// a [`ShardTransport`], recovers failures at point granularity, and merges
/// the results (see the module docs for the recovery fabric).
pub struct Coordinator<R> {
    transport: R,
    shards: usize,
    retries: usize,
    observer: Option<Observer>,
    backoff: Backoff,
    stall_timeout: Option<Duration>,
}

/// One unit of fabric work: an original shard's not-yet-finished points,
/// eligible to run from `not_before` on.
struct WorkItem {
    shard: usize,
    attempt: usize,
    entries: Vec<ShardEntry>,
    not_before: Instant,
}

/// Shared fabric state behind one mutex: the bank of finished points, the
/// pending work queue, and termination accounting.
struct Fabric<T> {
    completed: BTreeMap<usize, Result<T, SimError>>,
    queue: Vec<WorkItem>,
    open_shards: usize,
    failures: Vec<ShardFailure>,
}

/// What one streamed attempt produced: every point harvested (from
/// `outcome` lines and/or the final report), plus how the attempt ended.
struct AttemptOutput<T> {
    harvested: Vec<(usize, Result<T, SimError>)>,
    result: Result<(), DistError>,
}

enum Pulse {
    Line(Vec<u8>),
    End(Result<(), DistError>),
}

impl<R: ShardTransport> Coordinator<R> {
    /// A coordinator splitting sweeps into `shards` shards (clamped to at
    /// least 1), with one retry per shard by default.
    pub fn new(transport: R, shards: usize) -> Self {
        Coordinator {
            transport,
            shards: shards.max(1),
            retries: 1,
            observer: None,
            backoff: Backoff::default(),
            stall_timeout: None,
        }
    }

    /// Sets how many times a failed shard's remaining points are
    /// re-dispatched (0 = fail fast).
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the re-plan backoff policy.
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Arms the no-progress watchdog: an attempt producing no output lines
    /// for `timeout` is aborted and counted as failed ([`DistError::Stalled`]).
    /// Any line — progress JSONL, streamed outcome, report — resets the
    /// clock, so slow-but-alive workers are never killed. Off by default
    /// (transports that buffer a whole report produce no interim lines).
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Installs a progress observer receiving every [`CoordEvent`] while a
    /// sweep runs: per-point progress, shard completions, retries, and
    /// partial-coverage degradation. Called concurrently from fabric
    /// threads.
    pub fn on_event(mut self, observer: impl Fn(&CoordEvent) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    fn emit(&self, event: CoordEvent) {
        // Retries are operationally significant: always log them, so flaky
        // workers stay visible even without an observer.
        if matches!(event, CoordEvent::Retry { .. }) {
            eprintln!("coordinator: {event}");
        }
        if let Some(observer) = &self.observer {
            observer(&event);
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs the sweep and returns per-point outcomes in global grid order.
    ///
    /// Fabric threads (one per planned shard) stream attempts concurrently;
    /// each shard's remaining points are attempted up to `1 + retries`
    /// times; finished points are banked and deduplicated by global index,
    /// so the result is identical to a single-process sweep of the same
    /// grid — bit-for-bit, under any fault schedule that eventually lets
    /// every point finish.
    ///
    /// # Errors
    ///
    /// [`DistError::Exhausted`] (for the first shard that ran out of
    /// attempts) if any point never finished. Use
    /// [`run_partial`](Coordinator::run_partial) to degrade gracefully
    /// instead.
    pub fn run<T: Decode + Send>(
        &self,
        spec: &SweepSpec,
    ) -> Result<Vec<Result<T, SimError>>, DistError> {
        match self.run_partial::<T>(spec).into_complete() {
            Ok(merged) => Ok(merged),
            Err(partial) => {
                let first = partial
                    .failures
                    .first()
                    .expect("an incomplete sweep records at least one shard failure");
                Err(DistError::Exhausted {
                    shard: first.shard,
                    attempts: first.attempts,
                    last: first.last.clone(),
                })
            }
        }
    }

    /// Runs the sweep with graceful degradation: exhausted shards forfeit
    /// their unfinished points, and the result is a [`PartialSweep`]
    /// carrying everything that finished plus the coverage map of what did
    /// not. `outcomes` and `missing` always partition the planned grid; a
    /// fully-recovered run comes back complete (and bit-identical to
    /// [`run`](Coordinator::run)).
    pub fn run_partial<T: Decode + Send>(&self, spec: &SweepSpec) -> PartialSweep<T> {
        let sweep = self.run_fabric::<T>(spec);
        if !sweep.is_complete() {
            self.emit(CoordEvent::Partial {
                covered: sweep.outcomes.len(),
                missing: sweep.missing.len(),
                grid: sweep.grid_len,
            });
        }
        sweep
    }

    /// Runs a [`ShardMode::Scenarios`](crate::shard::ShardMode::Scenarios)
    /// sweep and reassembles the exact `CampaignReport` a single-process
    /// [`ba_sim::Campaign::run_scenarios`] over the same grid produces.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run`].
    pub fn run_campaign(&self, spec: &SweepSpec) -> Result<CampaignReport<Bit>, DistError> {
        let merged = self.run::<ScenarioStats<Bit>>(spec)?;
        Ok(assemble_campaign_report(&spec.points, merged))
    }

    /// The graceful counterpart of [`run_campaign`](Coordinator::run_campaign):
    /// a typed [`PartialReport`] with the covered points assembled into a
    /// campaign report and the missing points listed with their grid
    /// indices.
    pub fn run_campaign_partial(&self, spec: &SweepSpec) -> PartialReport<Bit> {
        self.run_partial::<ScenarioStats<Bit>>(spec)
            .into_campaign(&spec.points)
    }

    fn run_fabric<T: Decode + Send>(&self, spec: &SweepSpec) -> PartialSweep<T> {
        let manifests = plan_shards(spec, self.shards);
        let grid_len = spec.points.len();
        let planned = manifests.len();
        let shards_total = manifests.first().map_or(0, |m| m.shards);
        let now = Instant::now();
        let state = Mutex::new(Fabric::<T> {
            completed: BTreeMap::new(),
            queue: manifests
                .into_iter()
                .map(|m| WorkItem {
                    shard: m.shard,
                    attempt: 1,
                    entries: m.entries,
                    not_before: now,
                })
                .collect(),
            open_shards: planned,
            failures: Vec::new(),
        });
        let ready = Condvar::new();
        std::thread::scope(|scope| {
            for _ in 0..planned {
                scope.spawn(|| self.fabric_worker(&state, &ready, spec, shards_total, grid_len));
            }
        });
        let fabric = state.into_inner().unwrap_or_else(|p| p.into_inner());
        let missing: Vec<usize> = (0..grid_len)
            .filter(|i| !fabric.completed.contains_key(i))
            .collect();
        PartialSweep {
            grid_len,
            outcomes: fabric.completed.into_iter().collect(),
            missing,
            failures: fabric.failures,
        }
    }

    /// One fabric thread: pops ready work items (any shard's — this is
    /// where stealing happens), streams an attempt, banks its harvest, and
    /// either settles the shard or requeues its remainder with backoff.
    fn fabric_worker<T: Decode + Send>(
        &self,
        state: &Mutex<Fabric<T>>,
        ready: &Condvar,
        spec: &SweepSpec,
        shards_total: usize,
        grid_len: usize,
    ) {
        loop {
            // Pop the next eligible work item, or wait for one (a backoff
            // deadline passing, or another thread settling the last shard).
            let item = {
                let mut fabric = state.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if fabric.open_shards == 0 {
                        return;
                    }
                    let now = Instant::now();
                    if let Some(pos) = fabric.queue.iter().position(|w| w.not_before <= now) {
                        break fabric.queue.swap_remove(pos);
                    }
                    let wait = fabric
                        .queue
                        .iter()
                        .map(|w| w.not_before.saturating_duration_since(now))
                        .min();
                    fabric = match wait {
                        Some(wait) => {
                            let (guard, _) = ready
                                .wait_timeout(fabric, wait.max(Duration::from_millis(1)))
                                .unwrap_or_else(|p| p.into_inner());
                            guard
                        }
                        None => ready.wait(fabric).unwrap_or_else(|p| p.into_inner()),
                    };
                }
            };

            // Re-plan against the bank: points finished elsewhere (a
            // straggler's late harvest, a stolen duplicate) drop out here —
            // point_seed keeps the survivors' seeds identical.
            let entries: Vec<ShardEntry> = {
                let fabric = state.lock().unwrap_or_else(|p| p.into_inner());
                item.entries
                    .iter()
                    .filter(|e| !fabric.completed.contains_key(&e.index))
                    .cloned()
                    .collect()
            };
            if entries.is_empty() {
                self.settle_done(state, ready, item.shard);
                continue;
            }
            let manifest = ShardManifest {
                shard: item.shard,
                shards: shards_total,
                mode: spec.mode,
                protocol: spec.protocol.clone(),
                threads: spec.worker_threads,
                entries,
            };
            let output = self.attempt_stream::<T>(&manifest, grid_len);

            let event = {
                let mut fabric = state.lock().unwrap_or_else(|p| p.into_inner());
                for (index, result) in output.harvested {
                    // Dedup-on-merge: the first outcome per grid index
                    // wins. Duplicates are byte-identical by determinism,
                    // so which one lands is immaterial.
                    fabric.completed.entry(index).or_insert(result);
                }
                let remaining: Vec<ShardEntry> = manifest
                    .entries
                    .iter()
                    .filter(|e| !fabric.completed.contains_key(&e.index))
                    .cloned()
                    .collect();
                if remaining.is_empty() {
                    // Salvage: the shard is covered — even if this attempt
                    // ended in an error, every point landed somewhere.
                    fabric.open_shards -= 1;
                    Some(CoordEvent::ShardDone { shard: item.shard })
                } else {
                    let cause = match output.result {
                        Ok(()) => DistError::Incomplete {
                            shard: item.shard,
                            missing: remaining.len(),
                        }
                        .to_string(),
                        Err(ref e) => e.to_string(),
                    };
                    let attempts = 1 + self.retries;
                    if item.attempt < attempts {
                        let delay = self.backoff.delay(item.shard, item.attempt);
                        fabric.queue.push(WorkItem {
                            shard: item.shard,
                            attempt: item.attempt + 1,
                            entries: remaining,
                            not_before: Instant::now() + delay,
                        });
                        Some(CoordEvent::Retry {
                            shard: item.shard,
                            attempt: item.attempt,
                            attempts,
                            cause,
                        })
                    } else {
                        fabric.failures.push(ShardFailure {
                            shard: item.shard,
                            attempts,
                            last: cause,
                        });
                        fabric.open_shards -= 1;
                        None
                    }
                }
            };
            ready.notify_all();
            if let Some(event) = event {
                self.emit(event);
            }
        }
    }

    fn settle_done<T>(&self, state: &Mutex<Fabric<T>>, ready: &Condvar, shard: usize) {
        {
            let mut fabric = state.lock().unwrap_or_else(|p| p.into_inner());
            fabric.open_shards -= 1;
        }
        ready.notify_all();
        self.emit(CoordEvent::ShardDone { shard });
    }

    /// Streams one attempt: a reader thread pumps the link's lines into a
    /// channel; this thread classifies them (progress JSONL / streamed
    /// outcomes / in-band worker errors / report text) under the watchdog
    /// clock, then settles the attempt from its end state.
    fn attempt_stream<T: Decode + Send>(
        &self,
        manifest: &ShardManifest,
        grid_len: usize,
    ) -> AttemptOutput<T> {
        let shard = manifest.shard;
        let mut link = match self.transport.open(manifest) {
            Ok(link) => link,
            Err(e) => {
                return AttemptOutput {
                    harvested: Vec::new(),
                    result: Err(e),
                }
            }
        };
        let abort = link.abort_handle();
        let (tx, rx) = mpsc::channel::<Pulse>();
        let reader = std::thread::spawn(move || loop {
            match link.next_line() {
                Ok(Some(line)) => {
                    if tx.send(Pulse::Line(line)).is_err() {
                        let _ = link.finish();
                        break;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Pulse::End(link.finish()));
                    break;
                }
                Err(e) => {
                    let _ = tx.send(Pulse::End(Err(e)));
                    break;
                }
            }
        });

        let mut harvested: Vec<(usize, Result<T, SimError>)> = Vec::new();
        let mut report = String::new();
        let mut worker_error: Option<String> = None;
        let mut fatal: Option<DistError> = None;
        let mut stalled = false;
        let mut got_end = false;
        let end: Result<(), DistError> = loop {
            let pulse = match self.stall_timeout {
                Some(timeout) => match rx.recv_timeout(timeout) {
                    Ok(pulse) => pulse,
                    Err(RecvTimeoutError::Timeout) if !stalled => {
                        // Watchdog: declare the attempt dead and abort it;
                        // keep draining so the reader can wind down (one
                        // more window, then give up and detach it).
                        stalled = true;
                        abort();
                        continue;
                    }
                    Err(_) => break Err(DistError::Stalled { shard }),
                },
                None => match rx.recv() {
                    Ok(pulse) => pulse,
                    Err(_) => {
                        break Err(DistError::Spawn {
                            shard,
                            detail: "link reader ended without a final status".to_string(),
                        })
                    }
                },
            };
            match pulse {
                Pulse::Line(bytes) => self.classify_line(
                    &bytes,
                    grid_len,
                    &mut harvested,
                    &mut report,
                    &mut worker_error,
                    &mut fatal,
                ),
                Pulse::End(result) => {
                    got_end = true;
                    break result;
                }
            }
        };
        if got_end {
            let _ = reader.join();
        }

        let mut result = if stalled {
            Err(DistError::Stalled { shard })
        } else {
            end
        };
        if result.is_ok() {
            if let Some(detail) = worker_error {
                result = Err(DistError::WorkerFailed {
                    shard,
                    code: None,
                    stderr: truncate_lossy(&detail, 512),
                });
            }
        }
        if let Some(f) = fatal {
            result = result.and(Err(f));
        }
        // Harvest the trailing report too (if any arrived) — even after a
        // failure: a truncated stream's decodable prefix still banks
        // nothing here (reports decode atomically), but a complete report
        // from a worker that then crashed salvages everything.
        if !report.is_empty() {
            match ShardReport::<T>::from_wire(&report) {
                Ok(rep) if rep.shard != shard => {
                    // Misattributed data is untrusted: discard it.
                    result = result.and(Err(DistError::ShardMismatch {
                        expected: shard,
                        got: rep.shard,
                    }));
                }
                Ok(rep) => {
                    for (index, outcome) in rep.outcomes {
                        if index >= grid_len {
                            result = result.and(Err(DistError::StrayPoint { index }));
                        } else {
                            harvested.push((index, outcome));
                        }
                    }
                }
                Err(error) => {
                    result = result.and(Err(DistError::Wire { shard, error }));
                }
            }
        }
        AttemptOutput { harvested, result }
    }

    /// Classifies one output line: progress JSONL (starts with `{`; wire
    /// records never do), a streamed checksummed outcome, an in-band
    /// `worker-error`, or report text. Non-UTF8 or checksum-failing lines
    /// are dropped — their points simply aren't harvested, which the
    /// coverage check catches.
    fn classify_line<T: Decode>(
        &self,
        bytes: &[u8],
        grid_len: usize,
        harvested: &mut Vec<(usize, Result<T, SimError>)>,
        report: &mut String,
        worker_error: &mut Option<String>,
        fatal: &mut Option<DistError>,
    ) {
        let Ok(text) = std::str::from_utf8(bytes) else {
            return;
        };
        let text = text.trim_end_matches('\r');
        if text.is_empty() {
            return;
        }
        if text.starts_with('{') {
            if let Some(event) = ProgressEvent::parse(text) {
                self.emit(CoordEvent::Point(event));
            }
            // Non-point JSON (foreign telemetry) is dropped: it is never
            // part of the wire report.
            return;
        }
        if text.starts_with("outcome ") {
            match PointOutcome::<T>::from_wire(text) {
                Ok(outcome) if outcome.index >= grid_len => {
                    fatal.get_or_insert(DistError::StrayPoint {
                        index: outcome.index,
                    });
                }
                Ok(outcome) => harvested.push((outcome.index, outcome.result)),
                // A corrupted outcome line (bad checksum, bad escape) is
                // dropped; its point is re-planned if it never arrives
                // another way.
                Err(_) => {}
            }
            return;
        }
        if text.starts_with("worker-error") {
            let detail = WireReader::new(text)
                .record("worker-error")
                .and_then(|rec| rec.text("detail"))
                .unwrap_or_else(|_| text.to_string());
            worker_error.get_or_insert(detail);
            return;
        }
        report.push_str(text);
        report.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardEntry, ShardReport};
    use crate::wire::{Encode, WireReader};
    use ba_sim::CampaignPoint;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A minimal wire type for transport-level tests.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Tok(u64);

    impl Encode for Tok {
        fn encode(&self, out: &mut String) {
            out.push_str(&format!("tok v={}\n", self.0));
        }
    }

    impl Decode for Tok {
        fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
            Ok(Tok(reader.record("tok")?.parse_field("v")?))
        }
    }

    fn spec(len: usize) -> SweepSpec {
        SweepSpec::scenarios((0..len).map(|i| CampaignPoint::new(4 + i, 1)), "test")
    }

    /// An in-process runner computing `Tok(seed ^ index)` per entry.
    fn echo_runner(manifest: &ShardManifest) -> Result<String, DistError> {
        let report = ShardReport {
            shard: manifest.shard,
            outcomes: manifest
                .entries
                .iter()
                .map(|e: &ShardEntry| (e.index, Ok(Tok(e.seed ^ e.index as u64))))
                .collect(),
        };
        Ok(report.to_wire())
    }

    #[test]
    fn coordinator_merges_shards_into_grid_order() {
        let spec = spec(11);
        let one = Coordinator::new(echo_runner, 1).run::<Tok>(&spec).unwrap();
        let four = Coordinator::new(echo_runner, 4).run::<Tok>(&spec).unwrap();
        let many = Coordinator::new(echo_runner, 64).run::<Tok>(&spec).unwrap();
        assert_eq!(one.len(), 11);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn coordinator_retries_flaky_shards() {
        // Every shard's *first* attempt fails; the retry succeeds.
        let attempts: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let flaky = |manifest: &ShardManifest| -> Result<String, DistError> {
            if attempts[manifest.shard].fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(DistError::Spawn {
                    shard: manifest.shard,
                    detail: "injected".into(),
                });
            }
            echo_runner(manifest)
        };
        let spec = spec(6);
        let result = Coordinator::new(&flaky, 3)
            .retries(1)
            .backoff(Backoff::none())
            .run::<Tok>(&spec);
        assert!(result.is_ok(), "{result:?}");
        for a in &attempts {
            assert_eq!(a.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn coordinator_reports_exhaustion_with_the_last_error() {
        let always_fail = |manifest: &ShardManifest| -> Result<String, DistError> {
            Err(DistError::Spawn {
                shard: manifest.shard,
                detail: "boom".into(),
            })
        };
        let err = Coordinator::new(always_fail, 2)
            .retries(1)
            .backoff(Backoff::none())
            .run::<Tok>(&spec(4))
            .unwrap_err();
        match err {
            DistError::Exhausted { attempts, last, .. } => {
                assert_eq!(attempts, 2);
                assert!(last.contains("boom"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_rejects_misattributed_reports() {
        let wrong_shard = |manifest: &ShardManifest| -> Result<String, DistError> {
            let mut report_wire = echo_runner(manifest)?;
            report_wire = report_wire.replacen(
                &format!("shard-report shard={}", manifest.shard),
                "shard-report shard=93",
                1,
            );
            Ok(report_wire)
        };
        let err = Coordinator::new(wrong_shard, 1)
            .retries(0)
            .run::<Tok>(&spec(3))
            .unwrap_err();
        match err {
            DistError::Exhausted { last, .. } => assert!(last.contains("93"), "{last}"),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_surfaces_undecodable_output() {
        let garbage =
            |_: &ShardManifest| -> Result<String, DistError> { Ok("not a shard report\n".into()) };
        let err = Coordinator::new(garbage, 1)
            .retries(0)
            .run::<Tok>(&spec(2))
            .unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    #[test]
    fn observer_sees_retries_and_shard_completions() {
        use std::sync::Mutex;
        let attempts: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let flaky = |manifest: &ShardManifest| -> Result<String, DistError> {
            if manifest.shard == 1 && attempts[1].fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(DistError::Spawn {
                    shard: 1,
                    detail: "injected".into(),
                });
            }
            echo_runner(manifest)
        };
        let events = std::sync::Arc::new(Mutex::new(Vec::<CoordEvent>::new()));
        let seen = events.clone();
        let result = Coordinator::new(&flaky, 2)
            .retries(1)
            .backoff(Backoff::none())
            .on_event(move |e| seen.lock().unwrap().push(e.clone()))
            .run::<Tok>(&spec(6));
        assert!(result.is_ok(), "{result:?}");
        let events = events.lock().unwrap().clone();
        let retries: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, CoordEvent::Retry { .. }))
            .collect();
        assert_eq!(retries.len(), 1);
        match retries[0] {
            CoordEvent::Retry {
                shard,
                attempt,
                attempts,
                cause,
            } => {
                assert_eq!((*shard, *attempt, *attempts), (1, 1, 2));
                assert!(cause.contains("injected"), "{cause}");
            }
            _ => unreachable!(),
        }
        let done = events
            .iter()
            .filter(|e| matches!(e, CoordEvent::ShardDone { .. }))
            .count();
        assert_eq!(done, 2);
    }

    #[test]
    fn streaming_transports_feed_point_events_to_the_observer() {
        use std::sync::Mutex;

        // A transport that interleaves one progress record per entry with
        // the report lines, like a worker in `--progress` mode.
        let streaming = |manifest: &ShardManifest| -> Result<String, DistError> {
            let mut out = String::new();
            for (done, entry) in manifest.entries.iter().enumerate() {
                out.push_str(
                    &crate::progress::ProgressEvent {
                        shard: manifest.shard,
                        shards: manifest.shards,
                        done: done + 1,
                        total: manifest.entries.len(),
                        index: entry.index,
                        messages: 12,
                        rounds: 2,
                        ok: true,
                        elapsed_nanos: (done as u64 + 1) * 1_000_000,
                    }
                    .to_json_line(),
                );
                out.push('\n');
            }
            out.push_str(&echo_runner(manifest)?);
            Ok(out)
        };

        let live = std::sync::Arc::new(Mutex::new(crate::progress::LiveAggregates::new()));
        let points = std::sync::Arc::new(AtomicUsize::new(0));
        let (live_in, points_in) = (live.clone(), points.clone());
        let result = Coordinator::new(streaming, 3)
            .on_event(move |e| {
                if matches!(e, CoordEvent::Point(_)) {
                    points_in.fetch_add(1, Ordering::SeqCst);
                }
                live_in.lock().unwrap().ingest_coord(e);
            })
            .run::<Tok>(&spec(9));
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(points.load(Ordering::SeqCst), 9);
        let live = live.lock().unwrap();
        assert_eq!(live.total_done(), 9);
        assert!(live.is_complete());
    }

    #[test]
    fn streamed_outcomes_survive_a_crashed_attempt() {
        // First attempt per shard streams outcome lines for all its points
        // and then "crashes" (spawn error, no report). The bank keeps the
        // streamed points, so the retry's re-planned manifest is empty and
        // the shard settles without recomputation.
        let attempts = AtomicUsize::new(0);
        let opened = std::sync::Arc::new(std::sync::Mutex::new(Vec::<usize>::new()));
        let opened_in = opened.clone();
        let streams_then_dies = move |manifest: &ShardManifest| -> Result<String, DistError> {
            opened_in.lock().unwrap().push(manifest.entries.len());
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                let mut out = String::new();
                for e in &manifest.entries {
                    PointOutcome {
                        index: e.index,
                        result: Ok::<_, SimError>(Tok(e.seed ^ e.index as u64)),
                    }
                    .encode(&mut out);
                }
                out.push_str("worker-error detail=simulated%20crash\n");
                return Ok(out);
            }
            echo_runner(manifest)
        };
        let spec = spec(5);
        let merged = Coordinator::new(streams_then_dies, 1)
            .retries(1)
            .backoff(Backoff::none())
            .run::<Tok>(&spec)
            .unwrap();
        let reference = Coordinator::new(echo_runner, 1).run::<Tok>(&spec).unwrap();
        assert_eq!(merged, reference);
        // The retry attempt (if opened at all) saw zero entries re-planned.
        let sizes = opened.lock().unwrap().clone();
        assert_eq!(sizes[0], 5);
        assert!(sizes.len() <= 2);
        if let Some(&second) = sizes.get(1) {
            assert_eq!(second, 0);
        }
    }

    #[test]
    fn partial_mode_partitions_grid_between_covered_and_missing() {
        // Shard 1 always fails; everything else succeeds. Partial mode
        // must keep shard 0/2's points and map exactly shard 1's points as
        // missing.
        let half_dead = |manifest: &ShardManifest| -> Result<String, DistError> {
            if manifest.shard == 1 {
                return Err(DistError::Spawn {
                    shard: 1,
                    detail: "dead rack".into(),
                });
            }
            echo_runner(manifest)
        };
        let spec = spec(9);
        let coordinator = Coordinator::new(half_dead, 3)
            .retries(2)
            .backoff(Backoff::none());
        let partial = coordinator.run_partial::<Tok>(&spec);
        assert!(!partial.is_complete());
        assert_eq!(partial.grid_len, 9);
        let covered: Vec<usize> = partial.outcomes.iter().map(|(i, _)| *i).collect();
        let mut all: Vec<usize> = covered.clone();
        all.extend(&partial.missing);
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>(), "not a partition");
        assert_eq!(partial.missing, vec![3, 4, 5]);
        assert_eq!(partial.failures.len(), 1);
        assert_eq!(partial.failures[0].shard, 1);
        assert_eq!(partial.failures[0].attempts, 3);
        assert!(partial.failures[0].last.contains("dead rack"));
        // The strict path reports the same failure as Exhausted.
        let err = coordinator.run::<Tok>(&spec).unwrap_err();
        assert!(matches!(err, DistError::Exhausted { shard: 1, .. }));
    }

    #[test]
    fn partial_event_reaches_the_observer() {
        use std::sync::Mutex;
        let dead = |manifest: &ShardManifest| -> Result<String, DistError> {
            Err(DistError::Spawn {
                shard: manifest.shard,
                detail: "down".into(),
            })
        };
        let events = std::sync::Arc::new(Mutex::new(Vec::<CoordEvent>::new()));
        let seen = events.clone();
        let partial = Coordinator::new(dead, 2)
            .retries(0)
            .backoff(Backoff::none())
            .on_event(move |e| seen.lock().unwrap().push(e.clone()))
            .run_partial::<Tok>(&spec(4));
        assert_eq!(partial.outcomes.len(), 0);
        let events = events.lock().unwrap();
        let partials: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CoordEvent::Partial {
                    covered,
                    missing,
                    grid,
                } => Some((*covered, *missing, *grid)),
                _ => None,
            })
            .collect();
        assert_eq!(partials, vec![(0, 4, 4)]);
    }

    #[test]
    fn watchdog_kills_stalled_attempts_and_work_is_stolen() {
        use crate::transport::{BufferedLink, WorkerLink};
        use std::sync::{Arc, Condvar as SyncCondvar, Mutex as SyncMutex};

        /// First attempt at shard 0 stalls forever (until aborted); all
        /// other attempts echo.
        struct StallOnce {
            stalled_once: AtomicUsize,
        }
        struct StallingLink {
            aborted: Arc<(SyncMutex<bool>, SyncCondvar)>,
        }
        impl WorkerLink for StallingLink {
            fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
                let (lock, cond) = &*self.aborted;
                let mut aborted = lock.lock().unwrap();
                while !*aborted {
                    aborted = cond.wait(aborted).unwrap();
                }
                Err(DistError::Stalled { shard: 0 })
            }
            fn finish(&mut self) -> Result<(), DistError> {
                Ok(())
            }
            fn abort_handle(&self) -> crate::transport::AbortHandle {
                let pair = self.aborted.clone();
                Arc::new(move || {
                    let (lock, cond) = &*pair;
                    *lock.lock().unwrap() = true;
                    cond.notify_all();
                })
            }
        }
        impl ShardTransport for StallOnce {
            fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
                if manifest.shard == 0 && self.stalled_once.fetch_add(1, Ordering::SeqCst) == 0 {
                    return Ok(Box::new(StallingLink {
                        aborted: Arc::new((SyncMutex::new(false), SyncCondvar::new())),
                    }));
                }
                Ok(Box::new(BufferedLink::from_text(&echo_runner(manifest)?)))
            }
        }

        let spec = spec(6);
        let merged = Coordinator::new(
            StallOnce {
                stalled_once: AtomicUsize::new(0),
            },
            2,
        )
        .retries(1)
        .backoff(Backoff::none())
        .watchdog(Duration::from_millis(50))
        .run::<Tok>(&spec)
        .unwrap();
        let reference = Coordinator::new(echo_runner, 1).run::<Tok>(&spec).unwrap();
        assert_eq!(merged, reference);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let backoff = Backoff::default();
        for shard in 0..4 {
            for attempt in 1..=6 {
                assert_eq!(
                    backoff.delay(shard, attempt),
                    backoff.delay(shard, attempt),
                    "delay must be pure"
                );
            }
        }
        // Exponential growth up to the cap: the un-jittered part doubles.
        let base = Duration::from_millis(50);
        for attempt in 1..=4 {
            let d = backoff.delay(0, attempt);
            let floor = base * (1 << (attempt - 1));
            assert!(d >= floor, "attempt {attempt}: {d:?} < {floor:?}");
            assert!(
                d <= floor + floor.mul_f64(backoff.jitter),
                "attempt {attempt}: {d:?} above jitter ceiling"
            );
        }
        // The cap binds eventually.
        assert!(backoff.delay(0, 30) <= backoff.max.mul_f64(1.0 + backoff.jitter));
        // Jitter differs across shards somewhere (seeded per shard).
        let differs = (1..16).any(|s| backoff.delay(s, 2) != backoff.delay(0, 2));
        assert!(differs, "jitter never varied across shards");
        assert_eq!(Backoff::none().delay(3, 5), Duration::ZERO);
    }

    #[test]
    fn worker_command_reports_spawn_failures() {
        use crate::transport::WorkerCommand;
        let cmd = WorkerCommand::new("/nonexistent/definitely-not-a-worker");
        let manifest = plan_shards(&spec(1), 1).remove(0);
        match cmd.open(&manifest) {
            Err(DistError::Spawn { shard: 0, .. }) => {}
            Ok(_) => panic!("expected Spawn error, got a link"),
            Err(other) => panic!("expected Spawn error, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_informatively() {
        for err in [
            DistError::Spawn {
                shard: 1,
                detail: "x".into(),
            },
            DistError::WorkerFailed {
                shard: 2,
                code: Some(3),
                stderr: "bad".into(),
            },
            DistError::ShardMismatch {
                expected: 0,
                got: 1,
            },
            DistError::Stalled { shard: 3 },
            DistError::Incomplete {
                shard: 4,
                missing: 2,
            },
            DistError::WorkerNotFound {
                searched: vec!["$CAMPAIGN_WORKER (unset)".into(), "/tmp/x".into()],
            },
            DistError::MissingPoint { index: 4 },
            DistError::DuplicatePoint { index: 5 },
            DistError::StrayPoint { index: 6 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
