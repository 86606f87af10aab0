//! Allocation-count gates for the stats-mode sweep path and the
//! exhaustive model checker.
//!
//! The broadcast representation plus [`StatsSink`](ba_sim::TraceMode::Stats)
//! exist so a campaign point costs O(n · rounds) allocator traffic (outboxes
//! and process state), not O(n² · rounds) (a clone or fragment-map node per
//! edge). Likewise [`FingerprintSink`](ba_sim::FingerprintSink) exists so an
//! explored `ba-check` execution costs its run's set-up and one event
//! buffer, not a recorded trace. This binary installs a counting
//! [`GlobalAlloc`] wrapper — it lives here because `ba-sim` itself forbids
//! unsafe code — and pins the allocations-per-point budget of a phase-king
//! stats sweep and the allocations-per-execution budget of a model check,
//! so an accidental return to per-edge allocation or to recorded traces
//! fails loudly instead of only showing up as bench noise.
//!
//! Kept to a single `#[test]` so parallel test threads cannot pollute the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ba_check::{check, CheckSpec};
use ba_protocols::broken::ParanoidEcho;
use ba_sim::{Bit, Campaign, ExecutorConfig};

/// Counts every `alloc`/`realloc` call and delegates to [`System`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter is
// a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls made while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn stats_sweep_allocations_stay_linear_per_point() {
    stats_sweep_allocations();
    model_check_allocations();
}

fn stats_sweep_allocations() {
    let grid = |nts: &[(usize, usize)]| {
        Campaign::grid(nts.iter().copied(), &["none", "isolation"], &["ones"])
            .points()
            .to_vec()
    };
    let sweep = |points: &[ba_sim::CampaignPoint]| {
        let report = ba_bench::dist::scenario_campaign_report(points, "phase-king", 11, 0)
            .expect("registry sweep");
        assert_eq!(report.errors().count(), 0, "{}", report.summary());
    };

    // Warm-up settles one-time allocations (thread-local registries, lazy
    // statics) outside the measured window.
    let points = grid(&[(16, 4), (32, 8), (64, 16)]);
    sweep(&points);

    let allocs = allocations_during(|| sweep(&points));
    let per_point = allocs / points.len() as u64;

    // Slots, message volume, and the per-edge count the budget must NOT
    // track: the n = 64, t = 16 points alone carry >200k messages each.
    let edge_work: u64 = points
        .iter()
        .map(|p| (p.n * p.n) as u64 * 3 * (p.t as u64 + 1))
        .sum();
    let per_point_edges = edge_work / points.len() as u64;

    println!("allocations: {allocs} total, {per_point} per point (per-point edge count {per_point_edges})");

    // Measured: ~70 allocations per point (vs ~80k edges per point) — the
    // buffers are all reused across rounds and points. The hard budget
    // leaves generous headroom for allocator/libstd drift while staying
    // two orders of magnitude below the per-edge count a
    // clone-per-receiver representation would reintroduce.
    assert!(
        per_point < 2_000,
        "stats path allocates {per_point} times per point (budget 2000)"
    );
    assert!(
        per_point < per_point_edges / 32,
        "stats path allocates {per_point} times per point — tracking the \
         per-edge count ({per_point_edges}); the broadcast fan-out must not \
         allocate per receiver"
    );
}

fn model_check_allocations() {
    // One of the benchmark's model-check spaces: paranoid-echo at n = 4,
    // t = 1, both omission directions over two fault rounds, corruption up
    // to t — 16,385 explored executions, plus the shrink of the violation.
    let explore = |rounds: u64| {
        let spec = CheckSpec::new(ExecutorConfig::new(4, 1), rounds);
        check(&spec, |_| ParanoidEcho::new(), &[Bit::Zero; 4], 1)
            .expect("check runs")
            .report()
            .executions
    };

    // Warm-up on a smaller space of the same shape.
    explore(1);

    let mut executions = 0;
    let allocs = allocations_during(|| executions = explore(2));
    assert_eq!(executions, 16_385);
    let per_execution = allocs as f64 / executions as f64;

    println!("model check: {allocs} allocations over {executions} executions, {per_execution:.1} per execution");

    // Measured: 34.9 per execution (36.9 while each leaf copied its
    // decision points and corruption set out of the tape model). An
    // explorer that recorded each execution into a payload arena before
    // fingerprinting it made 57.9; the budget sits between the two.
    assert!(
        per_execution < 48.0,
        "the model checker allocates {per_execution:.1} times per explored execution \
         (budget 48)"
    );
}
