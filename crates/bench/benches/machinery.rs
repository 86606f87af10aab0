//! Benches for the proof machinery (EXP-F1/F2/TAB1 timing companion):
//! execution-family construction, merge, swap, validation, and
//! indistinguishability checking. Uses `ba_bench::harness` (no criterion;
//! the workspace builds offline).

use ba_bench::harness::{BenchConfig, BenchGroup};
use ba_check::{check, CheckSpec};
use ba_core::lowerbound::{merge, swap_omission, FamilyRunner, Partition};
use ba_crypto::Keybook;
use ba_protocols::DolevStrong;
use ba_sim::{Bit, ExecutorConfig, ProcessId, Round};

fn setup(
    n: usize,
    t: usize,
) -> (
    ExecutorConfig,
    impl Fn(ProcessId) -> DolevStrong<Bit> + Clone,
    Partition,
) {
    let cfg = ExecutorConfig::new(n, t)
        .with_stop_when_quiescent(false)
        .with_max_rounds(16);
    let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero);
    (cfg, factory, Partition::paper_default(n, t))
}

fn bench_family() {
    let group = BenchGroup::new("family_construction");
    for (n, t) in [(8usize, 2usize), (16, 4), (24, 8)] {
        let (cfg, factory, partition) = setup(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition);
        group.bench(&format!("n{n}_t{t}"), || {
            runner
                .isolated_b::<DolevStrong<Bit>>(Round(2), Bit::Zero)
                .unwrap()
        });
    }
}

fn bench_merge() {
    let group = BenchGroup::new("merge");
    for (n, t) in [(8usize, 2usize), (16, 4), (24, 8)] {
        let (cfg, factory, partition) = setup(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        group.bench(&format!("n{n}_t{t}"), || {
            merge(
                &cfg,
                &factory,
                &partition,
                &eb,
                Round(2),
                &ec,
                Round(2),
                Bit::Zero,
            )
            .unwrap()
        });
    }
}

fn bench_swap_and_checks() {
    let group = BenchGroup::new("swap_and_validation");
    let (n, t) = (16, 8);
    let (cfg, factory, partition) = setup(n, t);
    let runner = FamilyRunner::new(cfg, &factory, partition.clone());
    let eb = runner
        .isolated_b::<DolevStrong<Bit>>(Round(1), Bit::Zero)
        .unwrap();
    let pivot = *partition.b().iter().next().unwrap();

    group.bench("swap_omission_n16_t8", || swap_omission(&eb, pivot));
    group.bench("validate_n16_t8", || eb.validate().unwrap());
    let e2 = eb.clone();
    group.bench("indistinguishability_n16_t8", || {
        ProcessId::all(n)
            .filter(|p| eb.indistinguishable_to(&e2, *p))
            .count()
    });
}

fn bench_exhaustive() {
    // Every send and receive omission pattern of p3 over the first r
    // rounds at n = 4; ba-check branches only where p3 sends or receives,
    // so r = 2 is 36 executions.
    let group = BenchGroup::with_config(
        "exhaustive_model_check",
        BenchConfig {
            warmup_iters: 1,
            iters: 5,
        },
    );
    for rounds in [1u64, 2] {
        let spec =
            CheckSpec::new(ExecutorConfig::new(4, 1), rounds).static_corruption([ProcessId(3)]);
        let book = Keybook::new(4);
        group.bench(&format!("ds_n4_t1_r{rounds}"), || {
            check(
                &spec,
                DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero),
                &[Bit::One; 4],
                1,
            )
            .unwrap()
        });
    }
}

fn main() {
    bench_family();
    bench_merge();
    bench_swap_and_checks();
    bench_exhaustive();
}
