//! Benches for the proof machinery (EXP-F1/F2/TAB1 timing companion):
//! execution-family construction, merge, swap, validation, and
//! indistinguishability checking. Uses `ba_bench::harness` (no criterion;
//! the workspace builds offline).

use ba_bench::harness::{BenchConfig, BenchGroup};
use ba_core::lowerbound::{
    exhaustive_omission_check, merge, swap_omission, ExhaustiveConfig, FamilyRunner, Partition,
};
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
    // 2^(2·3·r) adversaries at n = 4: r = 1 → 64, r = 2 → 4096.
    let group = BenchGroup::with_config(
        "exhaustive_model_check",
        BenchConfig {
            warmup_iters: 1,
            iters: 5,
        },
    );
    for rounds in [1u64, 2] {
        let cfg = ExecutorConfig::new(4, 1);
        let book = Keybook::new(4);
        let bounds = ExhaustiveConfig::new(rounds);
        group.bench(&format!("ds_n4_t1_r{rounds}"), || {
            exhaustive_omission_check(
                &cfg,
                DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero),
                &[Bit::One; 4],
                ProcessId(3),
                &bounds,
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
