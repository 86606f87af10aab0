//! Benches for the Theorem 2 falsifier (EXP-T2 timing companion):
//! how long the full proof chain takes against refutable and surviving
//! protocols, plus a Campaign-parallel grid sweep. Uses
//! `ba_bench::harness` (no criterion; the workspace builds offline).

use ba_bench::falsifier_sweep;
use ba_bench::harness::BenchGroup;
use ba_core::lowerbound::{falsify, FalsifierConfig};
use ba_crypto::Keybook;
use ba_protocols::broken::{LeaderEcho, OwnProposal, ParanoidEcho};
use ba_protocols::DolevStrong;
use ba_sim::{Bit, ProcessId};

fn bench_falsify_refutable() {
    let group = BenchGroup::new("falsify_refutable");
    for (n, t) in [(8usize, 2usize), (12, 4), (16, 8), (24, 8)] {
        let cfg = FalsifierConfig::new(n, t);
        group.bench(&format!("leader_echo/n{n}_t{t}"), || {
            falsify(&cfg, |_| LeaderEcho::new(ProcessId(0))).unwrap()
        });
        group.bench(&format!("own_proposal/n{n}_t{t}"), || {
            falsify(&cfg, |_| OwnProposal::new()).unwrap()
        });
    }
}

fn bench_falsify_survivors() {
    let group = BenchGroup::new("falsify_survivors");
    for (n, t) in [(8usize, 2usize), (12, 4)] {
        let cfg = FalsifierConfig::new(n, t);
        let book = Keybook::new(n);
        group.bench(&format!("dolev_strong/n{n}_t{t}"), || {
            falsify(
                &cfg,
                DolevStrong::factory(book.clone(), ProcessId(0), Bit::Zero),
            )
            .unwrap()
        });
        group.bench(&format!("paranoid_echo/n{n}_t{t}"), || {
            falsify(&cfg, |_| ParanoidEcho::new()).unwrap()
        });
    }
}

fn bench_campaign_sweep() {
    // The Campaign-parallel grid sweep vs. the same grid serially: the
    // interesting number is the wall-clock ratio on multi-core machines.
    let group = BenchGroup::new("falsifier_grid_sweep");
    let grid = [(8usize, 2usize), (10, 2), (12, 4), (16, 8)];
    group.bench("campaign_parallel_4pts", || {
        falsifier_sweep(&grid, |_| |_: ProcessId| LeaderEcho::new(ProcessId(0)))
    });
    group.bench("serial_4pts", || {
        for &(n, t) in &grid {
            falsify(&FalsifierConfig::new(n, t), |_| {
                LeaderEcho::new(ProcessId(0))
            })
            .unwrap();
        }
    });
}

fn main() {
    bench_falsify_refutable();
    bench_falsify_survivors();
    bench_campaign_sweep();
}
