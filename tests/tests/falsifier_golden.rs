//! Golden falsifier table: every `ba_bench::dist` registry protocol at
//! three small `(n, t)`, in all four combinations of orientation and
//! Lemma 4 scan parallelism, keeps the verdict pinned by `golden()`.
//!
//! A refutation pins the certificate's kind, a digest of its provenance
//! and a digest of its execution; a survival pins the report's largest
//! message complexity, its explored-execution count and a digest of its
//! notes. The pinned values were read from the falsifier that recorded
//! every constructed execution as a full trace, before it examined
//! outlines and re-ran in full only where the argument reads a trace.
//! The four parallelism settings must agree value for value.

use std::sync::Arc;

use ba_bench::dist::REGISTRY;
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_crypto::Keybook;
use ba_obs::Aggregator;
use ba_protocols::broken::{
    LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_sim::{stable_hash, Bit, Payload, ProcessId, Protocol};

/// The sizes every protocol runs at; `n > 3t` keeps Phase King in range.
const SIZES: [(usize, usize); 3] = [(7, 2), (10, 3), (13, 4)];

/// A pinned verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Expect {
    Refuted {
        /// The violation's `Display`.
        kind: String,
        /// `stable_hash` of the provenance's `Debug`.
        provenance: u64,
        /// `stable_hash` of the certificate execution's `Debug`.
        execution: u64,
    },
    Survived {
        max_message_complexity: u64,
        executions_explored: usize,
        /// `stable_hash` of the notes' `Debug`.
        notes: u64,
    },
}

fn refuted(kind: &str, provenance: u64, execution: u64) -> Expect {
    Expect::Refuted {
        kind: kind.into(),
        provenance,
        execution,
    }
}

fn survived(max_message_complexity: u64, executions_explored: usize, notes: u64) -> Expect {
    Expect::Survived {
        max_message_complexity,
        executions_explored,
        notes,
    }
}

/// A verdict in pinned form; a certificate must also re-verify.
fn observe<M: Payload>(verdict: Verdict<M>) -> Expect {
    let digest = |value: &dyn std::fmt::Debug| stable_hash(&format!("{value:?}"));
    match verdict {
        Verdict::Violation(cert) => {
            cert.verify().expect("certificate re-verifies");
            refuted(
                &cert.kind.to_string(),
                digest(&cert.provenance),
                digest(&cert.execution),
            )
        }
        Verdict::Survived(report) => survived(
            report.max_message_complexity,
            report.executions_explored,
            digest(&report.notes),
        ),
    }
}

/// Runs `factory` under all four parallelism settings, asserts they agree,
/// and returns the common outcome with the number of critical rounds the
/// Lemma 4 scan found.
fn run_all_modes<P, F>(n: usize, t: usize, factory: F) -> (Expect, u64)
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let mut outcomes = Vec::new();
    for orientations in [false, true] {
        for scan in [false, true] {
            let agg = Arc::new(Aggregator::new());
            let cfg = FalsifierConfig::new(n, t)
                .with_parallel_orientations(orientations)
                .with_parallel_scan(scan)
                .with_recorder(agg.clone());
            let verdict = falsify(&cfg, &factory).expect("falsifier runs");
            let critical = agg
                .snapshot()
                .deterministic()
                .events
                .get("falsifier.scan.critical")
                .copied()
                .unwrap_or(0);
            outcomes.push(((orientations, scan), observe(verdict), critical));
        }
    }
    let (_, first, _) = outcomes[0].clone();
    for (mode, outcome, _) in &outcomes {
        assert_eq!(
            *outcome, first,
            "n={n} t={t}: parallel (orientations, scan) = {mode:?} diverged"
        );
    }
    let critical = outcomes.iter().map(|(_, _, c)| *c).max().unwrap_or(0);
    (first, critical)
}

/// The registry label's protocol at `(n, t)`, as `ba_bench::dist` builds it.
fn run_label(label: &str, n: usize, t: usize) -> (Expect, u64) {
    match label {
        "flood-set" => run_all_modes(n, t, |_| FloodSet::new()),
        "dolev-strong" => run_all_modes(
            n,
            t,
            DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero),
        ),
        "leader-echo" => run_all_modes(n, t, |_| LeaderEcho::new(ProcessId(0))),
        "own-proposal" => run_all_modes(n, t, |_| OwnProposal::new()),
        "one-round-all-to-all" => run_all_modes(n, t, |_| OneRoundAllToAll::new()),
        "paranoid-echo" => run_all_modes(n, t, |_| ParanoidEcho::new()),
        "silent-constant-1" => run_all_modes(n, t, |_| SilentConstant::new(Bit::One)),
        "phase-king" => run_all_modes(n, t, |_| PhaseKing::new(n, t)),
        "phase-king-weak" => {
            run_all_modes(n, t, |_| PhaseKing::with_phases(n, t, (t as u64).max(1)))
        }
        other => panic!("registry label {other:?} has no factory in this table"),
    }
}

/// `(label, n, t, outcome)`.
type Row = (&'static str, usize, usize, Expect);

/// The falsifier's verdicts before outlines, in `REGISTRY` order.
#[rustfmt::skip]
fn golden() -> Vec<Row> {
    vec![
        ("flood-set", 7, 2, survived(126, 12, 0x18189bd8daa1e130)),
        ("flood-set", 10, 3, survived(360, 12, 0x18189bd8daa1e130)),
        ("flood-set", 13, 4, survived(780, 12, 0x18189bd8daa1e130)),
        ("dolev-strong", 7, 2, survived(42, 12, 0x18189bd8daa1e130)),
        ("dolev-strong", 10, 3, survived(90, 12, 0x18189bd8daa1e130)),
        ("dolev-strong", 13, 4, survived(156, 12, 0x18189bd8daa1e130)),
        ("leader-echo", 7, 2, refuted("Agreement violated by p5 and p1", 0x00e9cfe37df9f8b2, 0x812eab1ef86bafa9)),
        ("leader-echo", 10, 3, refuted("Agreement violated by p8 and p1", 0x16874cba2df98397, 0x6cfa3aedc8271e37)),
        ("leader-echo", 13, 4, refuted("Agreement violated by p11 and p1", 0xc4d137fac018d003, 0x9b9af53228c5c051)),
        ("own-proposal", 7, 2, refuted("Agreement violated by p6 and p0", 0xf6c08af5bb974e15, 0xd5a3f41ed462c2d1)),
        ("own-proposal", 10, 3, refuted("Agreement violated by p9 and p0", 0x48253bf6047d43ee, 0xa72aadc46e567b99)),
        ("own-proposal", 13, 4, refuted("Agreement violated by p12 and p0", 0x07cd2d154136b3bc, 0x144cb86812ce7d3f)),
        ("one-round-all-to-all", 7, 2, survived(42, 12, 0x18189bd8daa1e130)),
        ("one-round-all-to-all", 10, 3, survived(90, 12, 0x18189bd8daa1e130)),
        ("one-round-all-to-all", 13, 4, survived(156, 12, 0x18189bd8daa1e130)),
        ("paranoid-echo", 7, 2, survived(84, 13, 0x32cb3de862b0e5e3)),
        ("paranoid-echo", 10, 3, survived(180, 13, 0x32cb3de862b0e5e3)),
        ("paranoid-echo", 13, 4, survived(312, 13, 0x32cb3de862b0e5e3)),
        ("silent-constant-1", 7, 2, refuted("Weak Validity violated by p0: all proposed 0, it decided 1", 0x3efcfa18a220f754, 0xb83a91b5f8e59269)),
        ("silent-constant-1", 10, 3, refuted("Weak Validity violated by p0: all proposed 0, it decided 1", 0x3efcfa18a220f754, 0x8e02c4be9072aaab)),
        ("silent-constant-1", 13, 4, refuted("Weak Validity violated by p0: all proposed 0, it decided 1", 0x3efcfa18a220f754, 0x4bf7939cdab72f97)),
        ("phase-king", 7, 2, survived(270, 12, 0x18189bd8daa1e130)),
        ("phase-king", 10, 3, survived(756, 12, 0x18189bd8daa1e130)),
        ("phase-king", 13, 4, survived(1620, 12, 0x18189bd8daa1e130)),
        ("phase-king-weak", 7, 2, survived(180, 12, 0x18189bd8daa1e130)),
        ("phase-king-weak", 10, 3, survived(567, 12, 0x18189bd8daa1e130)),
        ("phase-king-weak", 13, 4, survived(1296, 12, 0x18189bd8daa1e130)),
    ]
}

#[test]
fn every_registry_protocol_keeps_its_pinned_verdict_in_every_mode() {
    let golden = golden();
    let mut critical_rounds = 0;
    let mut observed = Vec::new();
    for label in REGISTRY {
        for (n, t) in SIZES {
            let (outcome, critical) = run_label(label, n, t);
            critical_rounds += critical;
            observed.push((*label, n, t, outcome));
        }
    }
    assert_eq!(observed, golden);
    assert!(
        critical_rounds > 0,
        "no row reached the Lemma 4 critical round and the Lemma 5 merge"
    );
}
