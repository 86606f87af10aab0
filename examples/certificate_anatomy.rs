//! Dissecting a violation certificate: run the falsifier, then render the
//! violating execution round by round (traffic, omissions, decisions);
//! then find the minimal adversary against a cheaper broken protocol by
//! exhaustive model checking.
//!
//! Run with `cargo run --release -p ba-examples --example certificate_anatomy`.

use ba_check::{check, CheckSpec};
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_examples::banner;
use ba_protocols::broken::{LeaderEcho, OneRoundAllToAll};
use ba_sim::{render_execution, Bit, ExecutorConfig, ProcessId};

fn main() {
    let (n, t) = (8, 4);

    print!(
        "{}",
        banner("a falsifier certificate, dissected (LeaderEcho, n = 8, t = 4)")
    );
    let cfg = FalsifierConfig::new(n, t);
    let verdict = falsify(&cfg, |_| LeaderEcho::new(ProcessId(0))).expect("falsifier run");
    let Verdict::Violation(cert) = verdict else {
        panic!("LeaderEcho must be refuted");
    };
    cert.verify().expect("certificate verification");
    println!("violation: {}\n", cert.kind);
    println!("derivation:");
    for step in &cert.provenance {
        println!("  - {step}");
    }
    println!("\nthe violating execution, round by round:\n");
    print!("{}", render_execution(&cert.execution));

    print!(
        "{}",
        banner("the minimal adversary, by exhaustive enumeration")
    );
    println!("OneRoundAllToAll at n = 4, t = 1: enumerate EVERY send-omission pattern");
    println!("of one corrupted process and report the smallest that splits the");
    println!("correct processes:\n");
    let spec = CheckSpec::new(ExecutorConfig::new(4, 1), 1)
        .static_corruption([ProcessId(3)])
        .send_only();
    let outcome =
        check(&spec, |_| OneRoundAllToAll::new(), &[Bit::Zero; 4], 1).expect("exhaustive check");
    let cert = outcome.certificate().expect("violation must exist");
    cert.verify().expect("certificate verification");
    println!(
        "{} ({} executions explored)",
        cert.kind,
        outcome.report().executions
    );
    for step in &cert.provenance {
        println!("  - {step}");
    }
    print!("\n{}", render_execution(&cert.execution));
    println!("\nA single send-omission suffices — weak consensus really is fragile,");
    println!("and any protocol that fixes this pays the Ω(t²) price (Theorem 2).");
}
