//! `paper_experiments` argument handling: an unknown section or a bad
//! `--shards` value is a usage error on stderr with a non-zero exit, and no
//! section runs. Also runs the `exhaustive` section end to end.

use std::process::Command;

fn assert_usage_error(args: &[&str], expected: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_paper_experiments"))
        .args(args)
        .output()
        .expect("spawn paper_experiments");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "{args:?} must fail, got {}",
        output.status
    );
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: paper_experiments"),
        "{args:?}: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{args:?} ran something: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn unknown_section_is_a_usage_error() {
    assert_usage_error(&["bogus"], "unknown section \"bogus\"");
    // A valid section does not excuse a bad one after it.
    assert_usage_error(&["tab1", "thm22"], "unknown section \"thm22\"");
}

#[test]
fn bad_shards_value_is_a_usage_error() {
    assert_usage_error(&["--shards", "x"], "bad --shards value \"x\"");
    assert_usage_error(&["thm2", "--shards"], "--shards needs a value");
}

#[test]
fn exhaustive_section_prints_every_verdict() {
    let output = Command::new(env!("CARGO_BIN_EXE_paper_experiments"))
        .arg("exhaustive")
        .output()
        .expect("spawn paper_experiments");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "exit {}: {stdout}", output.status);
    for (protocol, verdict) in [
        ("one-round-all-to-all", "VIOLATED"),
        ("paranoid-echo", "VIOLATED"),
        ("leader-echo (follower)", "ROBUST"),
        ("leader-echo (leader)", "VIOLATED"),
        ("dolev-strong (correct)", "ROBUST"),
        ("dolev-strong (sender)", "ROBUST"),
    ] {
        let row = stdout
            .lines()
            .find(|line| line.starts_with(&format!("{protocol} ")))
            .unwrap_or_else(|| panic!("no row for {protocol}: {stdout}"));
        assert!(row.contains(verdict), "{protocol}: {row}");
    }
}
