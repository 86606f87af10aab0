//! `model_check` argument handling: a point the executor cannot run is a
//! reported error with exit code 1, not a panic.

use std::process::Command;

#[test]
fn unrunnable_resilience_bound_is_an_error_not_a_panic() {
    let output = Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args(["--n", "2", "--t", "2"])
        .output()
        .expect("spawn model_check");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("require t < n"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
