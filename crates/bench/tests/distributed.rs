//! End-to-end tests of distributed campaign sharding against the real
//! `campaign_worker` binary (located via `CARGO_BIN_EXE_campaign_worker`).
//!
//! The load-bearing property: a sweep sharded over k worker *processes*
//! merges into the **identical** value — stats, violations, message
//! complexity, grid order — as the same sweep in one process, for every k.

use ba_bench::dist::{
    distributed_falsifier_sweep, distributed_scenario_sweep, scenario_campaign_report,
    scenario_campaign_report_mode,
};
use ba_bench::falsifier_sweep;
use ba_dist::{Coordinator, ShardMode, SweepSpec, WorkerCommand};
use ba_protocols::broken::LeaderEcho;
use ba_sim::{Campaign, CampaignPoint, ProcessId};

fn worker() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_campaign_worker"))
}

/// A mixed-adversary, mixed-input grid: every adversary flavor the worker
/// registry interprets — the static plans, the seeded one, and the adaptive
/// fault-model family (`adaptive-worst-case` / `mobile` / `scheduler`), so
/// shard invariance is checked end-to-end for execution-observing
/// adversaries too.
fn mixed_grid() -> Vec<CampaignPoint> {
    Campaign::grid(
        [(4, 1), (5, 1), (6, 2), (7, 2)],
        ba_bench::dist::ADVERSARIES,
        &["ones", "alternating", "random"],
    )
    .points()
    .to_vec()
}

#[test]
fn sharded_scenario_sweeps_are_invariant_in_shard_count() {
    let points = mixed_grid();
    let base_seed = 0xBA5E_D15C;
    // In-process reference: the exact computation the workers run, on one
    // local Campaign pool.
    let reference =
        scenario_campaign_report(&points, "flood-set", base_seed, 0).expect("reference sweep");
    // The same sweep through the full coordinator → worker-process → merge
    // pipeline, at two shard counts.
    let one = distributed_scenario_sweep(&points, "flood-set", base_seed, 1, worker())
        .expect("1-shard sweep");
    let four = distributed_scenario_sweep(&points, "flood-set", base_seed, 4, worker())
        .expect("4-shard sweep");
    assert_eq!(one, reference, "coordinator(k=1) must equal in-process run");
    assert_eq!(
        four, reference,
        "coordinator(k=4) must equal in-process run"
    );
    // Spot-check that the equality is over real content: the grid exercises
    // faults, so some traffic was actually dropped somewhere.
    assert_eq!(reference.outcomes.len(), points.len());
    assert!(reference.total_message_complexity() > 0);
    assert!(
        reference
            .stats()
            .any(|(_, s)| s.total_messages > s.message_complexity),
        "the mixed grid should produce faulty-process traffic"
    );
}

#[test]
fn stats_only_workers_reproduce_the_full_trace_reference_bit_for_bit() {
    // Workers run the TraceMode::Stats engine (no Execution is ever
    // materialized in a worker process); the reference here deliberately
    // materializes and validates FULL traces before deriving stats. The
    // merged wire-format reports must still be value-identical — shard
    // invariance composed with sink equivalence.
    let points = mixed_grid();
    let base_seed = 0x0005_7A75;
    let full_reference =
        scenario_campaign_report_mode(&points, "flood-set", base_seed, 0, ba_sim::TraceMode::Full)
            .expect("full-trace reference sweep");
    let merged = distributed_scenario_sweep(&points, "flood-set", base_seed, 3, worker())
        .expect("3-shard stats-only sweep");
    assert_eq!(
        merged, full_reference,
        "merge(k stats-only shards) must equal the full-trace run(1)"
    );
}

#[test]
fn distributed_falsifier_sweep_reproduces_the_single_process_sweep() {
    // ≥ 4 (n, t) points, 4 shards — the acceptance grid of the sharding
    // subsystem. Leader-echo is refuted at every point.
    let nts = [(8usize, 2usize), (10, 2), (12, 4), (16, 8), (14, 4)];
    let local = falsifier_sweep(&nts, |_point| |_: ProcessId| LeaderEcho::new(ProcessId(0)));
    let distributed = distributed_falsifier_sweep(&nts, "leader-echo", 4, worker())
        .expect("4-shard falsifier sweep");
    assert_eq!(distributed, local);
    assert_eq!(distributed.len(), nts.len());
    for point in &distributed {
        assert!(
            point.refuted,
            "leader-echo must be refuted at {}",
            point.point
        );
    }
}

#[test]
fn worker_processes_run_shards_concurrently_with_retries_enabled() {
    // Exercise the coordinator's threaded dispatch path with more shards
    // than points in some shards (k > points ⇒ k clamps to the grid size).
    let points: Vec<CampaignPoint> = (4..10)
        .map(|n| CampaignPoint::new(n, 1).with_inputs("ones"))
        .collect();
    let spec = SweepSpec::scenarios(points.clone(), "dolev-strong").base_seed(3);
    let report = Coordinator::new(worker(), 16)
        .retries(1)
        .run_campaign(&spec)
        .expect("over-sharded sweep");
    assert!(report.all_clean(), "{}", report.summary());
    assert_eq!(
        report,
        scenario_campaign_report(&points, "dolev-strong", 3, 0).unwrap()
    );
}

#[test]
fn worker_binary_supports_file_based_manifests() {
    // The --manifest/--out flags are the file transport for runs where
    // shards are dispatched out-of-band (e.g. a batch queue).
    use ba_dist::{plan_shards, Decode, Encode, ShardReport};
    use ba_sim::{Bit, ScenarioStats};

    let spec = SweepSpec::scenarios(mixed_grid(), "flood-set").base_seed(99);
    let manifest = &plan_shards(&spec, 2)[1];
    let dir = std::env::temp_dir();
    let manifest_path = dir.join("ba_dist_test_manifest.wire");
    let out_path = dir.join("ba_dist_test_report.wire");
    std::fs::write(&manifest_path, manifest.to_wire()).unwrap();

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_campaign_worker"))
        .arg("--manifest")
        .arg(&manifest_path)
        .arg("--out")
        .arg(&out_path)
        .status()
        .expect("spawn worker");
    assert!(status.success());

    let report: ShardReport<ScenarioStats<Bit>> =
        ShardReport::from_wire(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(report.shard, 1);
    assert_eq!(report.outcomes.len(), manifest.entries.len());
    let _ = std::fs::remove_file(manifest_path);
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn chaos_injected_worker_processes_reproduce_the_reference_bit_for_bit() {
    // Real worker processes in `--stream --progress` dress, wrapped in the
    // deterministic chaos transport (crashes, stalls, truncations, corrupt
    // lines, dropped connections; relenting after two faulted attempts per
    // shard). The point-level recovery fabric must absorb every fault and
    // merge the exact in-process report.
    use ba_dist::{Backoff, ChaosPlan, ChaosTransport};
    use std::time::Duration;

    let points: Vec<CampaignPoint> = (4..10)
        .map(|n| CampaignPoint::new(n, 1).with_inputs("ones"))
        .collect();
    let spec = SweepSpec::scenarios(points.clone(), "dolev-strong").base_seed(0xC0DE);
    let reference = scenario_campaign_report(&points, "dolev-strong", 0xC0DE, 0).unwrap();
    for seed in [1u64, 7, 23] {
        let chaos = ChaosTransport::new(
            worker().with_stream(true).with_progress(true),
            ChaosPlan::new(seed),
        );
        let report = Coordinator::new(chaos, 3)
            .retries(4)
            .backoff(Backoff::none())
            .watchdog(Duration::from_secs(2))
            .run_campaign(&spec)
            .unwrap_or_else(|e| panic!("chaos seed {seed}: sweep failed: {e}"));
        assert_eq!(
            report, reference,
            "chaos seed {seed}: merged report diverged"
        );
    }
}

#[test]
fn streamed_worker_stdout_carries_the_plain_report_bit_for_bit() {
    // `--stream` interleaves progress JSONL and checksummed outcome lines
    // before the report; stripping those must leave the *byte-identical*
    // plain report, and every streamed outcome must decode to the report's
    // value for its index.
    use ba_dist::{plan_shards, Decode, Encode, PointOutcome, ShardReport};
    use ba_sim::{Bit, ScenarioStats};

    let spec = SweepSpec::scenarios(mixed_grid(), "flood-set").base_seed(0x57AB);
    let manifest = &plan_shards(&spec, 2)[0];
    let run = |extra_args: &[&str]| -> String {
        use std::io::Write;
        use std::process::Stdio;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_campaign_worker"))
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(manifest.to_wire().as_bytes())
            .unwrap();
        let output = child.wait_with_output().unwrap();
        assert!(output.status.success());
        String::from_utf8(output.stdout).expect("worker stdout")
    };

    let plain = run(&[]);
    let streamed = run(&["--stream", "--progress"]);

    let mut report_text = String::new();
    let mut outcome_lines = Vec::new();
    for line in streamed.lines() {
        if line.starts_with('{') {
            continue;
        }
        if line.starts_with("outcome ") {
            outcome_lines.push(line.to_string());
            continue;
        }
        report_text.push_str(line);
        report_text.push('\n');
    }
    assert_eq!(
        report_text, plain,
        "the trailing streamed report must be byte-identical to the plain run"
    );

    let report: ShardReport<ScenarioStats<Bit>> = ShardReport::from_wire(&plain).unwrap();
    assert_eq!(outcome_lines.len(), report.outcomes.len());
    for line in &outcome_lines {
        let streamed: PointOutcome<ScenarioStats<Bit>> =
            PointOutcome::from_wire(&format!("{line}\n")).expect("streamed outcome decodes");
        assert!(
            report
                .outcomes
                .contains(&(streamed.index, streamed.result.clone())),
            "streamed outcome for index {} diverges from the report",
            streamed.index
        );
    }
}

#[test]
fn tcp_served_shards_merge_identically_to_the_in_process_sweep() {
    // `campaign_worker --serve 127.0.0.1:0` announces its bound port on
    // stdout; `TcpTransport` dials it once per shard attempt. The merged
    // report must equal the in-process reference.
    use ba_dist::TcpTransport;
    use std::io::BufRead;
    use std::process::Stdio;

    let points: Vec<CampaignPoint> = (4..9)
        .map(|n| CampaignPoint::new(n, 1).with_inputs("alternating"))
        .collect();
    let spec = SweepSpec::scenarios(points.clone(), "flood-set").base_seed(0x7C9);
    let shards = 2;

    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_campaign_worker"))
        .args(["--serve", "127.0.0.1:0", "--conns", "2", "--progress"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard server");
    let mut announce = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut announce)
        .expect("read announce line");
    let addr = announce
        .trim()
        .strip_prefix("listening addr=")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .to_string();

    let report = Coordinator::new(TcpTransport::new(addr), shards)
        .run_campaign(&spec)
        .expect("TCP-served sweep");
    assert_eq!(
        report,
        scenario_campaign_report(&points, "flood-set", 0x7C9, 0).unwrap()
    );

    // --conns 2 means the server exits cleanly once both shards are served.
    let status = server.wait().expect("server exit");
    assert!(status.success());
}

#[test]
fn worker_binary_rejects_garbage_and_unknown_labels() {
    use ba_dist::{plan_shards, Encode};
    use std::io::Write;
    use std::process::Stdio;

    let run_with_stdin = |input: &str| -> std::process::Output {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_campaign_worker"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        child.wait_with_output().unwrap()
    };

    let garbage = run_with_stdin("this is not a manifest\n");
    assert!(!garbage.status.success());
    assert!(String::from_utf8_lossy(&garbage.stderr).contains("bad manifest"));

    let spec = SweepSpec {
        points: vec![CampaignPoint::new(4, 1)],
        mode: ShardMode::Scenarios,
        protocol: "no-such-protocol".into(),
        base_seed: 0,
        worker_threads: 1,
    };
    let unknown = run_with_stdin(&plan_shards(&spec, 1)[0].to_wire());
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("no-such-protocol"));

    // The Theorem 2 argument needs t ≥ 2: a falsifier point below it is
    // rejected up front with a typed message naming the point, not a
    // worker panic.
    let point = CampaignPoint::new(5, 1);
    let manifest = &plan_shards(&SweepSpec::falsifier(vec![point.clone()], "flood-set"), 1)[0];
    let too_small = run_with_stdin(&manifest.to_wire());
    assert!(!too_small.status.success());
    let stderr = String::from_utf8_lossy(&too_small.stderr);
    assert!(
        stderr.contains(&format!("falsifier at {point}")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let direct = ba_bench::dist::run_manifest(manifest).unwrap_err();
    assert!(direct.contains(&point.to_string()), "{direct}");
    let emitted = std::sync::Mutex::new(Vec::new());
    let streamed = ba_bench::dist::run_manifest_streaming(manifest, false, &|chunk: &str| {
        emitted.lock().unwrap().push(chunk.to_string())
    });
    assert_eq!(streamed, Err(direct));
    assert!(emitted.into_inner().unwrap().is_empty());

    // A check point the executor cannot run (t ≥ n) is rejected the same
    // way, before a spec is built.
    let point = CampaignPoint::new(2, 2)
        .with_adversary(ba_bench::check::CheckLabel::new(1).render())
        .with_inputs("zeros");
    let manifest = &plan_shards(
        &SweepSpec::check(vec![point.clone()], "one-round-all-to-all"),
        1,
    )[0];
    let unrunnable = run_with_stdin(&manifest.to_wire());
    assert!(!unrunnable.status.success());
    let stderr = String::from_utf8_lossy(&unrunnable.stderr);
    assert!(
        stderr.contains(&format!("check at {point}")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let direct = ba_bench::dist::run_manifest(manifest).unwrap_err();
    assert!(direct.contains(&point.to_string()), "{direct}");
    let emitted = std::sync::Mutex::new(Vec::new());
    let streamed = ba_bench::dist::run_manifest_streaming(manifest, false, &|chunk: &str| {
        emitted.lock().unwrap().push(chunk.to_string())
    });
    assert_eq!(streamed, Err(direct));
    assert!(emitted.into_inner().unwrap().is_empty());
}
