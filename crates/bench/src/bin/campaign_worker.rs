//! `campaign_worker` — the per-shard worker process of distributed
//! campaign sweeps.
//!
//! Reads a `ba-dist` [`ShardManifest`] (wire format) from stdin or a file,
//! executes the shard on the local `ba_sim::Campaign` thread pool via the
//! `ba_bench::dist` protocol registry, and writes the encoded shard report
//! to stdout or a file. The merging coordinator (`ba_dist::Coordinator`)
//! spawns one of these per shard.
//!
//! Usage:
//!
//! ```text
//! campaign_worker [--manifest FILE] [--out FILE] [--progress] [--stream]
//! campaign_worker --serve ADDR [--conns N] [--progress]
//! ```
//!
//! With no flags: manifest on stdin, report on stdout (the transport
//! `ba_dist::WorkerCommand` uses). With `--progress`, the worker streams
//! one JSONL [`ProgressEvent`] line per completed
//! point to stdout as it finishes, interleaved before the wire report —
//! JSONL lines start with `{` and wire records never do, so downstream
//! consumers (the coordinator's streaming transport, `campaign_watch`)
//! split the stream line-by-line. Telemetry is observation-only: the
//! report is bit-identical with `--progress` on or off.
//!
//! With `--stream`, the worker additionally emits one checksummed
//! `outcome` wire line per point *as it completes* — the redundancy the
//! coordinator's point-level recovery banks, so a worker that crashes
//! after k points only forfeits the rest. The trailing report stays
//! bit-identical.
//!
//! With `--serve ADDR` the worker is a TCP shard server instead
//! (`ba_dist::TcpTransport` is the client side): it binds `ADDR`, prints
//! one `listening addr=IP:PORT` line to stdout (so callers can bind port
//! 0), and then serves one manifest per connection in streaming mode until
//! `--conns N` connections have been handled (forever without it).
//!
//! `$CAMPAIGN_WORKER_DELAY_MS`, if set, sleeps that many milliseconds after
//! each completed point — a throttle for demos and straggler-detection
//! tests (it slows the shard's wall-clock rate without touching any
//! deterministic output).
//!
//! Exits non-zero with a diagnostic on stderr for undecodable manifests,
//! unknown registry labels, or I/O failures.

use std::io::{Read, Write};
use std::process::ExitCode;

use ba_bench::dist::{run_manifest, run_manifest_streaming, run_manifest_with_progress};
use ba_dist::{serve_shards, Decode, ProgressEvent, ShardManifest};

/// Writes one progress line to stdout, flushing so consumers see it live.
fn emit_progress(event: &ProgressEvent, delay_ms: u64) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{}", event.to_json_line());
    let _ = out.flush();
    if delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    }
}

/// Writes one streaming chunk (complete lines) to stdout, flushing so the
/// coordinator sees outcomes live. The per-call lock keeps chunks from
/// concurrent worker threads line-atomic.
fn emit_chunk(chunk: &str, delay_ms: u64) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = out.write_all(chunk.as_bytes());
    let _ = out.flush();
    if delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    }
}

fn point_delay_ms() -> u64 {
    std::env::var("CAMPAIGN_WORKER_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs the TCP shard-server mode: bind, announce, serve.
fn serve(addr: &str, conns: Option<usize>, progress: bool) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("listening addr={local}");
    let _ = std::io::stdout().flush();
    serve_shards(listener, conns, |manifest, emit| {
        eprintln!(
            "campaign_worker: serving shard {}/{} ({} points, protocol {}, mode {})",
            manifest.shard,
            manifest.shards,
            manifest.entries.len(),
            manifest.protocol,
            manifest.mode,
        );
        // Bridge the per-connection FnMut sink into the Sync emitter the
        // streaming worker threads share.
        let sink = std::sync::Mutex::new(emit);
        run_manifest_streaming(manifest, progress, &|chunk: &str| {
            (sink.lock().unwrap_or_else(|p| p.into_inner()))(chunk)
        })
    })
    .map_err(|e| format!("serving {local}: {e}"))
}

fn run() -> Result<(), String> {
    let mut manifest_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut progress = false;
    let mut stream = false;
    let mut serve_addr: Option<String> = None;
    let mut conns: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--manifest" => {
                manifest_path = Some(args.next().ok_or("--manifest needs a file path")?);
            }
            "--out" => out_path = Some(args.next().ok_or("--out needs a file path")?),
            "--progress" => progress = true,
            "--stream" => stream = true,
            "--serve" => serve_addr = Some(args.next().ok_or("--serve needs an address")?),
            "--conns" => {
                let n = args.next().ok_or("--conns needs a count")?;
                conns = Some(n.parse().map_err(|_| format!("bad --conns value {n:?}"))?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: campaign_worker [--manifest FILE] [--out FILE] [--progress] [--stream]"
                );
                println!("       campaign_worker --serve ADDR [--conns N] [--progress]");
                println!("reads a shard manifest (stdin by default), runs it on the local");
                println!("Campaign pool, and emits the shard report (stdout by default);");
                println!("--progress streams one JSONL line per completed point to stdout;");
                println!("--stream also emits one checksummed outcome wire line per point;");
                println!("--serve turns the worker into a TCP shard server (one manifest");
                println!("per connection, streaming mode)");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }

    if let Some(addr) = &serve_addr {
        return serve(addr, conns, progress);
    }

    let input = match &manifest_path {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
    };
    let manifest = ShardManifest::from_wire(&input).map_err(|e| format!("bad manifest: {e}"))?;
    eprintln!(
        "campaign_worker: shard {}/{} ({} points, protocol {}, mode {})",
        manifest.shard,
        manifest.shards,
        manifest.entries.len(),
        manifest.protocol,
        manifest.mode,
    );
    if stream {
        // Streaming always goes to stdout: it exists for a live consumer.
        let delay_ms = point_delay_ms();
        return run_manifest_streaming(&manifest, progress, &|chunk: &str| {
            emit_chunk(chunk, delay_ms)
        });
    }
    let report = if progress {
        let delay_ms = point_delay_ms();
        run_manifest_with_progress(&manifest, move |event| emit_progress(&event, delay_ms))?
    } else {
        run_manifest(&manifest)?
    };
    match &out_path {
        Some(path) => std::fs::write(path, report).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{report}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("campaign_worker: {message}");
            ExitCode::FAILURE
        }
    }
}
