//! `benchmark --worker [--progress]`: the shard worker `dist-sweep` spawns.
//!
//! The same body as the repository's `campaign_worker` in its default
//! mode: a shard manifest on stdin, the encoded shard report on stdout,
//! with `--progress` one JSONL progress line per finished point before it.
//! The benchmark is its own worker so that it builds as a single package.

use std::io::{Read, Write};

use ba_bench::dist::{run_manifest, run_manifest_with_progress};
use ba_dist::{Decode, ShardManifest};

/// Runs one shard.
///
/// # Errors
///
/// Undecodable manifests, unknown registry labels and I/O failures.
pub fn main(args: &[String]) -> Result<(), String> {
    let progress = match args {
        [] => false,
        [flag] if flag == "--progress" => true,
        other => return Err(format!("unexpected worker arguments {other:?}")),
    };
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("reading the manifest: {e}"))?;
    let manifest = ShardManifest::from_wire(&input).map_err(|e| format!("bad manifest: {e}"))?;
    let report = if progress {
        run_manifest_with_progress(&manifest, |event| {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{}", event.to_json_line());
            let _ = out.flush();
        })?
    } else {
        run_manifest(&manifest)?
    };
    let mut out = std::io::stdout().lock();
    out.write_all(report.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing the report: {e}"))
}
