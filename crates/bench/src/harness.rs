//! A tiny wall-clock benchmarking harness.
//!
//! The workspace builds with zero external dependencies, so the benches use
//! this instead of criterion: warm up, run a fixed number of timed
//! iterations, and print min/mean/max per iteration. Invoke with
//! `cargo bench -p ba-bench` (the bench targets set `harness = false`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-bench iteration counts.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed warm-up iterations.
    pub warmup_iters: u32,
    /// Timed iterations.
    pub iters: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup_iters: 3,
            iters: 10,
        }
    }
}

/// A named group of benchmarks, printed as an aligned table.
pub struct BenchGroup {
    name: String,
    config: BenchConfig,
}

impl BenchGroup {
    /// Starts a group with the default iteration counts.
    pub fn new(name: &str) -> Self {
        Self::with_config(name, BenchConfig::default())
    }

    /// Starts a group with explicit iteration counts.
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        println!("\n== {name} ==");
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "benchmark", "min", "mean", "max"
        );
        BenchGroup {
            name: name.to_string(),
            config,
        }
    }

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Times `f` and prints one row. The closure's return value is passed
    /// through [`black_box`] so the work is not optimized away.
    pub fn bench<R>(&self, label: &str, mut f: impl FnMut() -> R) {
        for _ in 0..self.config.warmup_iters {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.config.iters as usize);
        for _ in 0..self.config.iters {
            let start = Instant::now();
            black_box(f());
            samples.push(start.elapsed());
        }
        let min = samples.iter().min().copied().unwrap_or_default();
        let max = samples.iter().max().copied().unwrap_or_default();
        let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            label,
            format_duration(min),
            format_duration(mean),
            format_duration(max)
        );
    }
}

/// The process's peak resident set size ("VmHWM") in bytes, read from
/// `/proc/self/status`. Best-effort: returns `0` where the file (or the
/// field) is unavailable, e.g. off Linux. The kernel's high-water mark is
/// monotone over the process lifetime, so a reading is the largest
/// footprint the process has had so far, not its current one.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(format_duration(Duration::from_millis(7)), "7.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn peak_rss_bytes_reads_the_high_water_mark() {
        if cfg!(target_os = "linux") {
            let before = peak_rss_bytes();
            assert!(before > 0, "Linux exposes VmHWM");
            // A touched 8 MiB buffer is resident, so the mark (in bytes,
            // not kB) covers it and never moves down.
            let buf = black_box(vec![1u8; 8 << 20]);
            let after = peak_rss_bytes();
            assert!(after >= before);
            assert!(after >= buf.len() as u64, "{after} bytes");
        }
    }

    #[test]
    fn bench_runs_the_closure() {
        let group = BenchGroup::with_config(
            "test",
            BenchConfig {
                warmup_iters: 1,
                iters: 2,
            },
        );
        let mut calls = 0u32;
        group.bench("counter", || calls += 1);
        assert_eq!(calls, 3);
        assert_eq!(group.name(), "test");
    }
}
