//! `benchmark --compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric) of two `--json` results, judged against the metric's
//! bound from `BENCHMARK.json`.
//!
//! A row is *unresolved* when either side's quartile spread exceeds the
//! bound — the runs cannot tell a change of that size from noise — unless
//! every new sample is better than every base sample. Otherwise it is
//! *regressed* when the new median is worse by more than the bound,
//! *improved* when it is better by more than the bound, and *unchanged*.
//! `setup_s` and `peak_rss_mib` also have an absolute floor (0.05 s and
//! 1 MiB): the bound is the share or the floor, whichever is larger.

use ba_obs::{parse_json_line, Json};

use crate::spec::{spec, MetricDecl};
use crate::stats;

/// A row's judgement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The smallest worsening, in the metric's unit, that counts as a
/// regression: a metric may worsen by its bound or by this much, whichever
/// is larger. Set-up time and memory are small enough that a share alone
/// would flag changes no user notices.
fn absolute_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.05,
        "peak_rss_mib" => 1.0,
        _ => 0.0,
    }
}

/// Judges one metric's samples, base against new. Either side without
/// samples, or a base median of zero, leaves the row unresolved.
pub fn judge(metric: &MetricDecl, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (b, n) = (stats::median(base), stats::median(new));
    if base.is_empty() || new.is_empty() || b <= 0.0 {
        return (Verdict::Unresolved, 0.0);
    }
    let bound = metric
        .bound
        .unwrap_or(0.0)
        .max(absolute_floor(&metric.name) / b);
    // Positive = worse, as a share of the base median.
    let worse = if metric.higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let better_than = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let separated = new.iter().all(|&x| base.iter().all(|&y| better_than(x, y)));
    let spread = stats::relative_spread(base).max(stats::relative_spread(new));
    let verdict = if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound || (separated && spread > bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, -worse)
}

/// Compares two results files and prints the rows.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn main(args: &[String]) -> Result<(), String> {
    let [base_path, new_path] = args else {
        return Err("usage: benchmark --compare BASE.json NEW.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        parse_json_line(text.trim())
            .ok_or_else(|| format!("{path} is not a benchmark results file"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    for (key, b, n) in [("nproc", &base, &new), ("cpu", &base, &new)] {
        if b.get(key) != n.get(key) {
            eprintln!(
                "benchmark: warning: the two results come from different machines ({key} differs)"
            );
        }
    }
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for (workload, metrics) in rows(&base, &new) {
        for (decl, b, n) in metrics {
            let (verdict, change) = judge(decl, &b, &n);
            println!(
                "{workload:<18} {:<14} {:>14.6} {:>14.6} {:>+8.1}%  {}",
                decl.name,
                stats::median(&b),
                stats::median(&n),
                100.0 * change,
                verdict.label()
            );
        }
    }
    Ok(())
}

type MetricRows<'a> = Vec<(&'a MetricDecl, Vec<f64>, Vec<f64>)>;

/// The (workload, metric) pairs present in both files, with their samples.
fn rows<'a>(base: &Json, new: &Json) -> Vec<(String, MetricRows<'a>)> {
    let samples = |root: &Json, workload: &str, metric: &str| -> Option<Vec<f64>> {
        match root
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("samples")?
        {
            Json::Arr(values) => Some(values.iter().filter_map(Json::as_f64).collect()),
            _ => None,
        }
    };
    spec()
        .workloads
        .iter()
        .map(|w| {
            let metrics = spec()
                .end_to_end
                .iter()
                .filter_map(|m| Some((m, samples(base, w, &m.name)?, samples(new, w, &m.name)?)))
                .collect();
            (w.clone(), metrics)
        })
        .filter(|(_, m): &(String, MetricRows<'_>)| !m.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = [100.0, 100.5, 99.5, 100.2, 99.8];
        let lower = decl(false, 0.1);
        assert_eq!(judge(&lower, &tight, &tight).0, Verdict::Unchanged);
        let slower: Vec<f64> = tight.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&lower, &tight, &slower).0, Verdict::Regressed);
        let faster: Vec<f64> = tight.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&lower, &tight, &faster).0, Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&decl(true, 0.1), &tight, &slower).0,
            Verdict::Improved
        );
        // A spread wider than the bound cannot resolve a small change...
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&lower, &noisy, &tight).0, Verdict::Unresolved);
        // ...unless every new sample beats every base sample.
        let far: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(judge(&lower, &noisy, &far).0, Verdict::Improved);
    }

    #[test]
    fn missing_samples_leave_the_row_unresolved() {
        let tight = [100.0, 100.5, 99.5];
        let lower = decl(false, 0.1);
        assert_eq!(judge(&lower, &[], &tight), (Verdict::Unresolved, 0.0));
        assert_eq!(judge(&lower, &tight, &[]), (Verdict::Unresolved, 0.0));
        assert_eq!(judge(&lower, &[0.0, 0.0], &tight).0, Verdict::Unresolved);
    }

    #[test]
    fn absolute_floors_absorb_small_changes_in_set_up_and_memory() {
        let setup = MetricDecl {
            name: "setup_s".into(),
            ..decl(false, 0.2)
        };
        // 2 ms → 4 ms is +100%, but under the 0.05 s floor.
        assert_eq!(
            judge(&setup, &[0.002; 3], &[0.004; 3]).0,
            Verdict::Unchanged
        );
        assert_eq!(judge(&setup, &[0.002; 3], &[0.06; 3]).0, Verdict::Regressed);
        // On a large base the share is the larger allowance.
        assert_eq!(judge(&setup, &[1.0; 3], &[1.15; 3]).0, Verdict::Unchanged);
        assert_eq!(judge(&setup, &[1.0; 3], &[1.25; 3]).0, Verdict::Regressed);
        let rss = MetricDecl {
            name: "peak_rss_mib".into(),
            ..decl(false, 0.1)
        };
        assert_eq!(judge(&rss, &[6.0; 3], &[6.9; 3]).0, Verdict::Unchanged);
        assert_eq!(judge(&rss, &[6.0; 3], &[7.1; 3]).0, Verdict::Regressed);
        assert_eq!(judge(&rss, &[300.0; 3], &[340.0; 3]).0, Verdict::Regressed);
    }

    #[test]
    fn rows_pair_the_samples_of_both_files() {
        let file = |v: f64| {
            parse_json_line(&format!(
                "{{\"workloads\":{{\"falsify\":{{\"metrics\":{{\"items_per_ref_s\":{{\"samples\":[{v},{v}]}}}}}}}}}}"
            ))
            .unwrap()
        };
        let rows = rows(&file(2.0), &file(3.0));
        assert_eq!(rows.len(), 1);
        let (workload, metrics) = &rows[0];
        assert_eq!(workload, "falsify");
        assert_eq!(metrics[0].0.name, "items_per_ref_s");
        assert_eq!(
            (metrics[0].1.clone(), metrics[0].2.clone()),
            (vec![2.0, 2.0], vec![3.0, 3.0])
        );
    }
}
