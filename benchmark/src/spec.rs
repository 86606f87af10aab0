//! The benchmark's declarations, read from the repository's
//! `BENCHMARK.json` at compile time: workload names, metric names, units,
//! directions and regression bounds. Compiling the file in keeps what the
//! benchmark prints, emits and gates on from drifting from what it is
//! registered with; the tests check that the two name sets are equal.

use std::sync::OnceLock;

use ba_obs::{parse_json_line, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricDecl {
    /// The metric's name.
    pub name: String,
    /// Its unit, as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the program needs.
#[derive(Clone, PartialEq, Debug)]
pub struct Spec {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics: measured untraced, gated by their bounds.
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics: measured by the traced run, never gated.
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The unit of a declared metric.
    ///
    /// # Panics
    ///
    /// Panics for an undeclared name — every name the program emits is
    /// declared, which the tests check.
    pub fn unit(&self, name: &str) -> &str {
        &self
            .metric(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"))
            .unit
    }
}

/// The compiled-in declarations.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` is malformed; the tests parse it, so a build
/// that passes them cannot.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json must be well-formed"))
}

/// `true` iff `name` is a valid metric or workload name: a letter or digit
/// followed by letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = parse_json_line(text).ok_or("BENCHMARK.json is not valid JSON")?;
    let list = |key: &str| match root.get(key) {
        Some(Json::Arr(items)) => Ok(items.as_slice()),
        _ => Err(format!("BENCHMARK.json: {key:?} must be an array")),
    };
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without a string {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
        list(key)?
            .iter()
            .map(|item| {
                let better = field(item, "better")?;
                if better != "higher" && better != "lower" {
                    return Err(format!("BENCHMARK.json: bad \"better\" value {better:?}"));
                }
                let name = field(item, "name")?;
                if !is_valid_name(&name) {
                    return Err(format!("BENCHMARK.json: invalid metric name {name:?}"));
                }
                Ok(MetricDecl {
                    name,
                    unit: field(item, "unit")?,
                    higher_is_better: better == "higher",
                    bound: item.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_every_name_is_valid() {
        let spec = spec();
        assert!(!spec.end_to_end.is_empty() && !spec.per_layer.is_empty());
        let names = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(is_valid_name(name), "invalid name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("every end-to-end metric has a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound}",
                metric.name
            );
        }
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        // Set-up time is the noisiest metric, so it gets the widest bound.
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_validation_follows_the_metric_name_grammar() {
        for good in ["setup_s", "sim.fault.ns_per_msg", "dist-sweep", "p99", "a"] {
            assert!(is_valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/ed",
            "ünï",
            too_long.as_str(),
        ] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }
}
