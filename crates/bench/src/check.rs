//! Distributed exhaustive model checking: the check-label codec, the
//! worker-side point runner, and the wire-level merge.
//!
//! A check sweep reuses the campaign-grid machinery by encoding the whole
//! [`CheckSpec`] (minus the instance size, which lives in the point's
//! `(n, t)`) into the point's **adversary label**:
//!
//! ```text
//! check:rounds=1;dirs=s;corrupt=upto:1;reorder=0;max=1048576;slice=0/3
//! ```
//!
//! Sharding a check means planning one grid point per slice — slice `i/k`
//! explores the frontier subtrees with global index ≡ `i` (mod `k`) — so
//! the existing shard planner, transports, retries, and work-stealing all
//! apply unchanged. [`merge_check_points`] recombines the slice outcomes
//! into exactly the unsharded run's [`CheckSweepPoint`], mirroring
//! [`ba_check::merge_outcomes`] at the wire level (the certificate is not
//! shipped: the shrunk choice tape replays to it deterministically via
//! [`ba_check::replay`]).
//!
//! Forged payloads are protocol-typed and therefore not expressible in a
//! label; distributed check sweeps cover the omission + reorder space.
//! In-process callers wanting Byzantine branching use `ba-check` directly.

use ba_check::{
    CheckOutcome, CheckProgress, CheckSpec, CorruptionSpace, ViolationKey, DEFAULT_MAX_EXECUTIONS,
};
use ba_dist::{Decode, Encode, WireError, WireReader};
use ba_sim::{Bit, CampaignPoint, ExecutorConfig, Payload, ProcessId, Protocol, SimError};

/// Prefix of a check adversary label.
pub const CHECK_LABEL_PREFIX: &str = "check:";

/// The label-expressible part of a [`CheckSpec`]: everything except the
/// instance size (taken from the grid point) and forged payloads (typed,
/// so in-process only).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckLabel {
    /// Fault horizon in rounds.
    pub rounds: u64,
    /// Branch over send-omissions.
    pub send_omissions: bool,
    /// Branch over receive-omissions.
    pub receive_omissions: bool,
    /// The corruption space: `upto:b` or an explicit `static:` id list.
    pub corruption: CorruptionSpace,
    /// Branch over delivery reorderings.
    pub reorder: bool,
    /// Execution budget cap.
    pub max_executions: u64,
    /// Shard assignment `(index, of)`.
    pub slice: (usize, usize),
}

impl CheckLabel {
    /// A whole-space (slice `0/1`) label with both omission directions
    /// over `rounds` rounds and corruption up to `t` (resolved per point).
    pub fn new(rounds: u64) -> Self {
        CheckLabel {
            rounds,
            send_omissions: true,
            receive_omissions: true,
            corruption: CorruptionSpace::UpTo(usize::MAX),
            reorder: false,
            max_executions: DEFAULT_MAX_EXECUTIONS,
            slice: (0, 1),
        }
    }

    /// Restricts omission branching to send-omissions.
    pub fn send_only(mut self) -> Self {
        self.receive_omissions = false;
        self
    }

    /// Sets the corruption space.
    pub fn corruption(mut self, space: CorruptionSpace) -> Self {
        self.corruption = space;
        self
    }

    /// Enables delivery-reorder branching.
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder = on;
        self
    }

    /// Sets the execution budget cap.
    pub fn max_executions(mut self, cap: u64) -> Self {
        self.max_executions = cap;
        self
    }

    /// Assigns shard `index` of `of`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < of`.
    pub fn slice(mut self, index: usize, of: usize) -> Self {
        assert!(index < of, "slice index {index} out of {of}");
        self.slice = (index, of);
        self
    }

    /// Renders the label (`check:rounds=…;…`).
    pub fn render(&self) -> String {
        let dirs = match (self.send_omissions, self.receive_omissions) {
            (true, true) => "sr",
            (true, false) => "s",
            (false, true) => "r",
            (false, false) => "none",
        };
        let corrupt = match &self.corruption {
            CorruptionSpace::UpTo(b) if *b == usize::MAX => "upto:t".to_string(),
            CorruptionSpace::UpTo(b) => format!("upto:{b}"),
            CorruptionSpace::Static(set) => {
                let ids: Vec<String> = set.iter().map(|p| p.index().to_string()).collect();
                format!("static:{}", ids.join("."))
            }
        };
        format!(
            "{CHECK_LABEL_PREFIX}rounds={};dirs={dirs};corrupt={corrupt};reorder={};max={};slice={}/{}",
            self.rounds,
            u8::from(self.reorder),
            self.max_executions,
            self.slice.0,
            self.slice.1,
        )
    }

    /// Parses a `check:` label.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for non-`check:` labels and
    /// malformed fields.
    pub fn parse(label: &str) -> Result<Self, String> {
        let body = label
            .strip_prefix(CHECK_LABEL_PREFIX)
            .ok_or_else(|| format!("not a {CHECK_LABEL_PREFIX} label: {label:?}"))?;
        let mut parsed = CheckLabel::new(1);
        for field in body.split(';') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed check field {field:?}"))?;
            match key {
                "rounds" => {
                    parsed.rounds = value.parse().map_err(|_| format!("bad rounds {value:?}"))?;
                }
                "dirs" => {
                    let (send, recv) = match value {
                        "sr" => (true, true),
                        "s" => (true, false),
                        "r" => (false, true),
                        "none" => (false, false),
                        other => return Err(format!("bad dirs {other:?} (sr|s|r|none)")),
                    };
                    parsed.send_omissions = send;
                    parsed.receive_omissions = recv;
                }
                "corrupt" => {
                    parsed.corruption = if value == "upto:t" {
                        CorruptionSpace::UpTo(usize::MAX)
                    } else if let Some(b) = value.strip_prefix("upto:") {
                        CorruptionSpace::UpTo(
                            b.parse().map_err(|_| format!("bad corrupt bound {b:?}"))?,
                        )
                    } else if let Some(ids) = value.strip_prefix("static:") {
                        let set = ids
                            .split('.')
                            .filter(|s| !s.is_empty())
                            .map(|s| {
                                s.parse()
                                    .map(ProcessId)
                                    .map_err(|_| format!("bad process id {s:?}"))
                            })
                            .collect::<Result<_, String>>()?;
                        CorruptionSpace::Static(set)
                    } else {
                        return Err(format!("bad corrupt {value:?} (upto:B|static:I.J)"));
                    };
                }
                "reorder" => {
                    parsed.reorder = match value {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad reorder {other:?} (0|1)")),
                    };
                }
                "max" => {
                    parsed.max_executions =
                        value.parse().map_err(|_| format!("bad max {value:?}"))?;
                }
                "slice" => {
                    let (index, of) = value
                        .split_once('/')
                        .ok_or_else(|| format!("bad slice {value:?} (I/K)"))?;
                    let index = index.parse().map_err(|_| format!("bad slice {value:?}"))?;
                    let of: usize = of.parse().map_err(|_| format!("bad slice {value:?}"))?;
                    if of == 0 || index >= of {
                        return Err(format!("bad slice {value:?} (need index < of)"));
                    }
                    parsed.slice = (index, of);
                }
                other => return Err(format!("unknown check field {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// Instantiates the [`CheckSpec`] this label denotes at a grid point's
    /// `(n, t)`.
    ///
    /// # Panics
    ///
    /// Panics unless `t < n`; [`try_to_spec`](CheckLabel::try_to_spec)
    /// reports that as an error instead.
    pub fn to_spec<M: Payload>(&self, n: usize, t: usize) -> CheckSpec<M> {
        self.try_to_spec(n, t)
            .unwrap_or_else(|e| panic!("check label at n = {n}, t = {t}: {e}"))
    }

    /// [`to_spec`](CheckLabel::to_spec), reporting a resilience bound the
    /// executor cannot run (`t ≥ n`) as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidResilience`] unless `t < n`.
    pub fn try_to_spec<M: Payload>(&self, n: usize, t: usize) -> Result<CheckSpec<M>, SimError> {
        let mut spec = CheckSpec::new(ExecutorConfig::try_new(n, t)?, self.rounds)
            .reorder(self.reorder)
            .max_executions(self.max_executions)
            .slice(self.slice.0, self.slice.1);
        spec.send_omissions = self.send_omissions;
        spec.receive_omissions = self.receive_omissions;
        spec.corruption = match &self.corruption {
            CorruptionSpace::UpTo(b) => CorruptionSpace::UpTo((*b).min(t)),
            fixed => fixed.clone(),
        };
        Ok(spec)
    }

    /// The `k` slice labels of this label's space, for planning one grid
    /// point per shard.
    pub fn slices(&self, k: usize) -> Vec<CheckLabel> {
        (0..k.max(1))
            .map(|i| self.clone().slice(i, k.max(1)))
            .collect()
    }
}

/// One check outcome on the wire: everything [`merge_check_points`] needs
/// to reproduce the unsharded verdict, minus the certificate (which the
/// shrunk `choices` tape replays to deterministically).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckSweepPoint {
    /// The grid point (its adversary label is the check label).
    pub point: CampaignPoint,
    /// Whether a weak-consensus violation was found.
    pub refuted: bool,
    /// Human-readable verdict (violation kind, or exhaustiveness).
    pub verdict: String,
    /// Corruption set of the minimal violation (empty when not refuted).
    pub corrupted: Vec<usize>,
    /// Delta-debug shrunk choice tape of the minimal violation.
    pub choices: Vec<u32>,
    /// Discovery-key digits `(rank, choice)` the merge selects by.
    pub key_digits: Vec<(u64, u32)>,
    /// Executions explored by this slice.
    pub executions: u64,
    /// Canonical fingerprints of distinct states (sorted); slices union
    /// these on merge, so merged state counts are exact.
    pub fingerprints: Vec<u64>,
    /// Deepest explored decision tape.
    pub max_depth: u64,
    /// Violating executions encountered before minimization.
    pub violations: u64,
    /// Whether the slice's subspace was fully explored within budget.
    pub complete: bool,
}

impl CheckSweepPoint {
    /// Converts a local [`CheckOutcome`] into its wire point.
    pub fn from_outcome<M: Payload>(point: CampaignPoint, outcome: &CheckOutcome<M>) -> Self {
        let report = outcome.report();
        let (refuted, verdict, corrupted, choices, key_digits) = match outcome.violation() {
            Some(v) => (
                true,
                format!("REFUTED ({})", v.certificate.kind),
                v.corrupted.iter().map(|p| p.index()).collect(),
                v.choices.clone(),
                v.key.digits.clone(),
            ),
            None => (
                false,
                if report.complete {
                    "EXHAUSTED (proof by enumeration)".to_string()
                } else {
                    "NO VIOLATION FOUND (budget capped)".to_string()
                },
                Vec::new(),
                Vec::new(),
                Vec::new(),
            ),
        };
        CheckSweepPoint {
            point,
            refuted,
            verdict,
            corrupted,
            choices,
            key_digits,
            executions: report.executions,
            fingerprints: report.fingerprints.iter().copied().collect(),
            max_depth: report.max_depth as u64,
            violations: report.violations,
            complete: report.complete,
        }
    }

    /// Distinct states this point visited.
    pub fn states(&self) -> u64 {
        self.fingerprints.len() as u64
    }

    /// The merge-selection key of this point's violation, if refuted.
    pub fn key(&self) -> Option<ViolationKey> {
        if !self.refuted {
            return None;
        }
        Some(ViolationKey {
            weight: self.key_digits.len(),
            digits: self.key_digits.clone(),
        })
    }
}

/// Merges slice outcomes into the unsharded run's [`CheckSweepPoint`]:
/// counts add, fingerprints union, completeness ANDs, and the verdict is
/// the key-minimal violation across slices — the wire-level mirror of
/// [`ba_check::merge_outcomes`]. The merged point carries the slice-`0/1`
/// form of the first point's label.
///
/// # Errors
///
/// Returns a message when `points` is empty or a label does not parse.
pub fn merge_check_points(points: &[CheckSweepPoint]) -> Result<CheckSweepPoint, String> {
    let first = points.first().ok_or("nothing to merge")?;
    let label = CheckLabel::parse(&first.point.adversary)?.slice(0, 1);
    let mut merged = CheckSweepPoint {
        point: first.point.clone().with_adversary(label.render()),
        refuted: false,
        verdict: String::new(),
        corrupted: Vec::new(),
        choices: Vec::new(),
        key_digits: Vec::new(),
        executions: 0,
        fingerprints: Vec::new(),
        max_depth: 0,
        violations: 0,
        complete: true,
    };
    let mut states: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut best: Option<(ViolationKey, &CheckSweepPoint)> = None;
    for point in points {
        merged.executions += point.executions;
        merged.violations += point.violations;
        merged.max_depth = merged.max_depth.max(point.max_depth);
        merged.complete &= point.complete;
        states.extend(point.fingerprints.iter().copied());
        if let Some(key) = point.key() {
            let better = best.as_ref().map_or(true, |(k, _)| key < *k);
            if better {
                best = Some((key, point));
            }
        }
    }
    merged.fingerprints = states.into_iter().collect();
    match best {
        Some((key, winner)) => {
            merged.refuted = true;
            merged.verdict = winner.verdict.clone();
            merged.corrupted = winner.corrupted.clone();
            merged.choices = winner.choices.clone();
            merged.key_digits = key.digits;
        }
        None => {
            merged.verdict = if merged.complete {
                "EXHAUSTED (proof by enumeration)".to_string()
            } else {
                "NO VIOLATION FOUND (budget capped)".to_string()
            };
        }
    }
    Ok(merged)
}

/// Runs one check grid point: parses the point's check label, explores
/// the denoted space for the point's `(n, t)`, and summarizes the outcome.
/// The full [`CheckOutcome`] (with certificate) is returned alongside for
/// in-process callers; workers ship only the [`CheckSweepPoint`].
///
/// # Errors
///
/// Returns a message for malformed labels, resilience bounds the executor
/// cannot run (`t ≥ n`) and refused (oversized) spaces; simulator errors
/// also surface as messages, since a check cannot partially fail.
pub fn check_point<P, F>(
    point: &CampaignPoint,
    factory: F,
    proposals: &[Bit],
    threads: usize,
    hook: Option<&(dyn Fn(CheckProgress) + Sync)>,
) -> Result<(CheckSweepPoint, CheckOutcome<P::Msg>), String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let spec: CheckSpec<P::Msg> = point_spec(point)?;
    let outcome = ba_check::check_with_progress(&spec, factory, proposals, threads, hook)
        .map_err(|e| format!("check at {point}: {e}"))?;
    Ok((
        CheckSweepPoint::from_outcome(point.clone(), &outcome),
        outcome,
    ))
}

/// The [`CheckSpec`] a grid point's `check:` label denotes at the point's
/// `(n, t)`; a malformed label or a bound the executor cannot run
/// (`t ≥ n`) is a message naming the point.
pub(crate) fn point_spec<M: Payload>(point: &CampaignPoint) -> Result<CheckSpec<M>, String> {
    CheckLabel::parse(&point.adversary)?
        .try_to_spec(point.n, point.t)
        .map_err(|e| format!("check at {point}: {e}"))
}

fn join_u64s(values: impl Iterator<Item = u64>) -> String {
    let rendered: Vec<String> = values.map(|v| format!("{v:x}")).collect();
    if rendered.is_empty() {
        "-".to_string()
    } else {
        rendered.join(".")
    }
}

fn split_u64s(raw: &str) -> Result<Vec<u64>, String> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    raw.split('.')
        .map(|v| u64::from_str_radix(v, 16).map_err(|_| format!("bad hex token {v:?}")))
        .collect()
}

impl Encode for CheckSweepPoint {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "kpoint refuted={} verdict={} corrupted={} choices={} key={} executions={} \
             depth={} violations={} complete={} states={}\n",
            self.refuted,
            ba_dist::wire::escape(&self.verdict),
            join_u64s(self.corrupted.iter().map(|&c| c as u64)),
            join_u64s(self.choices.iter().map(|&c| u64::from(c))),
            if self.key_digits.is_empty() {
                "-".to_string()
            } else {
                self.key_digits
                    .iter()
                    .map(|(rank, choice)| format!("{rank:x}:{choice:x}"))
                    .collect::<Vec<_>>()
                    .join(".")
            },
            self.executions,
            self.max_depth,
            self.violations,
            self.complete,
            join_u64s(self.fingerprints.iter().copied()),
        ));
        self.point.encode(out);
    }
}

impl Decode for CheckSweepPoint {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("kpoint")?;
        let refuted = rec.parse_field("refuted")?;
        let verdict = rec.text("verdict")?;
        let as_wire = |field: &'static str, err: String| WireError::Field {
            tag: "kpoint".to_string(),
            key: field.to_string(),
            detail: err,
        };
        let corrupted = split_u64s(rec.raw("corrupted")?)
            .map_err(|e| as_wire("corrupted", e))?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let choices = split_u64s(rec.raw("choices")?)
            .map_err(|e| as_wire("choices", e))?
            .into_iter()
            .map(|v| v as u32)
            .collect();
        let key_raw = rec.raw("key")?;
        let key_digits = if key_raw == "-" {
            Vec::new()
        } else {
            key_raw
                .split('.')
                .map(|pair| {
                    let (rank, choice) = pair
                        .split_once(':')
                        .ok_or_else(|| as_wire("key", format!("bad key digit {pair:?}")))?;
                    let rank = u64::from_str_radix(rank, 16)
                        .map_err(|_| as_wire("key", format!("bad key rank {rank:?}")))?;
                    let choice = u32::from_str_radix(choice, 16)
                        .map_err(|_| as_wire("key", format!("bad key choice {choice:?}")))?;
                    Ok((rank, choice))
                })
                .collect::<Result<_, WireError>>()?
        };
        let executions = rec.parse_field("executions")?;
        let max_depth = rec.parse_field("depth")?;
        let violations = rec.parse_field("violations")?;
        let complete = rec.parse_field("complete")?;
        let fingerprints = split_u64s(rec.raw("states")?).map_err(|e| as_wire("states", e))?;
        let point = CampaignPoint::decode(reader)?;
        Ok(CheckSweepPoint {
            point,
            refuted,
            verdict,
            corrupted,
            choices,
            key_digits,
            executions,
            fingerprints,
            max_depth,
            violations,
            complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_protocols::broken::OneRoundAllToAll;

    #[test]
    fn check_labels_round_trip() {
        let labels = [
            CheckLabel::new(1),
            CheckLabel::new(2).send_only().reorder(true),
            CheckLabel::new(3)
                .corruption(CorruptionSpace::UpTo(2))
                .max_executions(512)
                .slice(2, 5),
            CheckLabel::new(1).corruption(CorruptionSpace::Static(
                [ProcessId(0), ProcessId(3)].into_iter().collect(),
            )),
        ];
        for label in labels {
            let rendered = label.render();
            assert!(rendered.starts_with(CHECK_LABEL_PREFIX), "{rendered}");
            assert_eq!(CheckLabel::parse(&rendered), Ok(label), "{rendered}");
        }
    }

    #[test]
    fn malformed_labels_are_rejected_with_context() {
        for bad in [
            "isolation",
            "check:rounds=x",
            "check:dirs=q",
            "check:slice=3/3",
            "check:corrupt=sometimes",
            "check:frogs=2",
        ] {
            let err = CheckLabel::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn check_sweep_points_round_trip_on_the_wire() {
        let point = CampaignPoint::new(4, 1)
            .with_adversary(CheckLabel::new(1).send_only().render())
            .with_inputs("zeros");
        let (sweep, outcome) = check_point(
            &point,
            |_| OneRoundAllToAll::new(),
            &[Bit::Zero; 4],
            1,
            None,
        )
        .unwrap();
        assert!(sweep.refuted, "{}", sweep.verdict);
        assert_eq!(sweep.executions, outcome.report().executions);
        let decoded = CheckSweepPoint::from_wire(&sweep.to_wire()).unwrap();
        assert_eq!(decoded, sweep);

        let robust = CampaignPoint::new(4, 1)
            .with_adversary(CheckLabel::new(1).send_only().render())
            .with_inputs("ones");
        let (sweep, _) = check_point(
            &robust,
            |_| OneRoundAllToAll::new(),
            &[Bit::One; 4],
            1,
            None,
        )
        .unwrap();
        assert!(!sweep.refuted);
        assert!(sweep.complete);
        let decoded = CheckSweepPoint::from_wire(&sweep.to_wire()).unwrap();
        assert_eq!(decoded, sweep);
    }

    #[test]
    fn merged_slices_reproduce_the_unsharded_sweep_point() {
        let base = CheckLabel::new(1).send_only();
        for inputs in [Bit::Zero, Bit::One] {
            let proposals = [inputs; 4];
            let whole_point = CampaignPoint::new(4, 1)
                .with_adversary(base.render())
                .with_inputs("zeros");
            let (whole, _) = check_point(
                &whole_point,
                |_| OneRoundAllToAll::new(),
                &proposals,
                1,
                None,
            )
            .unwrap();
            let slices: Vec<CheckSweepPoint> = base
                .slices(3)
                .into_iter()
                .map(|label| {
                    let point = CampaignPoint::new(4, 1)
                        .with_adversary(label.render())
                        .with_inputs("zeros");
                    check_point(&point, |_| OneRoundAllToAll::new(), &proposals, 2, None)
                        .unwrap()
                        .0
                })
                .collect();
            assert_eq!(merge_check_points(&slices).unwrap(), whole);
        }
    }
}
