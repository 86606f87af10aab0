//! Wire codec for [`StrategyGenome`] in the `ba-dist` line format, plus
//! helpers for smuggling genomes through campaign-point adversary labels.
//!
//! Layout: one `genome` header record (budget, optional reorder seed, gene
//! count) followed by exactly `count` `gene` records. Every value is plain
//! ASCII with no spaces, so records survive the dist framing untouched;
//! [`genome_label`] additionally percent-escapes the whole encoding so it
//! fits in a single label token.

use ba_dist::wire::{escape, unescape, Record};
use ba_dist::{Decode, Encode, WireError, WireReader};

use crate::genome::{Action, Gene, StrategyGenome, TargetSel, Trigger};

fn field_error(tag: &str, key: &str, detail: String) -> WireError {
    WireError::Field {
        tag: tag.to_string(),
        key: key.to_string(),
        detail,
    }
}

fn split_variant<'a>(
    rec: &Record<'_>,
    key: &str,
    raw: &'a str,
) -> Result<(&'a str, &'a str), WireError> {
    raw.split_once(':')
        .ok_or_else(|| field_error(rec.tag(), key, format!("missing `:` in {raw:?}")))
}

fn parse_num<T: std::str::FromStr>(rec: &Record<'_>, key: &str, raw: &str) -> Result<T, WireError> {
    raw.parse()
        .map_err(|_| field_error(rec.tag(), key, format!("unparsable value {raw:?}")))
}

impl Encode for StrategyGenome {
    fn encode(&self, out: &mut String) {
        let reorder = match self.reorder_seed {
            Some(seed) => seed.to_string(),
            None => "none".to_string(),
        };
        out.push_str(&format!(
            "genome budget={} reorder={reorder} count={}\n",
            self.budget,
            self.genes.len()
        ));
        for gene in &self.genes {
            let trigger = match gene.trigger {
                Trigger::AtRound(r) => format!("round:{r}"),
                Trigger::SentAtLeast(s) => format!("sent:{s}"),
            };
            let target = match gene.target {
                TargetSel::Fixed(idx) => format!("fixed:{idx}"),
                TargetSel::TopSender(rank) => format!("top:{rank}"),
            };
            let action = match gene.action {
                Action::Mute => "mute".to_string(),
                Action::Deafen => "deafen".to_string(),
                Action::MuteReceivers { mask } => format!("mask:{mask:x}"),
                Action::Forge => "forge".to_string(),
            };
            out.push_str(&format!(
                "gene trigger={trigger} target={target} action={action}\n"
            ));
        }
    }
}

impl Decode for StrategyGenome {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let header = reader.record("genome")?;
        let budget = header.parse_field("budget")?;
        let reorder_seed = match header.raw("reorder")? {
            "none" => None,
            raw => Some(parse_num(&header, "reorder", raw)?),
        };
        let count: usize = header.parse_field("count")?;
        let mut genes = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let rec = reader.record("gene")?;
            let trigger = {
                let raw = rec.raw("trigger")?;
                let (kind, value) = split_variant(&rec, "trigger", raw)?;
                match kind {
                    "round" => Trigger::AtRound(parse_num(&rec, "trigger", value)?),
                    "sent" => Trigger::SentAtLeast(parse_num(&rec, "trigger", value)?),
                    other => {
                        return Err(field_error(
                            rec.tag(),
                            "trigger",
                            format!("unknown trigger {other:?}"),
                        ))
                    }
                }
            };
            let target = {
                let raw = rec.raw("target")?;
                let (kind, value) = split_variant(&rec, "target", raw)?;
                match kind {
                    "fixed" => TargetSel::Fixed(parse_num(&rec, "target", value)?),
                    "top" => TargetSel::TopSender(parse_num(&rec, "target", value)?),
                    other => {
                        return Err(field_error(
                            rec.tag(),
                            "target",
                            format!("unknown target {other:?}"),
                        ))
                    }
                }
            };
            let action = match rec.raw("action")? {
                "mute" => Action::Mute,
                "deafen" => Action::Deafen,
                "forge" => Action::Forge,
                raw => {
                    let (kind, value) = split_variant(&rec, "action", raw)?;
                    if kind != "mask" {
                        return Err(field_error(
                            rec.tag(),
                            "action",
                            format!("unknown action {raw:?}"),
                        ));
                    }
                    let mask = u64::from_str_radix(value, 16).map_err(|_| {
                        field_error(rec.tag(), "action", format!("unparsable mask {value:?}"))
                    })?;
                    Action::MuteReceivers { mask }
                }
            };
            genes.push(Gene {
                trigger,
                target,
                action,
            });
        }
        Ok(StrategyGenome {
            budget,
            genes,
            reorder_seed,
        })
    }
}

/// The label prefix marking a campaign-point adversary as an encoded
/// genome.
pub const GENOME_LABEL_PREFIX: &str = "genome:";

/// Packs a genome into a single adversary-label token:
/// `genome:<escaped wire encoding>`.
pub fn genome_label(genome: &StrategyGenome) -> String {
    format!("{GENOME_LABEL_PREFIX}{}", escape(&genome.to_wire()))
}

/// Recovers a genome from an adversary label produced by [`genome_label`].
/// Returns `Ok(None)` for labels without the `genome:` prefix (named
/// adversaries), and an error for prefixed labels that fail to decode.
///
/// # Errors
///
/// Returns [`WireError`] if the payload after the prefix is not a valid
/// encoded genome.
pub fn genome_from_label(label: &str) -> Result<Option<StrategyGenome>, WireError> {
    let Some(payload) = label.strip_prefix(GENOME_LABEL_PREFIX) else {
        return Ok(None);
    };
    let wire = unescape(payload)?;
    StrategyGenome::from_wire(&wire).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::SimRng;

    /// Decodes `value`'s encoding back to `value` and checks the
    /// re-encoding is byte-identical, mirroring the dist wire suites.
    fn round_trip(value: &StrategyGenome) {
        let wire = value.to_wire();
        let decoded = StrategyGenome::from_wire(&wire)
            .unwrap_or_else(|e| panic!("decode failed: {e:?}\n{wire}"));
        assert_eq!(&decoded, value, "round-trip changed the genome\n{wire}");
        assert_eq!(decoded.to_wire(), wire, "re-encoding not byte-identical");
    }

    #[test]
    fn hand_picked_genomes_round_trip() {
        round_trip(&StrategyGenome::empty(0));
        round_trip(&StrategyGenome::empty(7));
        round_trip(&StrategyGenome {
            budget: 2,
            genes: vec![
                Gene {
                    trigger: Trigger::AtRound(1),
                    target: TargetSel::Fixed(0),
                    action: Action::MuteReceivers { mask: u64::MAX },
                },
                Gene {
                    trigger: Trigger::SentAtLeast(0),
                    target: TargetSel::TopSender(3),
                    action: Action::Forge,
                },
            ],
            reorder_seed: Some(u64::MAX),
        });
    }

    #[test]
    fn random_genomes_round_trip() {
        let mut rng = SimRng::seed_from_u64(0x9e3779b97f4a7c15);
        for case in 0..200 {
            let n = 1 + (case % 9);
            let t = case % (n.max(2) - 1).max(1);
            let space = crate::genome::GenomeSpace::new(n, t, 1 + case as u64 % 12);
            round_trip(&space.random_genome(&mut rng));
        }
    }

    #[test]
    fn labels_round_trip_and_reject_garbage() {
        let mut rng = SimRng::seed_from_u64(42);
        let space = crate::genome::GenomeSpace::new(5, 2, 6);
        for _ in 0..50 {
            let genome = space.random_genome(&mut rng);
            let label = genome_label(&genome);
            assert!(label.starts_with(GENOME_LABEL_PREFIX));
            assert!(!label.contains(' '), "label must stay one token: {label}");
            assert_eq!(genome_from_label(&label).unwrap(), Some(genome));
        }
        assert_eq!(genome_from_label("random-omission").unwrap(), None);
        assert!(genome_from_label("genome:not-a-genome").is_err());
    }

    #[test]
    fn truncated_and_corrupt_encodings_fail_cleanly() {
        let genome = StrategyGenome {
            budget: 1,
            genes: vec![Gene {
                trigger: Trigger::AtRound(2),
                target: TargetSel::Fixed(1),
                action: Action::Mute,
            }],
            reorder_seed: None,
        };
        let wire = genome.to_wire();
        // Drop the gene record the header promises.
        let header_only = wire.lines().next().unwrap().to_string();
        assert!(StrategyGenome::from_wire(&header_only).is_err());
        // Unknown action.
        let corrupt = wire.replace("action=mute", "action=explode");
        assert!(StrategyGenome::from_wire(&corrupt).is_err());
        // Trailing data is rejected by from_wire.
        let trailing = format!("{wire}gene trigger=round:1 target=fixed:0 action=mute\n");
        assert!(StrategyGenome::from_wire(&trailing).is_err());
        // Bad mask digits.
        let badmask = wire.replace("action=mute", "action=mask:zz");
        assert!(StrategyGenome::from_wire(&badmask).is_err());
        // A huge count with no genes behind it is an error, not an
        // allocation failure, also when it arrives as a `genome:` label.
        let huge = "genome budget=1 reorder=none count=1000000000000\n";
        assert!(StrategyGenome::from_wire(huge).is_err());
        let label = format!("{GENOME_LABEL_PREFIX}{}", escape(huge));
        assert!(genome_from_label(&label).is_err());
    }
}
