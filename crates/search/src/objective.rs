//! Search objectives: scalar fitness over a stats-only scenario report.
//!
//! An [`Objective`] turns a [`ScenarioStats`] into a score the drivers
//! maximize, plus a hard `violated` predicate that ends the search the
//! moment a genuine property violation is exhibited. Scores are
//! deterministic functions of the stats, so a search trajectory is exactly
//! replayable.

use ba_sim::{Bit, ScenarioStats};

/// A maximization target over one evaluated scenario.
pub trait Objective {
    /// A stable label for reports and CLI selection.
    fn name(&self) -> &'static str;

    /// The fitness of this outcome (higher is better). Violating outcomes
    /// must score at least `<dyn Objective>::VIOLATION_SCORE`.
    fn score(&self, stats: &ScenarioStats<Bit>) -> f64;

    /// `true` iff this outcome exhibits the violation the objective hunts;
    /// the drivers stop as soon as an evaluation satisfies it.
    fn violated(&self, stats: &ScenarioStats<Bit>) -> bool;
}

/// The score floor every violating outcome reaches.
impl dyn Objective {
    /// Scores at or above this mark a violating outcome.
    pub const VIOLATION_SCORE: f64 = 1_000.0;
}

fn undecided(stats: &ScenarioStats<Bit>) -> usize {
    stats.decisions.values().filter(|d| d.is_none()).count()
}

/// Maximize disagreement among correct processes; violated on a recorded
/// agreement violation. Undecided correct processes score as gradient —
/// a process still torn between values is closer to a split than a
/// unanimous early decision.
#[derive(Clone, Copy, Default, Debug)]
pub struct DisagreementRate;

impl Objective for DisagreementRate {
    fn name(&self) -> &'static str {
        "disagreement"
    }

    fn score(&self, stats: &ScenarioStats<Bit>) -> f64 {
        if self.violated(stats) {
            return <dyn Objective>::VIOLATION_SCORE + stats.rounds as f64;
        }
        undecided(stats) as f64
    }

    fn violated(&self, stats: &ScenarioStats<Bit>) -> bool {
        stats
            .violations
            .iter()
            .any(|v| v.contains("agreement violated"))
    }
}

/// Make a correct process decide something other than `expected`; violated
/// as soon as one does. The natural objective for uniform-input (validity)
/// hunts.
#[derive(Clone, Copy, Debug)]
pub struct ValidityViolation {
    /// The bit every correct process is supposed to decide.
    pub expected: Bit,
}

impl Objective for ValidityViolation {
    fn name(&self) -> &'static str {
        "validity"
    }

    fn score(&self, stats: &ScenarioStats<Bit>) -> f64 {
        let wrong = stats
            .decisions
            .values()
            .filter(|d| matches!(d, Some(bit) if *bit != self.expected))
            .count();
        if wrong > 0 {
            return <dyn Objective>::VIOLATION_SCORE + wrong as f64;
        }
        undecided(stats) as f64
    }

    fn violated(&self, stats: &ScenarioStats<Bit>) -> bool {
        self.score(stats) >= <dyn Objective>::VIOLATION_SCORE
    }
}

/// Maximize the round by which correct processes decide; violated when a
/// correct process never decides within the horizon (a recorded
/// termination violation).
#[derive(Clone, Copy, Default, Debug)]
pub struct DecisionRounds;

impl Objective for DecisionRounds {
    fn name(&self) -> &'static str {
        "decision-rounds"
    }

    fn score(&self, stats: &ScenarioStats<Bit>) -> f64 {
        if self.violated(stats) {
            return <dyn Objective>::VIOLATION_SCORE + stats.rounds as f64;
        }
        stats.decided_by.map_or(stats.rounds, |r| r.0) as f64
    }

    fn violated(&self, stats: &ScenarioStats<Bit>) -> bool {
        stats
            .violations
            .iter()
            .any(|v| v.contains("termination violated"))
    }
}

/// Maximize the message complexity correct processes are driven to (the
/// paper's cost measure). Never "violated": this objective runs the budget
/// to exhaustion and reports the most expensive strategy found.
#[derive(Clone, Copy, Default, Debug)]
pub struct MessageComplexity;

impl Objective for MessageComplexity {
    fn name(&self) -> &'static str {
        "message-complexity"
    }

    fn score(&self, stats: &ScenarioStats<Bit>) -> f64 {
        stats.message_complexity as f64
    }

    fn violated(&self, _stats: &ScenarioStats<Bit>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{ProcessId, Round};
    use std::collections::BTreeMap;

    fn stats(decisions: &[(usize, Option<Bit>)], violations: &[&str]) -> ScenarioStats<Bit> {
        ScenarioStats {
            message_complexity: 12,
            total_messages: 20,
            rounds: 3,
            quiescent: true,
            decided_by: Some(Round(2)),
            decisions: decisions
                .iter()
                .map(|(p, d)| (ProcessId(*p), *d))
                .collect::<BTreeMap<_, _>>(),
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    #[test]
    fn disagreement_fires_on_agreement_violations_only() {
        let clean = stats(&[(0, Some(Bit::One)), (1, Some(Bit::One))], &[]);
        let split = stats(
            &[(0, Some(Bit::One)), (1, Some(Bit::Zero))],
            &["agreement violated: correct decisions {Zero, One}"],
        );
        assert!(!DisagreementRate.violated(&clean));
        assert!(DisagreementRate.violated(&split));
        assert!(DisagreementRate.score(&split) > DisagreementRate.score(&clean));
        assert!(DisagreementRate.score(&split) >= <dyn Objective>::VIOLATION_SCORE);
    }

    #[test]
    fn validity_tracks_the_expected_bit() {
        let obj = ValidityViolation {
            expected: Bit::Zero,
        };
        let good = stats(&[(0, Some(Bit::Zero))], &[]);
        let bad = stats(&[(0, Some(Bit::Zero)), (1, Some(Bit::One))], &[]);
        assert!(!obj.violated(&good));
        assert!(obj.violated(&bad));
        // Undecided processes are gradient, not violation.
        let torn = stats(&[(0, None), (1, Some(Bit::Zero))], &[]);
        assert!(!obj.violated(&torn));
        assert!(obj.score(&torn) > obj.score(&good));
    }

    #[test]
    fn decision_rounds_rewards_slow_and_flags_nontermination() {
        let mut quick = stats(&[(0, Some(Bit::One))], &[]);
        quick.decided_by = Some(Round(2));
        let mut slow = quick.clone();
        slow.decided_by = Some(Round(3));
        assert!(DecisionRounds.score(&slow) > DecisionRounds.score(&quick));
        let stuck = stats(
            &[(0, None)],
            &["termination violated: p0 undecided within horizon"],
        );
        assert!(DecisionRounds.violated(&stuck));
        assert!(DecisionRounds.score(&stuck) >= <dyn Objective>::VIOLATION_SCORE);
    }

    #[test]
    fn message_complexity_never_violates() {
        let s = stats(&[(0, Some(Bit::One))], &["agreement violated: ..."]);
        assert!(!MessageComplexity.violated(&s));
        assert_eq!(MessageComplexity.score(&s), 12.0);
    }
}
