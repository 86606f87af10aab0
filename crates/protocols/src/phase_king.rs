//! Phase King — unauthenticated binary strong consensus for `n > 3t`
//! (Berman, Garay, Perry 1989; the paper's reference \[20\]).
//!
//! `t + 1` phases of three rounds each. In phase `p` (king `p_{(p-1) mod n}`):
//!
//! 1. **Exchange 1.** Everyone broadcasts its current value `v ∈ {0, 1}` and
//!    counts occurrences (including its own). If some bit reaches `n − t`
//!    support, the *candidate* `w` becomes that bit, otherwise `w = ⊥`.
//! 2. **Exchange 2.** Everyone broadcasts `w ∈ {0, 1, ⊥}`. If some bit `b`
//!    gets more than `t` votes, the process tentatively adopts `v' = b`, and
//!    is *locked* if `b` got at least `n − t` votes.
//! 3. **King round.** The king broadcasts its `v'` (with `⊥` mapped to 0).
//!    Locked processes keep `v'`; everyone else adopts the king's bit.
//!
//! After phase `t + 1`, decide the current value. With `t + 1` phases some
//! phase has a correct king; in that phase all correct processes align, and
//! alignment persists (`n > 3t` makes `n − t` support self-sustaining).
//!
//! Message complexity: `(t + 1)·(2n + 1)·(n − 1) = O(t·n²)` — another
//! upper-bound data point above the paper's Ω(t²) floor.

use ba_sim::{Bit, Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round};

/// The unsure candidate value (the algorithm's `⊥`), carried in
/// [`PkMsg::Support`] as the literal `2`.
pub const UNSURE: u8 = 2;

/// Phase King wire messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PkMsg {
    /// Exchange-1 broadcast of the current value.
    Report(Bit),
    /// Exchange-2 broadcast of the candidate (`0`, `1`, or [`UNSURE`]).
    Support(u8),
    /// The king's tie-breaker.
    King(Bit),
}

/// Berman-Garay-Perry Phase King consensus over binary values.
///
/// ```
/// use ba_protocols::PhaseKing;
/// use ba_sim::{Bit, Scenario};
///
/// let exec = Scenario::new(4, 1)
///     .protocol(|_| PhaseKing::new(4, 1))
///     .uniform_input(Bit::One)
///     .run()
///     .unwrap();
/// assert!(exec.all_correct_decided(Bit::One)); // strong validity
/// ```
#[derive(Clone, Debug)]
pub struct PhaseKing {
    value: Bit,
    candidate: u8,
    tentative: u8,
    locked: bool,
    decision: Option<Bit>,
    phases: u64,
}

impl PhaseKing {
    /// Creates an instance for an `(n, t)` system.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` (the protocol's resilience requirement, shown
    /// inherent by the paper's Theorem 4).
    pub fn new(n: usize, t: usize) -> Self {
        Self::with_phases(n, t, t as u64 + 1)
    }

    /// Creates an instance that runs `phases` phases instead of the safe
    /// `t + 1`. With fewer than `t + 1` phases every phase may have a
    /// faulty king, so agreement is **not** guaranteed — this weakened
    /// variant exists as prey for the adversary search (`ba-search`),
    /// which should rediscover the king-silencing attack against it.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `phases >= 1`.
    pub fn with_phases(n: usize, t: usize, phases: u64) -> Self {
        assert!(
            n > 3 * t,
            "Phase King requires n > 3t (got n = {n}, t = {t})"
        );
        assert!(phases >= 1, "Phase King needs at least one phase");
        PhaseKing {
            value: Bit::Zero,
            candidate: UNSURE,
            tentative: UNSURE,
            locked: false,
            decision: None,
            phases,
        }
    }

    /// The king of phase `p` (1-based): processes take turns in id order.
    pub fn king_of_phase(phase: u64, n: usize) -> ProcessId {
        ProcessId(((phase - 1) as usize) % n)
    }

    /// Total number of rounds: three per phase, `t + 1` phases.
    pub fn total_rounds(t: usize) -> u64 {
        3 * (t as u64 + 1)
    }

    fn tentative_bit(&self) -> Bit {
        if self.tentative == 1 {
            Bit::One
        } else {
            Bit::Zero // UNSURE maps to 0, like the king's broadcast
        }
    }
}

impl Protocol for PhaseKing {
    type Input = Bit;
    type Output = Bit;
    type Msg = PkMsg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<PkMsg> {
        self.value = proposal;
        let mut out = Outbox::new();
        out.broadcast_to_others(ctx, PkMsg::Report(self.value));
        out
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<PkMsg>) -> Outbox<PkMsg> {
        let mut out = Outbox::new();
        if self.decision.is_some() || round.0 > 3 * self.phases {
            return out;
        }
        match (round.0 - 1) % 3 {
            // Processing exchange 1: count Reports, derive the candidate.
            0 => {
                let mut counts = [0usize; 2];
                counts[u8::from(self.value) as usize] += 1;
                for (_, msg) in inbox.iter() {
                    if let PkMsg::Report(b) = msg {
                        counts[u8::from(*b) as usize] += 1;
                    }
                }
                self.candidate = if counts[0] >= ctx.n - ctx.t {
                    0
                } else if counts[1] >= ctx.n - ctx.t {
                    1
                } else {
                    UNSURE
                };
                out.broadcast_to_others(ctx, PkMsg::Support(self.candidate));
            }
            // Processing exchange 2: count Supports, derive tentative/locked;
            // the king announces.
            1 => {
                let mut counts = [0usize; 3];
                counts[self.candidate as usize] += 1;
                for (_, msg) in inbox.iter() {
                    if let PkMsg::Support(w) = msg {
                        if *w <= UNSURE {
                            counts[*w as usize] += 1;
                        }
                    }
                }
                (self.tentative, self.locked) = if counts[0] > ctx.t {
                    (0, counts[0] >= ctx.n - ctx.t)
                } else if counts[1] > ctx.t {
                    (1, counts[1] >= ctx.n - ctx.t)
                } else {
                    (UNSURE, false)
                };
                let phase = (round.0 + 1) / 3;
                if ctx.id == Self::king_of_phase(phase, ctx.n) {
                    out.broadcast_to_others(ctx, PkMsg::King(self.tentative_bit()));
                }
            }
            // Processing the king round: adopt, then start the next phase
            // (or decide).
            _ => {
                let phase = round.0 / 3;
                let king = Self::king_of_phase(phase, ctx.n);
                self.value = if self.locked || ctx.id == king {
                    self.tentative_bit()
                } else {
                    match inbox.from_sender(king) {
                        Some(PkMsg::King(b)) => *b,
                        _ => Bit::Zero,
                    }
                };
                if phase == self.phases {
                    self.decision = Some(self.value);
                } else {
                    out.broadcast_to_others(ctx, PkMsg::Report(self.value));
                }
            }
        }
        out
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Adversary, Scenario, SilentByzantine};
    use std::collections::BTreeSet;

    #[test]
    fn strong_validity_fault_free() {
        for bit in Bit::ALL {
            let exec = Scenario::new(4, 1)
                .protocol(|_| PhaseKing::new(4, 1))
                .uniform_input(bit)
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert!(exec.all_correct_decided(bit));
        }
    }

    #[test]
    fn agreement_with_mixed_proposals() {
        let exec = Scenario::new(7, 2)
            .protocol(|_| PhaseKing::new(7, 2))
            .inputs([
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
            ])
            .run()
            .unwrap();
        exec.validate().unwrap();
        let decisions: BTreeSet<_> = exec
            .correct()
            .map(|p| exec.decision_of(p).cloned())
            .collect();
        assert_eq!(decisions.len(), 1, "agreement violated");
    }

    #[test]
    fn strong_validity_with_silent_byzantine_king() {
        // p0 is king of phase 1 and Byzantine-silent; all correct propose One.
        let exec = Scenario::new(4, 1)
            .protocol(|_| PhaseKing::new(4, 1))
            .uniform_input(Bit::One)
            .adversary(Adversary::one_byzantine(ProcessId(0), SilentByzantine))
            .run()
            .unwrap();
        exec.validate().unwrap();
        for pid in exec.correct() {
            assert_eq!(exec.decision_of(pid), Some(&Bit::One));
        }
    }

    #[test]
    fn agreement_under_equivocating_byzantine() {
        use crate::attacks::SplitReporter;
        let exec = Scenario::new(7, 2)
            .protocol(|_| PhaseKing::new(7, 2))
            .inputs([
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
                Bit::Zero,
                Bit::One,
            ])
            .adversary(Adversary::byzantine([
                (ProcessId(6), Box::new(SplitReporter::new()) as _),
                (ProcessId(5), Box::new(SplitReporter::new()) as _),
            ]))
            .run()
            .unwrap();
        exec.validate().unwrap();
        let decisions: BTreeSet<_> = exec
            .correct()
            .map(|p| exec.decision_of(p).cloned())
            .collect();
        assert_eq!(decisions.len(), 1, "agreement violated under equivocation");
        assert!(
            decisions.iter().all(|d| d.is_some()),
            "termination violated"
        );
    }

    #[test]
    fn rounds_and_message_complexity_match_formula() {
        let (n, t) = (7, 2);
        let exec = Scenario::new(n, t)
            .protocol(move |_| PhaseKing::new(n, t))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        assert_eq!(
            exec.all_decided_by(),
            Some(Round(PhaseKing::total_rounds(t) + 1))
        );
        // (t+1) phases × (2 all-to-all exchanges + 1 king broadcast).
        let expected = ((t + 1) * (2 * n * (n - 1) + (n - 1))) as u64;
        assert_eq!(exec.message_complexity(), expected);
    }

    #[test]
    fn king_rotation_is_cyclic() {
        assert_eq!(PhaseKing::king_of_phase(1, 4), ProcessId(0));
        assert_eq!(PhaseKing::king_of_phase(4, 4), ProcessId(3));
        assert_eq!(PhaseKing::king_of_phase(5, 4), ProcessId(0));
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_insufficient_resilience() {
        let _ = PhaseKing::new(3, 1);
    }

    #[test]
    fn single_phase_variant_decides_after_one_phase_fault_free() {
        // Fault-free, with_phases(.., 1) is still safe: everyone locks in
        // phase 1 and decides by round 4. The weakness only shows against
        // an adversary that corrupts the (single) king.
        let exec = Scenario::new(5, 1)
            .protocol(|_| PhaseKing::with_phases(5, 1, 1))
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert!(exec.all_correct_decided(Bit::One));
        assert_eq!(exec.all_decided_by(), Some(Round(4)));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn rejects_zero_phases() {
        let _ = PhaseKing::with_phases(4, 1, 0);
    }
}
