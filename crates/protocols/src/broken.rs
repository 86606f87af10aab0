//! Deliberately *incorrect* sub-quadratic "weak consensus" protocols.
//!
//! The paper's Theorem 2 proves no weak consensus algorithm can exchange
//! fewer than `t²/32` messages in the worst case. These protocols try anyway
//! — `O(1)`, `O(n)`, or one-shot `O(n²)` messages — and are the targets that
//! `ba-core`'s falsifier (the executable form of the Theorem 2 proof)
//! defeats by constructing concrete violating executions.
//!
//! Each type documents *which* property it violates and in what kind of
//! execution; the falsifier and the integration tests find those executions
//! mechanically.

use ba_sim::{Bit, Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round};

/// Decides a constant, sends nothing. Message complexity 0.
///
/// Violates **Weak Validity**: in the fully correct execution where all
/// processes propose the complement bit, that bit must be decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SilentConstant {
    constant: Bit,
    decision: Option<Bit>,
}

impl SilentConstant {
    /// Creates the protocol that always decides `constant`.
    pub fn new(constant: Bit) -> Self {
        SilentConstant {
            constant,
            decision: None,
        }
    }
}

impl Protocol for SilentConstant {
    type Input = Bit;
    type Output = Bit;
    type Msg = Bit;

    fn propose(&mut self, _: &ProcessCtx, _: Bit) -> Outbox<Bit> {
        self.decision = Some(self.constant);
        Outbox::new()
    }

    fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
        Outbox::new()
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

/// Decides its own proposal, sends nothing. Message complexity 0.
///
/// Satisfies Weak Validity and Termination but violates **Agreement** as
/// soon as two correct processes propose differently — which the falsifier
/// exhibits through the merged execution, where group `C` proposes the
/// complement of groups `A ∪ B`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OwnProposal {
    decision: Option<Bit>,
}

impl OwnProposal {
    /// Creates the protocol.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Protocol for OwnProposal {
    type Input = Bit;
    type Output = Bit;
    type Msg = Bit;

    fn propose(&mut self, _: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
        self.decision = Some(proposal);
        Outbox::new()
    }

    fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
        Outbox::new()
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

/// A two-round star topology: everyone reports to a leader, the leader
/// announces a verdict. Message complexity `2(n − 1) = O(n)` — far below
/// the `t²/32` floor for `t ∈ Θ(n)`.
///
/// Violates **Agreement** under omission faults: isolate a group containing
/// neither the leader nor some correct process, and the isolated processes
/// (which the `swap_omission` construction then re-labels correct) miss the
/// verdict and fall back to the default `1` while the rest decide `0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeaderEcho {
    leader: ProcessId,
    proposal: Bit,
    verdict: Option<Bit>,
    decision: Option<Bit>,
}

/// Wire messages of [`LeaderEcho`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LeaderEchoMsg {
    /// A proposal reported to the leader in round 1.
    Report(Bit),
    /// The leader's verdict, announced in round 2.
    Verdict(Bit),
}

impl LeaderEcho {
    /// Creates an instance with the given leader.
    pub fn new(leader: ProcessId) -> Self {
        LeaderEcho {
            leader,
            proposal: Bit::Zero,
            verdict: None,
            decision: None,
        }
    }
}

impl Protocol for LeaderEcho {
    type Input = Bit;
    type Output = Bit;
    type Msg = LeaderEchoMsg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<LeaderEchoMsg> {
        self.proposal = proposal;
        let mut out = Outbox::new();
        if ctx.id != self.leader {
            out.send(self.leader, LeaderEchoMsg::Report(proposal));
        }
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<LeaderEchoMsg>,
    ) -> Outbox<LeaderEchoMsg> {
        let mut out = Outbox::new();
        match round.0 {
            1 if ctx.id == self.leader => {
                let mut zeros = usize::from(self.proposal == Bit::Zero);
                zeros += inbox
                    .iter()
                    .filter(|(_, m)| matches!(m, LeaderEchoMsg::Report(Bit::Zero)))
                    .count();
                let verdict = if zeros == ctx.n { Bit::Zero } else { Bit::One };
                self.verdict = Some(verdict);
                out.broadcast_to_others(ctx, LeaderEchoMsg::Verdict(verdict));
            }
            2 => {
                self.decision = Some(if ctx.id == self.leader {
                    self.verdict.expect("leader set the verdict in round 1")
                } else {
                    match inbox.from_sender(self.leader) {
                        Some(LeaderEchoMsg::Verdict(b)) => *b,
                        _ => Bit::One, // heard nothing: fall back to default
                    }
                });
            }
            _ => {}
        }
        out
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

/// One all-to-all round; decide 0 iff everybody (including oneself) reported
/// 0. Message complexity `n(n − 1)` — quadratic in `n`, so *not* refuted by
/// the t²/32 pigeonhole, yet still incorrect.
///
/// Violates **Agreement** with a single send-omission fault: a faulty
/// `0`-proposer that omits its report to one correct process makes that
/// process decide 1 while the rest decide 0. The paper's machinery reaches
/// the same shape of counterexample through `swap_omission`; the integration
/// tests also exhibit it directly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OneRoundAllToAll {
    proposal: Bit,
    decision: Option<Bit>,
}

impl OneRoundAllToAll {
    /// Creates the protocol.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Protocol for OneRoundAllToAll {
    type Input = Bit;
    type Output = Bit;
    type Msg = Bit;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
        self.proposal = proposal;
        let mut out = Outbox::new();
        out.broadcast_to_others(ctx, proposal);
        out
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<Bit>) -> Outbox<Bit> {
        if round == Round::FIRST {
            let all_zero = self.proposal == Bit::Zero
                && inbox.len() == ctx.n - 1
                && inbox.iter().all(|(_, b)| *b == Bit::Zero);
            self.decision = Some(if all_zero { Bit::Zero } else { Bit::One });
        }
        Outbox::new()
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

/// Two rounds of all-to-all echo with a paranoid default: decide 0 only on
/// a perfectly consistent all-zero transcript, otherwise 1. Message
/// complexity `2·n(n − 1)`.
///
/// This protocol has the **default-bit structure** the Theorem 2 proof
/// normalizes to (any detected fault ⇒ decide 1), so it exercises the
/// falsifier's critical-round scan (Lemma 4) and merge step end to end. It
/// is quadratic, so the Lemma 2 pigeonhole (rightly) never fires — yet it
/// is still *not* a correct weak consensus protocol: a single send-omission
/// in round 2 splits the correct processes, which the random prober
/// exhibits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ParanoidEcho {
    proposal: Bit,
    tentative: Bit,
    decision: Option<Bit>,
}

/// Wire messages of [`ParanoidEcho`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ParanoidEchoMsg {
    /// Round-1 broadcast of the proposal.
    Report(Bit),
    /// Round-2 broadcast of the tentative verdict.
    Tentative(Bit),
}

impl ParanoidEcho {
    /// Creates the protocol.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Protocol for ParanoidEcho {
    type Input = Bit;
    type Output = Bit;
    type Msg = ParanoidEchoMsg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<ParanoidEchoMsg> {
        self.proposal = proposal;
        let mut out = Outbox::new();
        out.broadcast_to_others(ctx, ParanoidEchoMsg::Report(proposal));
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<ParanoidEchoMsg>,
    ) -> Outbox<ParanoidEchoMsg> {
        let mut out = Outbox::new();
        match round.0 {
            1 => {
                let all_zero = self.proposal == Bit::Zero
                    && inbox.len() == ctx.n - 1
                    && inbox
                        .iter()
                        .all(|(_, m)| matches!(m, ParanoidEchoMsg::Report(Bit::Zero)));
                self.tentative = if all_zero { Bit::Zero } else { Bit::One };
                out.broadcast_to_others(ctx, ParanoidEchoMsg::Tentative(self.tentative));
            }
            2 => {
                let all_zero = self.tentative == Bit::Zero
                    && inbox.len() == ctx.n - 1
                    && inbox
                        .iter()
                        .all(|(_, m)| matches!(m, ParanoidEchoMsg::Tentative(Bit::Zero)));
                self.decision = Some(if all_zero { Bit::Zero } else { Bit::One });
            }
            _ => {}
        }
        out
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }
}

/// [`ParanoidEcho`] generalized to a configurable number of all-to-all
/// echo stages: decide 0 only on a perfectly consistent all-zero transcript
/// across all stages, otherwise 1.
///
/// The interesting knob for the paper's Lemma 4: isolating a group at round
/// `k < stages` raises an alarm that reaches everyone in time (group `A`
/// decides the default 1), while isolating at `k = stages` goes unnoticed
/// by `A` (it decides 0) — so the **critical round is `R = stages − 1`**,
/// making this family the parameter sweep for the critical-round
/// experiment. Message complexity: `stages · n(n − 1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EchoChain {
    stages: u64,
    clean: bool,
    decision: Option<Bit>,
}

impl EchoChain {
    /// Creates the protocol with the given number of echo stages (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`.
    pub fn new(stages: u64) -> Self {
        assert!(stages >= 1, "need at least one stage");
        EchoChain {
            stages,
            clean: true,
            decision: None,
        }
    }

    /// The configured number of stages.
    pub fn stages(&self) -> u64 {
        self.stages
    }

    fn flag(&self) -> Bit {
        if self.clean {
            Bit::Zero
        } else {
            Bit::One
        }
    }
}

impl Protocol for EchoChain {
    type Input = Bit;
    type Output = Bit;
    type Msg = Bit;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
        self.clean = proposal == Bit::Zero;
        let mut out = Outbox::new();
        out.broadcast_to_others(ctx, self.flag());
        out
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<Bit>) -> Outbox<Bit> {
        let mut out = Outbox::new();
        if round.0 > self.stages {
            return out;
        }
        let all_clear = inbox.len() == ctx.n - 1 && inbox.iter().all(|(_, b)| *b == Bit::Zero);
        self.clean = self.clean && all_clear;
        if round.0 < self.stages {
            out.broadcast_to_others(ctx, self.flag());
        } else {
            self.decision = Some(self.flag());
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
    use ba_sim::{Adversary, Fate, Scenario, TableOmissionPlan};

    #[test]
    fn silent_constant_violates_weak_validity() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| SilentConstant::new(Bit::One))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        // All correct, all propose 0 — yet everyone decides 1.
        assert!(exec.all_correct_decided(Bit::One));
        assert_eq!(exec.message_complexity(), 0);
    }

    #[test]
    fn own_proposal_violates_agreement_with_mixed_proposals() {
        let exec = Scenario::new(4, 1)
            .protocol(|_| OwnProposal::new())
            .inputs([Bit::Zero, Bit::One, Bit::Zero, Bit::One])
            .run()
            .unwrap();
        assert_eq!(exec.decision_of(ProcessId(0)), Some(&Bit::Zero));
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
    }

    #[test]
    fn leader_echo_is_fine_without_faults() {
        for bit in Bit::ALL {
            let exec = Scenario::new(5, 2)
                .protocol(|_| LeaderEcho::new(ProcessId(0)))
                .uniform_input(bit)
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert!(exec.all_correct_decided(bit));
            assert_eq!(exec.message_complexity(), 8); // 2(n − 1)
        }
    }

    #[test]
    fn leader_echo_message_complexity_is_linear() {
        for n in [4usize, 8, 16, 32] {
            let exec = Scenario::new(n, n / 2)
                .protocol(|_| LeaderEcho::new(ProcessId(0)))
                .uniform_input(Bit::Zero)
                .run()
                .unwrap();
            assert_eq!(exec.message_complexity(), 2 * (n as u64 - 1));
        }
    }

    #[test]
    fn one_round_all_to_all_breaks_with_one_send_omission() {
        // p0 (faulty, 0-proposer) omits its report to p1: p1 decides 1,
        // every other correct process decides 0 — Agreement violated among
        // correct processes p1 and p2.
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(1), ProcessId(0), ProcessId(1), Fate::SendOmit);
        let exec = Scenario::new(4, 1)
            .protocol(|_| OneRoundAllToAll::new())
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission([ProcessId(0)], plan))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
        assert_eq!(exec.decision_of(ProcessId(2)), Some(&Bit::Zero));
        assert!(exec.is_correct(ProcessId(1)) && exec.is_correct(ProcessId(2)));
    }

    #[test]
    fn one_round_all_to_all_is_fine_without_faults() {
        for bit in Bit::ALL {
            let exec = Scenario::new(4, 1)
                .protocol(|_| OneRoundAllToAll::new())
                .uniform_input(bit)
                .run()
                .unwrap();
            assert!(exec.all_correct_decided(bit));
        }
    }

    #[test]
    fn paranoid_echo_is_fine_without_faults() {
        for bit in Bit::ALL {
            let exec = Scenario::new(4, 1)
                .protocol(|_| ParanoidEcho::new())
                .uniform_input(bit)
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert!(exec.all_correct_decided(bit));
            assert_eq!(exec.message_complexity(), 2 * 4 * 3);
        }
    }

    #[test]
    fn echo_chain_matches_paranoid_echo_semantics() {
        // EchoChain(2) and ParanoidEcho decide identically in fault-free
        // uniform executions and under a round-2 send omission.
        for bit in Bit::ALL {
            let exec = Scenario::new(5, 1)
                .protocol(|_| EchoChain::new(2))
                .uniform_input(bit)
                .run()
                .unwrap();
            exec.validate().unwrap();
            assert!(exec.all_correct_decided(bit));
            assert_eq!(exec.message_complexity(), 2 * 5 * 4);
        }
    }

    #[test]
    fn echo_chain_decides_at_stage_count() {
        for stages in [1u64, 2, 4, 6] {
            let exec = Scenario::new(4, 1)
                .protocol(move |_| EchoChain::new(stages))
                .uniform_input(Bit::Zero)
                .run()
                .unwrap();
            assert_eq!(exec.all_decided_by(), Some(Round(stages + 1)));
            assert_eq!(exec.message_complexity(), stages * 4 * 3);
        }
    }

    #[test]
    fn paranoid_echo_breaks_with_one_round_two_send_omission() {
        // All propose 0; p0 (faulty) send-omits its round-2 tentative to
        // p1: p1 decides 1, p2 decides 0 — both correct.
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(2), ProcessId(0), ProcessId(1), Fate::SendOmit);
        let exec = Scenario::new(4, 1)
            .protocol(|_| ParanoidEcho::new())
            .uniform_input(Bit::Zero)
            .adversary(Adversary::omission([ProcessId(0)], plan))
            .run()
            .unwrap();
        exec.validate().unwrap();
        assert_eq!(exec.decision_of(ProcessId(1)), Some(&Bit::One));
        assert_eq!(exec.decision_of(ProcessId(2)), Some(&Bit::Zero));
    }
}
