//! The WLOG bit relabeling of the Theorem 2 proof.
//!
//! The paper assumes "without loss of generality" that group `A` decides `1`
//! in `E_B(1)_0` — justified because Weak Validity is symmetric under
//! relabeling the bits. [`BitFlipped`] makes the relabeling executable: it
//! is a weak consensus protocol iff its inner protocol is, and its executions
//! are in 1-1 correspondence with the inner protocol's via
//! [`unflip_execution`].

use ba_sim::{Bit, Execution, Inbox, Outbox, Payload, ProcessCtx, Protocol, Round};

/// The bit-relabeled protocol: `propose(b)` becomes `propose(1 − b)` and a
/// decision `d` is reported as `1 − d`. Messages are untouched.
#[derive(Clone, Debug)]
pub struct BitFlipped<P> {
    inner: P,
}

impl<P> BitFlipped<P>
where
    P: Protocol<Input = Bit, Output = Bit>,
{
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        BitFlipped { inner }
    }

    /// The wrapped protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P> Protocol for BitFlipped<P>
where
    P: Protocol<Input = Bit, Output = Bit>,
{
    type Input = Bit;
    type Output = Bit;
    type Msg = P::Msg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<P::Msg> {
        self.inner.propose(ctx, proposal.flip())
    }

    fn round(&mut self, ctx: &ProcessCtx, round: Round, inbox: &Inbox<P::Msg>) -> Outbox<P::Msg> {
        self.inner.round(ctx, round, inbox)
    }

    fn decision(&self) -> Option<Bit> {
        self.inner.decision().map(Bit::flip)
    }
}

/// Maps an execution of `BitFlipped(P)` back to the corresponding execution
/// of `P`: proposals and decisions are complemented, everything else
/// (messages, fragments, fault set) is identical.
///
/// The result is a genuine execution of `P` — this is how a violation
/// certificate found in the flipped orientation is reported against the
/// original protocol.
pub fn unflip_execution<M: Payload>(mut exec: Execution<Bit, Bit, M>) -> Execution<Bit, Bit, M> {
    for record in &mut exec.records {
        record.proposal = record.proposal.flip();
        if let Some((v, _)) = &mut record.decision {
            *v = v.flip();
        }
    }
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{ProcessId, Scenario};

    /// Broadcast proposal once; decide own proposal.
    #[derive(Clone)]
    struct Echo {
        decision: Option<Bit>,
    }

    impl Protocol for Echo {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            self.decision = Some(proposal);
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> {
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    #[test]
    fn flipped_protocol_flips_proposals_and_decisions() {
        let exec = Scenario::new(3, 1)
            .protocol(|_| BitFlipped::new(Echo { decision: None }))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        // Inner protocol saw One (flipped), decided One, reported flipped
        // back as Zero.
        assert!(exec.all_correct_decided(Bit::Zero));
        // But the *messages* carry the inner value One.
        assert_eq!(
            exec.record(ProcessId(0)).fragments[0]
                .sent
                .get(&ProcessId(1)),
            Some(&Bit::One)
        );
    }

    #[test]
    fn unflip_recovers_inner_execution() {
        let flipped = Scenario::new(3, 1)
            .protocol(|_| BitFlipped::new(Echo { decision: None }))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        let unflipped = unflip_execution(flipped);
        // The unflipped execution is exactly what running Echo on all-One
        // proposals produces.
        let direct = Scenario::new(3, 1)
            .protocol(|_| Echo { decision: None })
            .uniform_input(Bit::One)
            .run()
            .unwrap();
        assert_eq!(unflipped, direct);
    }

    #[test]
    fn double_flip_is_identity_on_behavior() {
        let twice = Scenario::new(3, 1)
            .protocol(|_| BitFlipped::new(BitFlipped::new(Echo { decision: None })))
            .inputs([Bit::One, Bit::Zero, Bit::One])
            .run()
            .unwrap();
        let direct = Scenario::new(3, 1)
            .protocol(|_| Echo { decision: None })
            .inputs([Bit::One, Bit::Zero, Bit::One])
            .run()
            .unwrap();
        assert_eq!(twice, direct);
    }
}
