//! Generic parallel composition of protocol instances.
//!
//! Runs `m` independent instances of a protocol in lock-step, bundling each
//! round's per-instance messages to a given receiver into one physical
//! message (respecting the model's one-message-per-receiver rule). The
//! composite decides the vector of instance decisions once every instance
//! has decided.
//!
//! This is the workhorse behind interactive consistency: one broadcast
//! instance per designated sender (paper §5.2.2, and the reduction target of
//! Algorithm 2).

use std::collections::BTreeMap;

use ba_sim::{Inbox, Outbox, ProcessCtx, ProcessId, Protocol, Round};

/// `m` instances of `P` running side by side.
///
/// * `Input` is a single `P::Input`, handed to *every* instance — suitable
///   for sender-centric instances (broadcasts) where only the designated
///   sender's proposal matters per instance.
/// * `Output` is the vector of all instance decisions, in instance order.
/// * `Msg` maps instance index → instance message.
#[derive(Clone, Debug)]
pub struct ParallelInstances<P: Protocol> {
    instances: Vec<P>,
    decision: Option<Vec<P::Output>>,
}

impl<P: Protocol> ParallelInstances<P> {
    /// Composes the given instances.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn new(instances: Vec<P>) -> Self {
        assert!(!instances.is_empty(), "at least one instance required");
        ParallelInstances {
            instances,
            decision: None,
        }
    }

    /// Number of composed instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` iff no instances are present (never true for constructed
    /// values).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Access to an individual instance (e.g. for inspecting sub-decisions).
    pub fn instance(&self, idx: usize) -> &P {
        &self.instances[idx]
    }

    fn merge_outbox(
        combined: &mut BTreeMap<ProcessId, BTreeMap<usize, P::Msg>>,
        idx: usize,
        out: Outbox<P::Msg>,
    ) {
        for (to, msg) in out {
            combined.entry(to).or_default().insert(idx, msg);
        }
    }

    fn seal(
        combined: BTreeMap<ProcessId, BTreeMap<usize, P::Msg>>,
    ) -> Outbox<BTreeMap<usize, P::Msg>> {
        combined.into_iter().collect()
    }

    fn refresh_decision(&mut self) {
        if self.decision.is_none() && self.instances.iter().all(|i| i.decision().is_some()) {
            self.decision = Some(
                self.instances
                    .iter()
                    .map(|i| i.decision().expect("checked above"))
                    .collect(),
            );
        }
    }
}

impl<P: Protocol> Protocol for ParallelInstances<P> {
    type Input = P::Input;
    type Output = Vec<P::Output>;
    type Msg = BTreeMap<usize, P::Msg>;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: P::Input) -> Outbox<Self::Msg> {
        let mut combined = BTreeMap::new();
        for (idx, instance) in self.instances.iter_mut().enumerate() {
            let out = instance.propose(ctx, proposal.clone());
            Self::merge_outbox(&mut combined, idx, out);
        }
        self.refresh_decision();
        Self::seal(combined)
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        let mut combined = BTreeMap::new();
        for (idx, instance) in self.instances.iter_mut().enumerate() {
            let sub_inbox: BTreeMap<ProcessId, P::Msg> = inbox
                .iter()
                .filter_map(|(sender, bundle)| bundle.get(&idx).map(|msg| (sender, msg.clone())))
                .collect();
            let out = instance.round(ctx, round, &Inbox::from_map(sub_inbox));
            Self::merge_outbox(&mut combined, idx, out);
        }
        self.refresh_decision();
        Self::seal(combined)
    }

    fn decision(&self) -> Option<Self::Output> {
        self.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Bit, Scenario};

    /// Echoes the proposal of a designated source to everyone; decides the
    /// source's value (or a default when silent) after round 1.
    #[derive(Clone, Debug)]
    struct OneShotRelay {
        source: ProcessId,
        decision: Option<Bit>,
    }

    impl Protocol for OneShotRelay {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            let mut out = Outbox::new();
            if ctx.id == self.source {
                self.decision = Some(proposal);
                out.broadcast_to_others(ctx, proposal);
            }
            out
        }

        fn round(&mut self, _: &ProcessCtx, round: Round, inbox: &Inbox<Bit>) -> Outbox<Bit> {
            if round == Round::FIRST && self.decision.is_none() {
                self.decision = Some(inbox.from_sender(self.source).copied().unwrap_or(Bit::Zero));
            }
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn relay_factory(n: usize) -> impl Fn(ProcessId) -> ParallelInstances<OneShotRelay> {
        move |_pid| {
            ParallelInstances::new(
                (0..n)
                    .map(|i| OneShotRelay {
                        source: ProcessId(i),
                        decision: None,
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn parallel_relays_produce_the_proposal_vector() {
        let n = 4;
        let proposals = [Bit::One, Bit::Zero, Bit::One, Bit::Zero];
        let exec = Scenario::new(n, 1)
            .protocol(relay_factory(n))
            .inputs(proposals)
            .run()
            .unwrap();
        exec.validate().unwrap();
        let expected: Vec<Bit> = proposals.to_vec();
        assert!(exec.all_correct_decided(expected));
    }

    #[test]
    fn bundling_keeps_one_physical_message_per_receiver() {
        let n = 4;
        let exec = Scenario::new(n, 1)
            .protocol(relay_factory(n))
            .uniform_input(Bit::Zero)
            .run()
            .unwrap();
        // Round 1: each process sends exactly one bundled message to each
        // peer (its own relay instance), despite n instances running.
        for pid in exec.correct() {
            assert_eq!(exec.record(pid).fragments[0].sent.len(), n - 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_composition_is_rejected() {
        let _ = ParallelInstances::<OneShotRelay>::new(vec![]);
    }

    #[test]
    fn instance_accessors() {
        let p = ParallelInstances::new(vec![
            OneShotRelay {
                source: ProcessId(0),
                decision: None,
            },
            OneShotRelay {
                source: ProcessId(1),
                decision: None,
            },
        ]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.instance(1).source, ProcessId(1));
    }
}
