//! Human-readable execution rendering — round-by-round traffic and decision
//! summaries for debugging, examples, and certificate inspection.

use std::fmt::Write as _;

use crate::execution::Execution;
use crate::ids::{ProcessId, Round};
use crate::value::{Payload, Value};

/// Per-round aggregate statistics of an execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RoundStats {
    /// Messages successfully delivered this round.
    pub delivered: usize,
    /// Messages send-omitted this round.
    pub send_omitted: usize,
    /// Messages receive-omitted this round.
    pub receive_omitted: usize,
    /// Processes whose decision first appeared at the start of the *next*
    /// round (i.e. decided while processing this round).
    pub newly_decided: usize,
}

/// Computes [`RoundStats`] for every executed round.
pub fn round_stats<I: Value, O: Value, M: Payload>(exec: &Execution<I, O, M>) -> Vec<RoundStats> {
    let mut stats = vec![RoundStats::default(); exec.rounds as usize];
    for pid in ProcessId::all(exec.n) {
        let rec = exec.record(pid);
        for (i, frag) in rec.fragments.iter().enumerate() {
            // Count deliveries at the receiver side to avoid double counting.
            stats[i].delivered += frag.received.len();
            stats[i].send_omitted += frag.send_omitted.len();
            stats[i].receive_omitted += frag.receive_omitted.len();
        }
        if let Some((_, round)) = &rec.decision {
            let idx = (round.0.saturating_sub(2)) as usize;
            if round.0 >= 2 && idx < stats.len() {
                stats[idx].newly_decided += 1;
            }
        }
    }
    stats
}

/// Payload-interning profile of an execution: how many fragment slots it
/// holds versus how many **distinct** payloads back them. The ratio is the
/// clone-for-slot saving the arena representation realizes
/// ([`Execution::compress`]) — all-to-all rounds typically push it to `n²`
/// slots per handful of payloads.
pub fn payload_reuse<I: Value, O: Value, M: Payload>(exec: &Execution<I, O, M>) -> (usize, usize) {
    let mut arena = crate::PayloadArena::new();
    let compressed = exec.compress(&mut arena);
    (compressed.slot_count(), arena.len())
}

/// Renders a compact, round-by-round textual summary of an execution:
/// traffic volumes, omissions, and the decision timeline — the shape of the
/// colored bands in the paper's Figures 1 and 2.
///
/// ```
/// use ba_sim::{render_execution, Bit, Inbox, Outbox, ProcessCtx, Protocol,
///              Round, Scenario};
///
/// #[derive(Clone)]
/// struct Noop;
/// impl Protocol for Noop {
///     type Input = Bit; type Output = Bit; type Msg = Bit;
///     fn propose(&mut self, _: &ProcessCtx, _: Bit) -> Outbox<Bit> { Outbox::new() }
///     fn round(&mut self, _: &ProcessCtx, _: Round, _: &Inbox<Bit>) -> Outbox<Bit> { Outbox::new() }
///     fn decision(&self) -> Option<Bit> { Some(Bit::Zero) }
/// }
///
/// let exec = Scenario::new(2, 1)
///     .protocol(|_| Noop)
///     .uniform_input(Bit::Zero)
///     .run()
///     .unwrap();
/// let text = render_execution(&exec);
/// assert!(text.contains("faulty: none"));
/// ```
pub fn render_execution<I, O, M>(exec: &Execution<I, O, M>) -> String
where
    I: Value + std::fmt::Debug,
    O: Value + std::fmt::Debug,
    M: Payload,
{
    let mut out = String::new();
    let faulty = if exec.faulty.is_empty() {
        "none".to_string()
    } else {
        exec.faulty
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        out,
        "execution: n = {}, t = {}, mode = {:?}, rounds = {}, quiescent = {}",
        exec.n, exec.t, exec.mode, exec.rounds, exec.quiescent
    );
    let _ = writeln!(out, "faulty: {faulty}");
    let _ = writeln!(
        out,
        "message complexity (correct senders): {}; total messages: {}",
        exec.message_complexity(),
        exec.total_messages()
    );
    let (slots, distinct) = payload_reuse(exec);
    let _ = writeln!(
        out,
        "payload slots: {slots} backed by {distinct} distinct payload(s)"
    );

    let _ = writeln!(
        out,
        "round | delivered | send-omit | recv-omit | newly decided"
    );
    let stats = round_stats(exec);
    let last_active = stats
        .iter()
        .rposition(|s| s.delivered + s.send_omitted + s.receive_omitted + s.newly_decided > 0)
        .map_or(0, |i| i + 1);
    for (i, s) in stats.iter().enumerate().take(last_active) {
        let _ = writeln!(
            out,
            "{:>5} | {:>9} | {:>9} | {:>9} | {:>13}",
            i + 1,
            s.delivered,
            s.send_omitted,
            s.receive_omitted,
            s.newly_decided
        );
    }
    if (last_active as u64) < exec.rounds {
        let _ = writeln!(
            out,
            "rounds {}..{} quiet (no traffic, no new decisions)",
            last_active + 1,
            exec.rounds
        );
    }

    let _ = writeln!(out, "decisions:");
    for pid in ProcessId::all(exec.n) {
        let rec = exec.record(pid);
        let role = if exec.is_correct(pid) {
            "correct"
        } else {
            "FAULTY "
        };
        match &rec.decision {
            Some((v, r)) => {
                let _ = writeln!(
                    out,
                    "  {pid:>4} [{role}] proposed {:?} decided {v:?} (start of round {})",
                    rec.proposal, r.0
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {pid:>4} [{role}] proposed {:?} UNDECIDED",
                    rec.proposal
                );
            }
        }
    }
    out
}

/// Renders the first round in which each process's *received* messages
/// differ between two executions — the per-process indistinguishability
/// frontier.
pub fn render_divergence<I, O, M>(a: &Execution<I, O, M>, b: &Execution<I, O, M>) -> String
where
    I: Value,
    O: Value,
    M: Payload,
{
    let mut out = String::new();
    let _ = writeln!(
        out,
        "indistinguishability frontier (first differing inbox):"
    );
    for pid in ProcessId::all(a.n.min(b.n)) {
        let frontier = first_inbox_divergence(a, b, pid);
        match frontier {
            Some(round) => {
                let _ = writeln!(out, "  {pid:>4}: differs from round {}", round.0);
            }
            None => {
                let _ = writeln!(out, "  {pid:>4}: indistinguishable");
            }
        }
    }
    out
}

/// The first round in which `pid`'s inbox differs between the executions
/// (`None` = the executions are indistinguishable to `pid`, modulo
/// proposals).
pub fn first_inbox_divergence<I, O, M>(
    a: &Execution<I, O, M>,
    b: &Execution<I, O, M>,
    pid: ProcessId,
) -> Option<Round>
where
    I: Value,
    O: Value,
    M: Payload,
{
    let horizon = a.rounds.max(b.rounds);
    for round in Round::up_to(horizon) {
        let empty = std::collections::BTreeMap::new();
        let fa = a
            .record(pid)
            .fragment(round)
            .map_or(&empty, |f| &f.received);
        let fb = b
            .record(pid)
            .fragment(round)
            .map_or(&empty, |f| &f.received);
        if fa != fb {
            return Some(round);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{Inbox, Outbox};
    use crate::protocol::{ProcessCtx, Protocol};
    use crate::scenario::{Adversary, Scenario};
    use crate::value::Bit;

    #[derive(Clone)]
    struct Gossip {
        decision: Option<Bit>,
    }

    impl Protocol for Gossip {
        type Input = Bit;
        type Output = Bit;
        type Msg = Bit;

        fn propose(&mut self, ctx: &ProcessCtx, proposal: Bit) -> Outbox<Bit> {
            let mut out = Outbox::new();
            out.broadcast_to_others(ctx, proposal);
            out
        }

        fn round(&mut self, _: &ProcessCtx, round: Round, inbox: &Inbox<Bit>) -> Outbox<Bit> {
            if round == Round::FIRST {
                self.decision = Some(Bit::from(inbox.iter().any(|(_, b)| *b == Bit::One)));
            }
            Outbox::new()
        }

        fn decision(&self) -> Option<Bit> {
            self.decision
        }
    }

    fn sample(faulty: bool) -> Execution<Bit, Bit, Bit> {
        let scenario = Scenario::new(3, 1)
            .protocol(|_| Gossip { decision: None })
            .uniform_input(Bit::One);
        let scenario = if faulty {
            scenario.adversary(Adversary::isolation([ProcessId(2)], Round(1)))
        } else {
            scenario
        };
        scenario.run().unwrap()
    }

    #[test]
    fn round_stats_count_traffic() {
        let exec = sample(false);
        let stats = round_stats(&exec);
        assert_eq!(stats[0].delivered, 6);
        assert_eq!(stats[0].send_omitted, 0);
        assert_eq!(stats[0].newly_decided, 3);
    }

    #[test]
    fn round_stats_count_omissions() {
        let exec = sample(true);
        let stats = round_stats(&exec);
        assert_eq!(
            stats[0].receive_omitted, 2,
            "p2 receive-omits from p0 and p1"
        );
        assert_eq!(stats[0].delivered, 4);
    }

    #[test]
    fn render_contains_key_facts() {
        let exec = sample(true);
        let text = render_execution(&exec);
        assert!(text.contains("n = 3, t = 1"));
        assert!(text.contains("faulty: p2"));
        assert!(text.contains("decided"));
        let (slots, distinct) = payload_reuse(&exec);
        assert!(text.contains(&format!(
            "payload slots: {slots} backed by {distinct} distinct payload(s)"
        )));
        assert_eq!(distinct, 1, "uniform gossip interns one payload");
        assert!(slots > distinct);
    }

    #[test]
    fn divergence_frontier_localizes_differences() {
        let clean = sample(false);
        let isolated = sample(true);
        assert_eq!(
            first_inbox_divergence(&clean, &isolated, ProcessId(0)),
            None
        );
        assert_eq!(
            first_inbox_divergence(&clean, &isolated, ProcessId(2)),
            Some(Round(1))
        );
        let text = render_divergence(&clean, &isolated);
        assert!(text.contains("p2: differs from round 1"));
        assert!(text.contains("p0: indistinguishable"));
    }
}
