//! The execution families of the Theorem 2 proof (paper Table 1) and the
//! `(A, B, C)` partition they are built over.

use std::collections::BTreeSet;

use ba_sim::{
    Adversary, Bit, Execution, ExecutorConfig, FullTrace, ProcessId, Protocol, Round, Scenario,
    SimError, TraceSink,
};

/// A partition `(A, B, C)` of `Π` with `B` and `C` the isolation groups
/// (paper Table 1: `|B| = |C| = t/4`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    a: BTreeSet<ProcessId>,
    b: BTreeSet<ProcessId>,
    c: BTreeSet<ProcessId>,
}

impl Partition {
    /// Builds a partition from explicit groups.
    ///
    /// # Panics
    ///
    /// Panics unless the three sets are disjoint, cover `{p_0, …, p_{n-1}}`,
    /// `A` is non-empty, and `|B| + |C| ≤ t` (both groups must be
    /// simultaneously faulty in the merged execution).
    pub fn new(
        n: usize,
        t: usize,
        a: BTreeSet<ProcessId>,
        b: BTreeSet<ProcessId>,
        c: BTreeSet<ProcessId>,
    ) -> Self {
        assert!(!a.is_empty(), "group A must be non-empty");
        assert!(
            !b.is_empty() && !c.is_empty(),
            "isolation groups must be non-empty"
        );
        assert!(b.len() + c.len() <= t, "require |B| + |C| ≤ t");
        let mut all = BTreeSet::new();
        for set in [&a, &b, &c] {
            for p in set {
                assert!(p.index() < n, "process {p} out of range");
                assert!(all.insert(*p), "groups must be disjoint (duplicate {p})");
            }
        }
        assert_eq!(all.len(), n, "groups must cover all {n} processes");
        Partition { a, b, c }
    }

    /// The paper's default shape: `|B| = |C| = max(1, ⌊t/4⌋)`, drawn from
    /// the top of the id range so that low-id processes (typical designated
    /// senders/leaders) stay in `A`.
    ///
    /// # Panics
    ///
    /// Panics unless `t ≥ 2` (two disjoint non-empty groups must fit in the
    /// fault budget) and `n ≥ 2·max(1, ⌊t/4⌋) + 1`.
    pub fn paper_default(n: usize, t: usize) -> Self {
        Self::try_paper_default(n, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Partition::paper_default`], or why it does not fit: it needs
    /// `t ≥ 2` (two disjoint non-empty groups must fit in the fault budget)
    /// and `n ≥ 2·max(1, ⌊t/4⌋) + 1`.
    pub(crate) fn try_paper_default(n: usize, t: usize) -> Result<Self, String> {
        if t < 2 {
            return Err(format!(
                "the merged execution needs |B| + |C| ≤ t with both non-empty; t = {t} < 2"
            ));
        }
        let g = (t / 4).max(1);
        if n <= 2 * g {
            return Err(format!("need n > 2·{g} for a non-empty group A"));
        }
        let c: BTreeSet<ProcessId> = (n - g..n).map(ProcessId).collect();
        let b: BTreeSet<ProcessId> = (n - 2 * g..n - g).map(ProcessId).collect();
        let a: BTreeSet<ProcessId> = (0..n - 2 * g).map(ProcessId).collect();
        Ok(Partition { a, b, c })
    }

    /// Group `A` (correct in every family execution).
    pub fn a(&self) -> &BTreeSet<ProcessId> {
        &self.a
    }

    /// Isolation group `B`.
    pub fn b(&self) -> &BTreeSet<ProcessId> {
        &self.b
    }

    /// Isolation group `C`.
    pub fn c(&self) -> &BTreeSet<ProcessId> {
        &self.c
    }
}

/// Runs the Table 1 execution families for a fixed protocol and partition.
///
/// All executions use the same executor configuration, so horizons line up
/// and indistinguishability comparisons are meaningful.
pub struct FamilyRunner<'f, F> {
    cfg: ExecutorConfig,
    factory: &'f F,
    partition: Partition,
}

impl<'f, F> FamilyRunner<'f, F> {
    /// Creates a runner.
    pub fn new(cfg: ExecutorConfig, factory: &'f F, partition: Partition) -> Self {
        FamilyRunner {
            cfg,
            factory,
            partition,
        }
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The executor configuration in use.
    pub fn cfg(&self) -> &ExecutorConfig {
        &self.cfg
    }
}

impl<'f, F> FamilyRunner<'f, F> {
    /// `E_bit`: the fully correct execution in which every process proposes
    /// `bit` (Table 1's `E_0`, plus its all-ones sibling).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (protocol bugs).
    pub fn e0<P>(&self, bit: Bit) -> Result<Execution<Bit, Bit, P::Msg>, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
    {
        self.e0_with(bit, FullTrace::new())
    }

    /// [`FamilyRunner::e0`] recorded by a caller's [`TraceSink`].
    pub(crate) fn e0_with<P, S>(&self, bit: Bit, sink: S) -> Result<S::Output, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
        S: TraceSink<P>,
    {
        Scenario::config(&self.cfg)
            .protocol(self.factory)
            .uniform_input(bit)
            .run_with_sink(sink)
    }

    /// `E_B(k)_bit`: all processes propose `bit`; group `B` is isolated from
    /// round `k`; `A ∪ C` are correct.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn isolated_b<P>(&self, k: Round, bit: Bit) -> Result<Execution<Bit, Bit, P::Msg>, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
    {
        self.isolated_b_with(k, bit, FullTrace::new())
    }

    /// [`FamilyRunner::isolated_b`] recorded by a caller's [`TraceSink`] —
    /// e.g. an [`OutlineSink`](ba_sim::OutlineSink) keeping `B`'s inboxes,
    /// the form the falsifier examines and its parallel Lemma 4 scan holds.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub(crate) fn isolated_b_with<P, S>(
        &self,
        k: Round,
        bit: Bit,
        sink: S,
    ) -> Result<S::Output, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
        S: TraceSink<P>,
    {
        self.isolated(self.partition.b.clone(), k, bit, sink)
    }

    /// `E_C(k)_bit`: all processes propose `bit`; group `C` is isolated from
    /// round `k`; `A ∪ B` are correct.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn isolated_c<P>(&self, k: Round, bit: Bit) -> Result<Execution<Bit, Bit, P::Msg>, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
    {
        self.isolated_c_with(k, bit, FullTrace::new())
    }

    /// [`FamilyRunner::isolated_c`] recorded by a caller's [`TraceSink`].
    pub(crate) fn isolated_c_with<P, S>(
        &self,
        k: Round,
        bit: Bit,
        sink: S,
    ) -> Result<S::Output, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
        S: TraceSink<P>,
    {
        self.isolated(self.partition.c.clone(), k, bit, sink)
    }

    /// The protocol factory in use.
    pub(crate) fn factory(&self) -> &'f F {
        self.factory
    }

    fn isolated<P, S>(
        &self,
        group: BTreeSet<ProcessId>,
        k: Round,
        bit: Bit,
        sink: S,
    ) -> Result<S::Output, SimError>
    where
        P: Protocol<Input = Bit, Output = Bit>,
        F: Fn(ProcessId) -> P,
        S: TraceSink<P>,
    {
        Scenario::config(&self.cfg)
            .protocol(self.factory)
            .uniform_input(bit)
            .adversary(Adversary::isolation(group, k))
            .run_with_sink(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::Keybook;
    use ba_protocols::DolevStrong;

    fn runner_cfg(n: usize, t: usize) -> ExecutorConfig {
        ExecutorConfig::new(n, t)
            .with_stop_when_quiescent(false)
            .with_max_rounds(12)
    }

    #[test]
    fn paper_default_partition_shape() {
        let p = Partition::paper_default(16, 8);
        assert_eq!(p.b().len(), 2);
        assert_eq!(p.c().len(), 2);
        assert_eq!(p.a().len(), 12);
        assert!(p.a().contains(&ProcessId(0)));
        assert!(p.c().contains(&ProcessId(15)));
    }

    #[test]
    fn small_t_partition_uses_singletons() {
        let p = Partition::paper_default(5, 2);
        assert_eq!(p.b().len(), 1);
        assert_eq!(p.c().len(), 1);
    }

    #[test]
    #[should_panic(expected = "t = 1 < 2")]
    fn t_one_is_rejected() {
        let _ = Partition::paper_default(5, 1);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_groups_are_rejected() {
        let b: BTreeSet<_> = [ProcessId(1)].into();
        let c: BTreeSet<_> = [ProcessId(1)].into();
        let a: BTreeSet<_> = [ProcessId(0), ProcessId(2)].into();
        let _ = Partition::new(3, 2, a, b, c);
    }

    #[test]
    fn family_executions_are_valid_and_isolated() {
        let (n, t) = (6, 2);
        let cfg = runner_cfg(n, t);
        let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero);
        let partition = Partition::paper_default(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition);

        let e0 = runner.e0::<DolevStrong<Bit>>(Bit::Zero).unwrap();
        e0.validate().unwrap();
        assert!(e0.all_correct_decided(Bit::Zero));

        let eb = runner
            .isolated_b::<DolevStrong<Bit>>(Round(2), Bit::Zero)
            .unwrap();
        eb.validate().unwrap();
        // B is faulty and receives nothing from outside from round 2 on.
        let b_member = *runner.partition().b().iter().next().unwrap();
        assert!(!eb.is_correct(b_member));
        let frag = &eb.record(b_member).fragments[1];
        assert!(frag
            .received
            .keys()
            .all(|s| runner.partition().b().contains(s)));
    }

    #[test]
    fn isolation_from_round_one_blinds_the_group_entirely() {
        let (n, t) = (6, 2);
        let cfg = runner_cfg(n, t);
        let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::Zero);
        let partition = Partition::paper_default(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition);
        let ec = runner
            .isolated_c::<DolevStrong<Bit>>(Round(1), Bit::One)
            .unwrap();
        let c_member = *runner.partition().c().iter().next().unwrap();
        for frag in &ec.record(c_member).fragments {
            assert!(frag
                .received
                .keys()
                .all(|s| runner.partition().c().contains(s)));
        }
        // C never extracts the sender's value and decides the default 0,
        // while A ∪ B decide the broadcast value 1.
        assert_eq!(ec.decision_of(c_member), Some(&Bit::Zero));
        assert_eq!(ec.decision_of(ProcessId(0)), Some(&Bit::One));
    }

    #[test]
    fn figure_1_divergence_anatomy() {
        // Paper Figure 1: E_G(R) proceeds identically to E_0 up to round R;
        // the isolated group's *sending* behavior may first deviate in round
        // R + 1, and the outside world's in round R + 2.
        let (n, t) = (6, 2);
        let cfg = runner_cfg(n, t);
        let factory = DolevStrong::factory(Keybook::new(n), ProcessId(0), Bit::One);
        let partition = Partition::paper_default(n, t);
        let runner = FamilyRunner::new(cfg, &factory, partition.clone());
        let e0 = runner.e0::<DolevStrong<Bit>>(Bit::Zero).unwrap();
        let r = Round(1);
        let eb = runner.isolated_b::<DolevStrong<Bit>>(r, Bit::Zero).unwrap();
        for pid in ProcessId::all(n) {
            if let Some(div) = e0.first_send_divergence(&eb, pid) {
                if partition.b().contains(&pid) {
                    assert!(div >= r.next(), "{pid} diverged at {div}, before R+1");
                } else {
                    assert!(div >= Round(r.0 + 2), "{pid} diverged at {div}, before R+2");
                }
            }
        }
    }
}
