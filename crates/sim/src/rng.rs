//! A small, deterministic, dependency-free PRNG.
//!
//! The workspace builds with no external crates (the container has no
//! network registry), so seeded randomness for adversaries, adversary
//! search, and property tests comes from this SplitMix64 generator instead
//! of `rand`. Sequences are stable across platforms and releases of this
//! repository: campaign points and search runs cite seeds, and
//! re-running a seed must reproduce the exact execution.

/// A seeded SplitMix64 pseudo-random generator.
///
/// ```
/// use ba_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits, the mantissa width of f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.next_f64() < p
    }

    /// An integer in `lo..hi` (half-open), uniform up to modulo bias —
    /// at most `width / 2^64` deviation per value, negligible for the
    /// small ranges this repository draws (fault counts, rounds, indices).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform `usize` index in `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_index(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range(lo as u64, hi as u64) as usize
    }

    /// A uniform `f64` in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_f64() * (hi - lo)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!((0..64).all(|_| rng.gen_bool(1.0)));
        assert!((0..64).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..256 {
            let v = rng.gen_range(3, 10);
            assert!((3..10).contains(&v));
            let f = rng.gen_f64(0.25, 0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = SimRng::seed_from_u64(42);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "{heads} heads of 10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_is_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let _ = rng.gen_range(5, 5);
    }
}
