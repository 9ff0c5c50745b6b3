//! Self-contained deterministic pseudo-randomness for the kdom workspace.
//!
//! Every randomized component of the reproduction — graph generators,
//! the synchronizer-α delay model, the fault injector, the seeded-loop
//! property tests — draws from this crate, so runs are reproducible from
//! a single `u64` seed with **no external dependencies**. The generator
//! is xoshiro256++ (Blackman–Vigna), seeded through SplitMix64; both are
//! public-domain algorithms with well-studied statistical quality, far
//! more than sufficient for simulation workloads.
//!
//! The API mirrors the subset of `rand` the workspace used to consume
//! (`seed_from_u64`, `random_range`, `random_bool`), plus slice
//! shuffling and distinct-index sampling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A seedable deterministic random number generator (xoshiro256++).
///
/// Equal seeds produce equal streams on every platform; the generator
/// never allocates and is `Clone`, so simulations can fork deterministic
/// sub-streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// Uniform value in `[0, n)` (Lemire's multiply-shift reduction).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform sample from an integer range, e.g. `rng.random_range(0..n)`
    /// or `rng.random_range(1..=max)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        // 53 high-quality mantissa bits, exactly representable in f64
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn random_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// `m` pairwise-distinct indices drawn uniformly from `0..space`
    /// (Floyd's algorithm; order is not uniform — shuffle if needed).
    ///
    /// Membership lives in a bitset of `space` bits, so the call
    /// allocates `space / 8` bytes besides the `m`-entry result: size
    /// `space` proportionally to `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m > space`.
    pub fn sample_indices(&mut self, space: usize, m: usize) -> Vec<usize> {
        assert!(m <= space, "cannot draw {m} distinct values from {space}");
        let mut chosen = vec![0u64; space.div_ceil(64)];
        let mut out = Vec::with_capacity(m);
        for j in space - m..space {
            let t = self.below(j as u64 + 1) as usize;
            // every earlier pick is below j, so j itself is always free
            let pick = if chosen[t / 64] >> (t % 64) & 1 == 0 {
                t
            } else {
                j
            };
            chosen[pick / 64] |= 1 << (pick % 64);
            out.push(pick);
        }
        out
    }

    /// Forks an independent deterministic sub-stream keyed by `tag`
    /// (used to give each simulated link its own fault stream).
    pub fn fork(&self, tag: u64) -> StdRng {
        let mut base = 0u64;
        for (i, w) in self.s.iter().enumerate() {
            base ^= w.rotate_left(17 * (i as u32 + 1));
        }
        StdRng::seed_from_u64(base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Integer ranges [`StdRng::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled integer type.
    type Out;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut StdRng) -> Self::Out;
}

impl SampleRange for std::ops::Range<usize> {
    type Out = usize;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Out = u64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> u64 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.below(self.end - self.start)
    }
}

impl SampleRange for std::ops::Range<u32> {
    type Out = u32;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> u32 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.below(u64::from(self.end - self.start)) as u32
    }
}

impl SampleRange for std::ops::RangeInclusive<u64> {
    type Out = u64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(hi - lo + 1)
    }
}

impl SampleRange for std::ops::RangeInclusive<usize> {
    type Out = usize;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + rng.below((hi - lo) as u64 + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(5u64..=9);
            assert!((5..=9).contains(&y));
            let z = rng.random_range(0u32..2);
            assert!(z < 2);
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all range values occur");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(0).random_range(4usize..4);
    }

    #[test]
    fn bool_probability_is_roughly_p() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((27_000..33_000).contains(&hits), "{hits} hits for p=0.3");
        assert!((0..1000).all(|_| !rng.random_bool(0.0)));
        assert!((0..1000).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        for (space, m) in [(10, 10), (100, 7), (5000, 100)] {
            let idx = rng.sample_indices(space, m);
            assert_eq!(idx.len(), m);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), m, "indices must be distinct");
            assert!(idx.iter().all(|&i| i < space));
        }
    }

    /// The bitset Floyd's draws exactly what a hash-set Floyd's draws, in
    /// the same order, leaving the stream in the same state.
    #[test]
    fn sample_indices_matches_a_hash_set_floyd() {
        fn reference(rng: &mut StdRng, space: usize, m: usize) -> Vec<usize> {
            let mut chosen = std::collections::HashSet::new();
            (space - m..space)
                .map(|j| {
                    let t = rng.below(j as u64 + 1) as usize;
                    let pick = if chosen.contains(&t) { j } else { t };
                    chosen.insert(pick);
                    pick
                })
                .collect()
        }
        for (space, m, seed) in [(1, 1, 0), (64, 64, 1), (65, 40, 2), (8016, 1000, 3)] {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(a.sample_indices(space, m), reference(&mut b, space, m));
            assert_eq!(a, b, "same number of draws");
        }
    }

    #[test]
    fn forked_streams_differ_by_tag() {
        let rng = StdRng::seed_from_u64(5);
        let mut a = rng.fork(1);
        let mut b = rng.fork(2);
        let mut a2 = rng.fork(1);
        assert_eq!(a.next_u64(), a2.next_u64(), "same tag, same stream");
        assert_ne!(a.next_u64(), b.next_u64(), "tags separate streams");
    }

    #[test]
    fn full_u64_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(2);
        // must not overflow
        let _ = rng.random_range(0u64..=u64::MAX);
    }
}
