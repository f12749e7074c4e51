//! Deterministic pseudo-random number generation.
//!
//! The simulator needs (a) bit-reproducible runs given a seed, and (b) many
//! *decoupled* streams — one per node and per subsystem — so that adding a
//! node or reordering events never perturbs the random choices of unrelated
//! entities. We implement xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64, the standard recipe, in ~60 lines rather than depending on an
//! external RNG crate in the hot path (see DESIGN.md §1).
//!
//! # Examples
//!
//! ```
//! use peas_des::rng::SimRng;
//!
//! let mut a = SimRng::stream(42, 7);
//! let mut b = SimRng::stream(42, 7);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed+stream => same values
//! ```

use crate::time::SimDuration;

/// SplitMix64 step; used to expand seeds into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Streams created with different `(seed, stream)` pairs are statistically
/// independent for simulation purposes. All sampling helpers consume a fixed
/// number of raw outputs per call, keeping streams reproducible across
/// refactorings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a master seed (stream 0).
    pub fn new(seed: u64) -> SimRng {
        SimRng::stream(seed, 0)
    }

    /// Creates the `stream`-th decoupled generator for a master seed.
    ///
    /// Use one stream per node / subsystem so entities do not share state.
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        // Mix the stream id in via a second SplitMix64 pass so that
        // (seed, 1) and (seed + 1, 0) do not collide.
        let mut sm = seed ^ splitmix64(&mut { stream.wrapping_mul(0xA076_1D64_78BD_642F) });
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s = [
                0x1,
                0x9E3779B97F4A7C15,
                0xBF58476D1CE4E5B9,
                0x94D049BB133111EB,
            ];
        }
        SimRng { s }
    }

    /// Derives a child generator, advancing `self` once.
    ///
    /// Useful when a component owns a generator and wants to hand
    /// reproducible sub-streams to dynamically created entities.
    pub fn split(&mut self) -> SimRng {
        let seed = self.next_u64();
        SimRng::stream(seed, 0x5EED_5EED)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }

    /// Advances the stream by exactly `n` raw outputs, discarding them:
    /// afterwards the generator is where `n` calls of
    /// [`SimRng::next_u64`] would have left it.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One xoshiro256++ transition, returning the output of the state it
    /// leaves; the only code that moves the stream.
    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` by Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's widening-multiply method: accept iff the low half clears
        // `2^64 mod n`, which removes the modulo bias.
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given `rate` (events/sec),
    /// in seconds. This is the PEAS sleeping-time distribution
    /// `f(ts) = λ e^{-λ ts}` from Section 2.1 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp_secs(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive and finite, got {rate}"
        );
        // 1 - U is in (0, 1], so ln never sees zero.
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Exponentially distributed [`SimDuration`] with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp_duration(&mut self, rate: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.exp_secs(rate))
    }

    /// Uniform [`SimDuration`] in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "invalid duration range");
        let span = hi.as_nanos() - lo.as_nanos();
        if span == 0 {
            return lo;
        }
        SimDuration::from_nanos(lo.as_nanos() + self.below(span))
    }

    /// Standard-normal sample via Box–Muller (consumes two raw outputs).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1]
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_reproducible() {
        let mut a = SimRng::stream(123, 4);
        let mut b = SimRng::stream(123, 4);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::stream(123, 0);
        let mut b = SimRng::stream(123, 1);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0, "streams should be decoupled");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = SimRng::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::new(11);
        let rate = 0.02; // PEAS λd
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exp_secs(rate)).sum::<f64>() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn exponential_is_memoryless_in_distribution() {
        // P(X > s + t | X > s) == P(X > t): compare empirical tails.
        let mut rng = SimRng::new(13);
        let rate = 0.1;
        let samples: Vec<f64> = (0..200_000).map(|_| rng.exp_secs(rate)).collect();
        let tail = |t: f64| samples.iter().filter(|&&x| x > t).count() as f64;
        let p_gt_10 = tail(10.0) / samples.len() as f64;
        let p_gt_15_given_5 = tail(15.0) / tail(5.0);
        assert!(
            (p_gt_10 - p_gt_15_given_5).abs() < 0.02,
            "memorylessness violated: {p_gt_10} vs {p_gt_15_given_5}"
        );
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::new(19);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.1)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn choose_on_empty_is_none() {
        let mut rng = SimRng::new(29);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn split_produces_decoupled_child() {
        let mut parent = SimRng::new(31);
        let mut child = parent.split();
        let a = parent.next_u64();
        let b = child.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn range_duration_bounds() {
        let mut rng = SimRng::new(37);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1000 {
            let d = rng.range_duration(lo, hi);
            assert!(d >= lo && d < hi);
        }
        assert_eq!(rng.range_duration(lo, lo), lo);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn exp_rejects_zero_rate() {
        let _ = SimRng::new(1).exp_secs(0.0);
    }
}
