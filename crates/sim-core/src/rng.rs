//! A small, fully deterministic random number generator.
//!
//! The simulator needs reproducible pseudo-randomness (packet arrival
//! jitter, scheduler tie-breaks, sampling-skid draws). We use
//! xoshiro256**, seeded through SplitMix64, implemented locally so that
//! simulation results never change underneath us when an external RNG
//! crate rolls a new version.

use serde::{Deserialize, Serialize};

/// Deterministic PRNG (xoshiro256** seeded via SplitMix64).
///
/// Two `SimRng`s created from the same seed produce identical streams; the
/// full simulator is therefore replayable from a single `u64` seed.
///
/// # Example
///
/// ```
/// use sim_core::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion guarantees a non-zero xoshiro state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream so adding a draw in one component does not
    /// perturb another.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method: unbiased and fast.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                // Fast path: no bias possible.
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean; used for
    /// inter-arrival jitter. Returns 0 for a non-positive mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds look identical");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
        assert_ne!(x, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SimRng::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SimRng::new(13);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean} far from 10");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_gives_independent_streams() {
        let mut parent = SimRng::new(31);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn range_bounds() {
        let mut r = SimRng::new(37);
        for _ in 0..1000 {
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }
}
