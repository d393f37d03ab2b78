//! Deterministic random-number generation for reproducible experiments.
//!
//! Every injection run in the paper reproduction is driven by a single
//! seeded stream so a (seed, campaign) pair always replays the identical
//! trace. The generator is a self-contained xoshiro256++ (public domain
//! algorithm by Blackman & Vigna) seeded through SplitMix64, so results do
//! not depend on `rand`'s version-specific `StdRng` internals.

use crate::time::SimDuration;
use crate::Fnv64;
use std::hash::Hasher;

/// A deterministic pseudo-random generator with cheap substream forking.
///
/// # Examples
///
/// ```
/// use ree_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first SplitMix64 output from state `z`: a bijection on `u64` in
/// which every input bit flips each output bit with probability ≈ ½, so
/// neighbouring inputs land far apart.
pub fn mix64(mut z: u64) -> u64 {
    splitmix64(&mut z)
}

/// The seed named `label` under `root`: the one derivation of every seed
/// in a seed tree. Distinct labels under one root, and one label under
/// distinct roots, give unrelated seeds, so the run windows `derive(..) + i`
/// that start at them do not overlap in practice.
///
/// # Examples
///
/// ```
/// use ree_sim::derive;
/// let cell = derive(20020401, "table7/FTM");
/// assert_ne!(cell, derive(20020401, "table7/Heartbeat ARMOR"));
/// assert_ne!(cell, derive(20020402, "table7/FTM"));
/// assert_eq!(cell, derive(20020401, "table7/FTM"));
/// ```
pub fn derive(root: u64, label: &str) -> u64 {
    let mut fnv = Fnv64::default();
    fnv.write(label.as_bytes());
    mix64(mix64(root) ^ fnv.finish())
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// The raw xoshiro256++ state words — a stable fingerprint of the
    /// stream's position. Two generators with equal state produce
    /// identical futures, so state digests (e.g. model-checker
    /// convergence hashing) can include this to distinguish runs whose
    /// visible state matches but whose randomness has diverged.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent substream tagged by `tag`.
    ///
    /// Forking lets each subsystem (network, per-process machine model,
    /// injector) own its own stream so adding draws in one subsystem does
    /// not perturb another — essential when comparing ablations run for
    /// run.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        let mixed = self.next_u64() ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng::new(mixed)
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[allow(clippy::should_implement_trait)]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire-style rejection to avoid modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform integer in `[lo, hi)` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53-bit precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed sample with the given `rate` (per second),
    /// returned as a duration.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exp_duration(&mut self, rate: f64) -> SimDuration {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        SimDuration::from_secs_f64((-u.ln() / rate).min(1e12))
    }

    /// Uniform duration in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros()))
    }

    /// Normally distributed sample (Box–Muller) with the given mean and
    /// standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Picks an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "weights must be non-empty with positive sum");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimRng {
        /// Fisher–Yates shuffle of a slice.
        fn shuffle<T>(&mut self, slice: &mut [T]) {
            for i in (1..slice.len()).rev() {
                let j = self.index(i + 1);
                slice.swap(i, j);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent_of_later_draws() {
        let mut parent1 = SimRng::new(9);
        let mut parent2 = SimRng::new(9);
        let mut child1 = parent1.fork(3);
        let mut child2 = parent2.fork(3);
        // Drawing extra numbers from one parent must not affect its child.
        let _ = parent1.next_u64();
        for _ in 0..16 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_roughly_matches_rate() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp_duration(0.5).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} should be near 2.0");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(19);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03);
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SimRng::new(23);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
