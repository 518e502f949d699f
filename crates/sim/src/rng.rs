//! Deterministic random number generation.
//!
//! All stochastic behaviour in the simulation — workload inter-arrival
//! times, attack scheduling jitter, sensor noise — draws from [`DetRng`]
//! streams. A single experiment seed is forked into independent streams per
//! subsystem so that adding randomness consumption in one subsystem does not
//! perturb another (a classic reproducibility hazard in DES harnesses).
//!
//! The generator is xoshiro256** with SplitMix64 seeding, implemented here
//! so the simulation kernel has no dependency on external RNG crates and its
//! output is stable across toolchain upgrades.

/// A deterministic, forkable pseudo-random number generator.
///
/// Not cryptographically secure — the crypto substrate has its own
/// [HMAC-DRBG](../../cres_crypto/drbg/index.html) for key material.
///
/// # Example
///
/// ```
/// use cres_sim::DetRng;
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut child = a.fork("sensor-noise");
/// assert_ne!(child.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Derives an independent child stream labelled by `tag`.
    ///
    /// Forking mixes a hash of the label into fresh SplitMix64 state, so two
    /// forks with different labels are statistically independent, and the
    /// same `(seed, tag)` pair always produces the same stream.
    pub fn fork(&mut self, tag: &str) -> DetRng {
        // FNV-1a over the tag keeps the derivation deterministic and cheap.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        DetRng::seed_from(self.next_u64() ^ h)
    }

    /// Returns the next 64 random bits (xoshiro256**).
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

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed value in `[low, high)`.
    ///
    /// Uses Lemire-style rejection to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range [{low}, {high})");
        let span = high - low;
        if span.is_power_of_two() {
            return low + (self.next_u64() & (span - 1));
        }
        // Rejection sampling on the top of the range.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return low + (v % span);
            }
        }
    }

    /// Returns a uniformly distributed `usize` in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.range_u64(0, len as u64) as usize
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns an exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrival workloads.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Returns a sample from a normal distribution via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Returns a random permutation of `0..len` (Fisher–Yates).
    pub fn permutation(&mut self, len: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = self.index(i + 1);
            v.swap(i, j);
        }
        v
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_reproducible_and_independent() {
        let mut parent1 = DetRng::seed_from(99);
        let mut parent2 = DetRng::seed_from(99);
        let mut c1 = parent1.fork("bus");
        let mut c2 = parent2.fork("bus");
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = DetRng::seed_from(99);
        let mut other = parent3.fork("net");
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = DetRng::seed_from(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[(r.range_u64(0, 7)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::seed_from(0).range_u64(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from(5);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::seed_from(6);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(20.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DetRng::seed_from(8);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.2, "var was {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = DetRng::seed_from(9);
        let p = r.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // out-of-range probabilities are clamped rather than panicking
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }
}
