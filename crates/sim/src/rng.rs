//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot use `rand::thread_rng` or anything seeded from the
//! OS: every run must replay bit-identically from its seed. [`SimRng`] is a
//! xoshiro256** generator seeded through splitmix64, the standard
//! construction recommended by the xoshiro authors. It provides exactly the
//! sampling primitives the experiments need; empirical flow-size CDFs build
//! on [`SimRng::f64`] in `clove-workload`.

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
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

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) yields
    /// a well-distributed state because of the splitmix64 expansion.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng { s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)] }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection for unbiased results.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // rejection zone: accept unless low < threshold
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; 1 - f64() is in (0, 1] so ln is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn uniformity_rough_chi_square() {
        // 16 buckets, 64k samples: each bucket ~4096; allow wide tolerance.
        let mut r = SimRng::new(13);
        let mut buckets = [0u32; 16];
        for _ in 0..65_536 {
            buckets[(r.u64() >> 60) as usize] += 1;
        }
        for &b in &buckets {
            assert!((3700..4500).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::new(19);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }
}
