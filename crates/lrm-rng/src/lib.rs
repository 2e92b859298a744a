//! Deterministic pseudo-random numbers with zero dependencies.
//!
//! The workspace needs randomness in the synthetic dataset generators
//! (`lrm-datasets`) and in seeded random inputs across the test suites.
//! This crate provides a small, reproducible generator —
//! **xoshiro256++** (Blackman & Vigna) seeded through **SplitMix64** —
//! so the whole repository builds without the `rand` crate and every
//! random sequence is stable across platforms and releases.

/// A seeded xoshiro256++ generator.
///
/// The same seed always yields the same sequence; distinct seeds yield
/// statistically independent streams for any practical purpose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion guarantees a non-zero xoshiro state even
        // for seed 0 and decorrelates nearby seeds.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64: empty range");
        // Widening-multiply rejection (Lemire); bias-free.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`. `n` must be non-zero.
    pub fn range_usize(&mut self, n: usize) -> usize {
        self.range_u64(n as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A vector of `len` uniform doubles in `[lo, hi)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.range_f64(lo, hi)).collect()
    }

    /// A vector of `len` uniform bytes.
    pub fn vec_u8(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// An `f64` with fully random bits — may be subnormal, infinite, or
    /// NaN. Used to exercise lossless codecs over the entire IEEE-754
    /// domain.
    pub fn any_f64_bits(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng64::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(first.iter().any(|&v| v != 0));
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut r = Rng64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_is_bounded_and_covers() {
        let mut r = Rng64::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range_u64(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_f64_respects_bounds() {
        let mut r = Rng64::new(9);
        for _ in 0..1000 {
            let v = r.range_f64(-3.0, 17.0);
            assert!((-3.0..17.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::new(1).range_u64(0);
    }
}
