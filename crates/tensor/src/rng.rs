//! Deterministic random streams for replayable experiments.
//!
//! Every stochastic component in the workspace (weight initialization,
//! dropout masks, synthetic corpora, digit rendering) draws from a
//! [`SeedableStream`] so that a fixed seed reproduces a run bit-for-bit —
//! a requirement for the figure-regeneration harness.
//!
//! The generator is a self-contained xoshiro256** seeded through
//! splitmix64 (no external dependency; the build container has no
//! network access to pull `rand`).

/// A seeded random stream with the handful of sampling helpers the
/// workspace needs.
///
/// # Example
///
/// ```
/// use zskip_tensor::SeedableStream;
///
/// let mut a = SeedableStream::new(42);
/// let mut b = SeedableStream::new(42);
/// assert_eq!(a.uniform(-1.0, 1.0), b.uniform(-1.0, 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct SeedableStream {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless splitmix64 finalizer: mixes `x` into a well-distributed
/// 64-bit value. The workspace's canonical integer hash — use this for
/// hash-based placement instead of re-deriving the constants.
pub fn mix64(x: u64) -> u64 {
    let mut state = x;
    splitmix64(&mut state)
}

impl SeedableStream {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        Self {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child stream; `label` decorrelates children
    /// created from the same parent seed.
    pub fn child(&mut self, label: u64) -> Self {
        let s = self.bits() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(s)
    }

    /// Raw 64-bit sample (xoshiro256**).
    pub fn bits(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.bits() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        // Work in f64 so `hi - lo` cannot overflow to infinity for any
        // pair of finite f32 bounds.
        let v = (lo as f64 + self.unit_f64() * (hi as f64 - lo as f64)) as f32;
        // Rounding back to f32 can land exactly on `hi`; fold it back.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.unit_f64().max(f64::EPSILON) as f32;
        let u2 = self.unit_f64() as f32;
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Rejection sampling over the largest multiple of `n` below 2^64
        // keeps the draw exactly uniform.
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.bits();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn coin(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an index from an (unnormalized) non-negative weight table.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weighted_index needs positive total weight"
        );
        let mut draw = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedableStream::new(7);
        let mut b = SeedableStream::new(7);
        for _ in 0..100 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedableStream::new(1);
        let mut b = SeedableStream::new(2);
        let same = (0..32).filter(|_| a.bits() == b.bits()).count();
        assert!(same < 4);
    }

    #[test]
    fn child_streams_are_decorrelated() {
        let mut parent = SeedableStream::new(3);
        let mut c0 = parent.child(0);
        let mut c1 = parent.child(1);
        assert_ne!(c0.bits(), c1.bits());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut s = SeedableStream::new(11);
        for _ in 0..1000 {
            let v = s.uniform(-0.5, 0.25);
            assert!((-0.5..0.25).contains(&v));
        }
    }

    #[test]
    fn uniform_handles_ranges_wider_than_f32_max() {
        // `hi - lo` overflows f32 here; the draw must stay finite, inside
        // the bounds, and non-constant.
        let mut s = SeedableStream::new(23);
        let mut seen_positive = false;
        let mut seen_negative = false;
        for _ in 0..1000 {
            let v = s.uniform(f32::MIN, f32::MAX);
            assert!(v.is_finite());
            assert!((f32::MIN..f32::MAX).contains(&v));
            seen_positive |= v > 0.0;
            seen_negative |= v < 0.0;
        }
        assert!(
            seen_positive && seen_negative,
            "distribution collapsed to one sign"
        );
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut s = SeedableStream::new(13);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| s.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut s = SeedableStream::new(17);
        let w = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[s.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
    }

    #[test]
    fn index_covers_range() {
        let mut s = SeedableStream::new(19);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[s.index(5)] = true;
        }
        assert!(seen.iter().all(|b| *b));
    }
}
