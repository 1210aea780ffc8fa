//! Seeded input generation: one small PRNG and the Zipf key sampler. The
//! program under test never sees the seed, only what these produce.

/// SplitMix64: tiny, fast, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Zipf(s) over keys `0..n`: key `k` has probability ∝ `(k + 1)^-s`.
/// Sampling inverts the precomputed CDF by binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one key");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += ((k + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Probability of key `k`.
    #[cfg(test)]
    pub fn pmf(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_seed_deterministic() {
        let zipf = Zipf::new(32_768, 0.9);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zipf_sampler_matches_its_pmf() {
        let n = 1000;
        let zipf = Zipf::new(n, 0.9);
        let total: f64 = (0..n).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((zipf.pmf(0) / zipf.pmf(9) - 10f64.powf(0.9)).abs() < 1e-9);

        let draws = 400_000;
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Head keys individually, the tail as one mass: each within five
        // binomial standard deviations of its expectation.
        let within = |observed: f64, p: f64| {
            let sd = (draws as f64 * p * (1.0 - p)).sqrt();
            (observed - draws as f64 * p).abs() <= 5.0 * sd
        };
        for (k, &count) in counts.iter().enumerate().take(20) {
            assert!(within(f64::from(count), zipf.pmf(k)), "key {k}");
        }
        let tail: u32 = counts[100..].iter().sum();
        let tail_p: f64 = (100..n).map(|k| zipf.pmf(k)).sum();
        assert!(within(f64::from(tail), tail_p), "tail mass");
    }

    #[test]
    fn normal_draws_have_unit_scale() {
        let mut rng = Rng::new(1);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }
}
