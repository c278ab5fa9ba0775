//! The normal sampler of the Gaussian mechanism (Theorem 2.2 of the paper).

use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Samples from the normal distribution with mean 0 and standard deviation
/// `sigma`.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    Normal::new(0.0, sigma)
        .expect("sigma must be finite and non-negative")
        .sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_mean() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| sample_gaussian(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05);
    }
}
