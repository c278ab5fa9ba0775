//! The Laplace sampler of the Laplace mechanism (Theorem 2.1 of the paper).

use rand::Rng;

/// Samples from the Laplace distribution with location 0 and the given
/// `scale` (density `exp(−|x|/scale) / (2·scale)`), via inverse-CDF
/// transform sampling. Variance is `2·scale²`. Every sample is finite.
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    // u is uniform in [-0.5, 0.5): the *closed* lower bound makes
    // 1 − 2|u| = 0 reachable (u = −0.5, probability 2⁻⁵³), so the log
    // argument is clamped to the smallest positive normal. Every other
    // reachable argument is at least 2⁻⁵² ≫ MIN_POSITIVE, so the clamp is
    // the identity for them and changes no other sample.
    let u: f64 = rng.gen::<f64>() - 0.5;
    if u == 0.0 {
        return 0.0;
    }
    let magnitude = (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
    -scale * magnitude.copysign(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_symmetric_and_zero_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_laplace(&mut rng, 1.0)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sample_tail_behaviour() {
        // P(|X| > t·scale) = exp(−t); check roughly at t = 2.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let count = (0..n)
            .filter(|_| sample_laplace(&mut rng, 1.0).abs() > 2.0)
            .count();
        let p = count as f64 / n as f64;
        let expected = (-2.0_f64).exp();
        assert!((p - expected).abs() < 0.01, "p {p} vs {expected}");
    }

    #[test]
    fn scale_scales_linearly() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let spread: f64 = (0..n)
            .map(|_| sample_laplace(&mut rng, 3.0).abs())
            .sum::<f64>()
            / n as f64;
        // E|X| = scale.
        assert!((spread - 3.0).abs() < 0.1, "E|X| {spread}");
    }

    #[test]
    fn uniform_edge_draws_are_pinned_and_finite() {
        use crate::testutil::ConstRng;
        // next_u64 = 0 → gen::<f64>() = 0.0 → u = −0.5: the draw that made
        // the old sampler return −∞·copysign — now clamped to the largest
        // finite magnitude, |ln(MIN_POSITIVE)|·scale, with the sign of u.
        let v = sample_laplace(&mut ConstRng(0), 2.0);
        assert!(v.is_finite());
        assert_eq!(v, -2.0 * f64::MIN_POSITIVE.ln());
        // next_u64 = 1 << 63 → gen::<f64>() = 0.5 → u = 0.0: the symmetric
        // midpoint maps to exactly zero noise.
        assert_eq!(sample_laplace(&mut ConstRng(1 << 63), 2.0), 0.0);
    }

    #[test]
    fn near_edge_draws_are_unchanged_by_the_clamp() {
        use crate::testutil::ConstRng;
        // The smallest uniform above zero (next_u64 = 1 << 11 → gen = 2⁻⁵³)
        // gives the most extreme draw the old sampler handled; the clamp
        // must be the identity there: ln(1 − 2(½ − 2⁻⁵³)) = ln(2⁻⁵²).
        let v = sample_laplace(&mut ConstRng(1 << 11), 1.0);
        assert_eq!(v, -(2f64.powi(-52).ln()));
    }

    proptest::proptest! {
        #[test]
        fn samples_are_finite(seed in 0u64..1000, scale in 0.01f64..100.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = sample_laplace(&mut rng, scale);
            proptest::prop_assert!(v.is_finite());
        }
    }
}
