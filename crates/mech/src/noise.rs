//! The noise stream of Proposition 3.1, written once.
//!
//! A strategy row with budget `η` gets Laplace noise of scale `1/η`
//! (variance `2/η²`, pure ε-DP by Theorem 2.1) or Gaussian noise of
//! variance `2 ln(2/δ)/η²` ((ε, δ)-DP by Theorem 2.2). Every fact that
//! differs between the two mechanisms — the variance, the Step-2 objective
//! factor, the per-draw parameter and the sampler — is one `match` on
//! [`PrivacyLevel`] in this module. Sensitivity is accounted for in the
//! budgets (Step 2, in `dp-opt`), not here.
//!
//! Releases draw through [`perturb_observations_into`]: rows are noised in
//! [`NOISE_CHUNK`]-row chunks, each from its own [`StdRng`] substream
//! seeded sequentially from the caller's RNG, so the output is a pure
//! function of that RNG's state whatever the thread count. Within a chunk,
//! each run of rows of one group is drawn by a batched sampler
//! (`add_laplace_into`, `add_gaussian_into`) that consumes the RNG stream
//! value-for-value like the scalar [`sample_laplace`] /
//! [`crate::sample_gaussian`] in a loop, so batching changes no output
//! byte.

use crate::{sample_laplace, PrivacyLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use rayon::prelude::*;

/// Noise chunk size: one RNG substream (and one unit of parallel work) per
/// this many observation rows. Public because it is part of the replay
/// contract of [`perturb_observations`] (and because the `hot_path` bench
/// replicates the chunking to prove byte identity against a reference
/// implementation).
pub const NOISE_CHUNK: usize = 4096;

/// The mechanism's constant factor relating the Step-2 objective
/// `Σ s_r/η_r²` to an output variance.
pub fn mechanism_factor(privacy: PrivacyLevel) -> f64 {
    match privacy {
        PrivacyLevel::Pure { .. } => 2.0,
        PrivacyLevel::Approx { delta, .. } => 2.0 * (2.0 / delta).ln(),
    }
}

/// Noise variance of a row with budget `eps_i` under the level's mechanism.
pub fn noise_variance(privacy: PrivacyLevel, eps_i: f64) -> f64 {
    match privacy {
        PrivacyLevel::Pure { .. } => 2.0 / (eps_i * eps_i),
        PrivacyLevel::Approx { delta, .. } => 2.0 * (2.0 / delta).ln() / (eps_i * eps_i),
    }
}

/// Adds one Laplace sample of the given `scale` to each element of
/// `values`, in index order.
fn add_laplace_into<R: Rng + ?Sized>(rng: &mut R, scale: f64, values: &mut [f64]) {
    for v in values.iter_mut() {
        *v += sample_laplace(rng, scale);
    }
}

/// Adds one `N(0, sigma²)` sample to each element of `values`, in index
/// order. The distribution is constructed (and validated) once for the
/// whole batch; each draw then performs the identical Box–Muller transform
/// as [`crate::sample_gaussian`].
///
/// # Panics
/// Panics if `sigma` is negative or not finite, exactly as
/// [`crate::sample_gaussian`] does per value.
fn add_gaussian_into<R: Rng + ?Sized>(rng: &mut R, sigma: f64, values: &mut [f64]) {
    let normal = Normal::new(0.0, sigma).expect("sigma must be finite and non-negative");
    for v in values.iter_mut() {
        *v += normal.sample(rng);
    }
}

/// Per-group noise parameters, precomputed once per release so the hot
/// perturbation loop never re-derives them per value: the Laplace scale
/// `1/η_r` (pure DP) or the Gaussian `σ_r` (approximate DP) of every group,
/// with `0.0` marking a withheld (zero-budget) group.
#[derive(Debug, Clone)]
pub struct NoiseParams {
    privacy: PrivacyLevel,
    per_group: Vec<f64>,
}

impl Default for NoiseParams {
    /// Parameters for no groups, to be filled by
    /// [`NoiseParams::compute_into`].
    fn default() -> NoiseParams {
        NoiseParams {
            privacy: PrivacyLevel::Pure { epsilon: 1.0 },
            per_group: Vec::new(),
        }
    }
}

impl NoiseParams {
    /// Calibrates parameters for `group_budgets` under `privacy`.
    pub fn compute(privacy: PrivacyLevel, group_budgets: &[f64]) -> NoiseParams {
        let mut params = NoiseParams::default();
        params.compute_into(privacy, group_budgets);
        params
    }

    /// [`NoiseParams::compute`] into `self`, reusing its buffer.
    pub fn compute_into(&mut self, privacy: PrivacyLevel, group_budgets: &[f64]) {
        self.privacy = privacy;
        self.per_group.clear();
        self.per_group.extend(group_budgets.iter().map(|&eta| {
            if eta > 0.0 {
                match privacy {
                    PrivacyLevel::Pure { .. } => 1.0 / eta,
                    PrivacyLevel::Approx { .. } => noise_variance(privacy, eta).sqrt(),
                }
            } else {
                0.0
            }
        }));
    }

    /// Adds one calibrated draw for `group` to each value of `run`, in
    /// index order — or, for a withheld group, zeroes `run` and draws
    /// nothing.
    fn add_into<R: Rng + ?Sized>(&self, rng: &mut R, group: u32, run: &mut [f64]) {
        let p = self.per_group[group as usize];
        if p > 0.0 {
            match self.privacy {
                PrivacyLevel::Pure { .. } => add_laplace_into(rng, p, run),
                PrivacyLevel::Approx { .. } => add_gaussian_into(rng, p, run),
            }
        } else {
            // Unreleased rows: withhold the exact values (and draw nothing).
            run.fill(0.0);
        }
    }
}

/// Adds calibrated noise to every row with a positive group budget,
/// chunk-parallel with deterministic per-chunk substreams. Rows of groups
/// with budget 0 are **withheld** — zeroed, not passed through — so a
/// recovery that forgets to honour its zero weights can never leak exact
/// private values.
///
/// Public so oracle tests can replay the exact noise a release drew: the
/// chunk seeds are the first `⌈m/NOISE_CHUNK⌉` `u64`s of `rng` (at least
/// one, even for empty observations), and each chunk's noise comes from an
/// [`StdRng`] seeded with its seed.
///
/// This is a convenience wrapper over [`perturb_observations_into`] that
/// allocates fresh buffers; the release path reuses pooled scratch instead.
pub fn perturb_observations<R: Rng + ?Sized>(
    observations: &[f64],
    row_groups: &[u32],
    group_budgets: &[f64],
    privacy: PrivacyLevel,
    rng: &mut R,
) -> Vec<f64> {
    let params = NoiseParams::compute(privacy, group_budgets);
    let mut noisy = Vec::new();
    let mut seeds = Vec::new();
    perturb_observations_into(
        observations,
        row_groups,
        &params,
        rng,
        &mut noisy,
        &mut seeds,
    );
    noisy
}

/// The fused, in-place form of [`perturb_observations`]: copies
/// `observations` into the reusable `noisy` buffer and perturbs it in one
/// pass, with per-chunk batched samplers. `seeds` is the reusable substream
/// seed buffer. The RNG stream is consumed value-for-value identically to
/// per-value sampling — same seed layout, same draws per row, no draws for
/// withheld rows — so outputs are byte-identical per seed.
pub fn perturb_observations_into<R: Rng + ?Sized>(
    observations: &[f64],
    row_groups: &[u32],
    params: &NoiseParams,
    rng: &mut R,
    noisy: &mut Vec<f64>,
    seeds: &mut Vec<u64>,
) {
    noisy.clear();
    noisy.extend_from_slice(observations);
    let chunks = noisy.len().div_ceil(NOISE_CHUNK).max(1);
    // Substream seeds are drawn sequentially from the caller's RNG, so the
    // result depends only on its state — never on thread scheduling.
    seeds.clear();
    seeds.extend((0..chunks).map(|_| rng.gen::<u64>()));
    let seeds = &seeds[..];
    // Chunks are independent substreams, so they can run in any order on any
    // thread.
    noisy
        .par_chunks_mut(NOISE_CHUNK)
        .enumerate()
        .for_each(|(c, chunk)| {
            let mut sub = StdRng::seed_from_u64(seeds[c]);
            let base = c * NOISE_CHUNK;
            perturb_chunk(
                chunk,
                &row_groups[base..base + chunk.len()],
                params,
                &mut sub,
            );
        });
    #[cfg(debug_assertions)]
    assert_chunk_pass_covered_every_row(observations, row_groups, params, noisy);
}

/// Perturbs one chunk by walking its runs of equal group id (row groups are
/// long consecutive runs by construction) and drawing each run in one
/// batched call.
fn perturb_chunk(chunk: &mut [f64], groups: &[u32], params: &NoiseParams, sub: &mut StdRng) {
    let mut i = 0;
    while i < chunk.len() {
        let g = groups[i];
        let mut j = i + 1;
        while j < chunk.len() && groups[j] == g {
            j += 1;
        }
        params.add_into(sub, g, &mut chunk[i..j]);
        i = j;
    }
}

/// Debug-build guard against scratch reuse leaking stale or exact data: a
/// skipped row would either carry a previous release's value (caught for
/// withheld rows, which must be exactly zero) or the unperturbed exact
/// value plus nothing (caught by re-checking length and finiteness — noise
/// is always finite, so a noised row is finite whenever its observation
/// was).
#[cfg(debug_assertions)]
fn assert_chunk_pass_covered_every_row(
    observations: &[f64],
    row_groups: &[u32],
    params: &NoiseParams,
    noisy: &[f64],
) {
    assert_eq!(noisy.len(), observations.len());
    for (i, (&v, &g)) in noisy.iter().zip(row_groups).enumerate() {
        if params.per_group[g as usize] > 0.0 {
            assert!(
                v.is_finite() || !observations[i].is_finite(),
                "noised row {i} is not finite"
            );
        } else {
            assert!(v == 0.0, "withheld row {i} leaked value {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_gaussian;
    use crate::testutil::ConstRng;

    const PURE: PrivacyLevel = PrivacyLevel::Pure { epsilon: 1.0 };
    const APPROX: PrivacyLevel = PrivacyLevel::Approx {
        epsilon: 1.0,
        delta: 0.01,
    };

    #[test]
    fn variance_formulas() {
        assert!((noise_variance(PURE, 2.0) - 0.5).abs() < 1e-15);
        let expected = 2.0 * (200.0_f64).ln() / 4.0;
        assert!((noise_variance(APPROX, 2.0) - expected).abs() < 1e-12);
        // The Step-2 factor is the variance at η = 1.
        assert_eq!(mechanism_factor(PURE), noise_variance(PURE, 1.0));
        assert_eq!(mechanism_factor(APPROX), noise_variance(APPROX, 1.0));
    }

    #[test]
    fn empirical_variance_tracks_formula() {
        // The mean square of each mechanism's draws at budget η approaches
        // noise_variance(η).
        let n = 200_000;
        let eta = 0.5;
        for privacy in [PURE, APPROX] {
            let mut values = vec![0.0; n];
            let params = NoiseParams::compute(privacy, &[eta]);
            params.add_into(&mut StdRng::seed_from_u64(42), 0, &mut values);
            let ms = values.iter().map(|v| v * v).sum::<f64>() / n as f64;
            let expected = noise_variance(privacy, eta);
            assert!(
                (ms - expected).abs() / expected < 0.05,
                "{privacy:?}: empirical {ms} vs formula {expected}"
            );
        }
    }

    proptest::proptest! {
        /// The batched samplers add to each value exactly the scalar
        /// sampler's draw, bit-for-bit, for arbitrary lengths, seeds and
        /// parameters.
        #[test]
        fn batched_samplers_match_the_scalar_stream(
            seed in 0u64..10_000,
            len in 0usize..300,
            scale in 0.01f64..50.0,
        ) {
            let base: Vec<f64> = (0..len).map(|i| (i as f64) * 0.73 - 40.0).collect();

            let mut added = base.clone();
            add_laplace_into(&mut StdRng::seed_from_u64(seed), scale, &mut added);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..len {
                proptest::prop_assert_eq!(added[i], base[i] + sample_laplace(&mut rng, scale));
            }

            let mut added = base.clone();
            add_gaussian_into(&mut StdRng::seed_from_u64(seed), scale, &mut added);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..len {
                proptest::prop_assert_eq!(added[i], base[i] + sample_gaussian(&mut rng, scale));
            }
        }
    }

    #[test]
    fn batched_laplace_is_finite_at_uniform_edges() {
        // next_u64 = 0 pins every uniform draw to 0.0, i.e. u = −0.5 — the
        // ln(0) edge the clamped sampler must survive.
        let mut out = vec![0.0; 8];
        add_laplace_into(&mut ConstRng(0), 1.0, &mut out);
        for &v in &out {
            assert!(v.is_finite());
            assert_eq!(v, -f64::MIN_POSITIVE.ln());
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_sigma_panics_like_the_scalar_sampler() {
        add_gaussian_into(&mut StdRng::seed_from_u64(0), -1.0, &mut [0.0]);
    }

    #[test]
    fn chunked_pass_matches_per_value_scalar_draws() {
        // Across chunk boundaries, with a withheld group in the middle, the
        // pass draws each row exactly what the scalar samplers draw from
        // its chunk's substream, and zeroes the withheld rows.
        let len = 2 * NOISE_CHUNK + 5;
        let observations: Vec<f64> = (0..len).map(|i| (i % 23) as f64).collect();
        let row_groups: Vec<u32> = (0..len).map(|i| (i * 3 / len) as u32).collect();
        let group_budgets = [0.5, 0.0, 1.25];
        for privacy in [PURE, APPROX] {
            let noisy = perturb_observations(
                &observations,
                &row_groups,
                &group_budgets,
                privacy,
                &mut StdRng::seed_from_u64(5),
            );
            let mut rng = StdRng::seed_from_u64(5);
            let seeds: Vec<u64> = (0..3).map(|_| rng.gen()).collect();
            for (c, chunk) in noisy.chunks(NOISE_CHUNK).enumerate() {
                let mut sub = StdRng::seed_from_u64(seeds[c]);
                for (k, &v) in chunk.iter().enumerate() {
                    let i = c * NOISE_CHUNK + k;
                    let eta = group_budgets[row_groups[i] as usize];
                    let expected = if eta == 0.0 {
                        0.0
                    } else if privacy == PURE {
                        observations[i] + sample_laplace(&mut sub, 1.0 / eta)
                    } else {
                        let sigma = noise_variance(privacy, eta).sqrt();
                        observations[i] + sample_gaussian(&mut sub, sigma)
                    };
                    assert_eq!(v, expected, "{privacy:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn fused_perturbation_matches_wrapper_across_shrinking_buffers() {
        // Reuse one (noisy, seeds) pair across perturbations of very
        // different lengths — including shrinking from multi-chunk to tiny
        // and an empty vector (which still draws one seed) — and compare
        // each against the allocating wrapper.
        let mut noisy = Vec::new();
        let mut seeds = Vec::new();
        for (seed, len) in [(11u64, 3 * NOISE_CHUNK + 17), (12, 5), (13, 0), (14, 100)] {
            let observations: Vec<f64> = (0..len).map(|i| (i % 23) as f64).collect();
            let row_groups: Vec<u32> = (0..len).map(|i| (i * 3 / len.max(1)) as u32).collect();
            let group_budgets = [0.5, 0.0, 1.25];
            let params = NoiseParams::compute(PURE, &group_budgets);
            let mut rng = StdRng::seed_from_u64(seed);
            perturb_observations_into(
                &observations,
                &row_groups,
                &params,
                &mut rng,
                &mut noisy,
                &mut seeds,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh =
                perturb_observations(&observations, &row_groups, &group_budgets, PURE, &mut rng);
            assert_eq!(noisy, fresh, "len {len}");
            // Both paths must have consumed the identical number of RNG
            // words from the caller (the seed draws).
            assert_eq!(seeds.len(), len.div_ceil(NOISE_CHUNK).max(1));
        }
    }
}
