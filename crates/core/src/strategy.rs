//! The unified strategy layer: one noise/recovery engine for every release
//! pipeline in this crate.
//!
//! Before this module existed the paper's Figure-3 pipeline was implemented
//! three separate times — a dense-matrix path ([`crate::framework`]), a
//! structured Fourier marginal path ([`crate::release`]) and a bespoke
//! range-query path ([`crate::range`]) — each with its own budget solve,
//! noise loop and recovery. [`StrategyOperator`] abstracts what actually
//! differs between strategies:
//!
//! 1. the **group structure** (`C_r`, `s_r` per group and a group id per
//!    observation row) feeding the Step-2 budget optimizer of `dp-opt`, and
//! 2. the **recovery map** from noisy observations back to workload
//!    answers — generalized least squares, carried out in diagonal
//!    Fourier-coefficient space (marginal strategies, Section 4.3), in
//!    closed form through the Haar diagonalization (identity, tree and
//!    wavelet range strategies), or by matrix-free conjugate gradients
//!    over a [`dp_linalg::LinearOperator`] (sketches only).
//!
//! [`ReleaseEngine`] owns everything shared: solving for uniform/optimal
//! budgets, validating the achieved ε (Proposition 3.1), calibrating and
//! drawing noise (parallelized over observation chunks with deterministic
//! per-chunk substreams), and delegating recovery to the strategy.

use crate::CoreError;
use dp_mech::{
    add_gaussian_into, add_laplace_into, GaussianMechanism, LaplaceMechanism, Neighboring,
    NoiseMechanism, PrivacyLevel,
};
use dp_opt::budget::{
    optimal_group_budgets, optimal_group_budgets_gaussian, uniform_group_budgets,
    uniform_group_budgets_gaussian, BudgetSolution, GroupSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Mutex;

/// Noise-budget allocation mode (Step 2 of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budgeting {
    /// One equal budget per group — what prior work does implicitly.
    Uniform,
    /// The paper's optimal non-uniform allocation (closed form).
    Optimal,
}

/// A strategy, reduced to exactly what the shared engine cannot provide:
/// its group structure and its recovery map.
///
/// Implementations in this crate: the four marginal strategies of
/// [`crate::release`] (identity, workload, Fourier, cluster) and the
/// operator-backed range strategies of [`crate::range`].
pub trait StrategyOperator {
    /// What a recovery produces (consistent marginal tables for marginal
    /// workloads, plain answer vectors for range workloads).
    type Answer;

    /// Number of observation rows `m` (rows of the strategy matrix `S`).
    fn num_rows(&self) -> usize;

    /// Per-group `(C_r, s_r)` for the budget optimizer, in group order.
    fn group_specs(&self) -> &[GroupSpec];

    /// Group id of each observation row (`len == num_rows()`, values index
    /// into [`StrategyOperator::group_specs`]).
    fn row_groups(&self) -> &[u32];

    /// Recovers workload answers from noisy observations.
    ///
    /// `group_weights[r]` is the GLS weight (inverse noise variance) of
    /// group `r`'s rows; groups with budget 0 carry weight 0 and were not
    /// released — the engine zeroes their entries of `noisy` before the
    /// call, so even a weights-unaware recovery cannot leak exact values.
    fn recover(&self, noisy: &[f64], group_weights: &[f64]) -> Result<Self::Answer, CoreError>;
}

impl<T: StrategyOperator + ?Sized> StrategyOperator for Box<T> {
    type Answer = T::Answer;

    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }

    fn group_specs(&self) -> &[GroupSpec] {
        (**self).group_specs()
    }

    fn row_groups(&self) -> &[u32] {
        (**self).row_groups()
    }

    fn recover(&self, noisy: &[f64], group_weights: &[f64]) -> Result<Self::Answer, CoreError> {
        (**self).recover(noisy, group_weights)
    }
}

/// One release produced by the shared engine.
#[derive(Debug, Clone)]
pub struct EngineRelease<A> {
    /// The recovered workload answers.
    pub answer: A,
    /// Per-group noise budgets `η_r` actually used.
    pub group_budgets: Vec<f64>,
    /// Predicted total output variance of the *initial* recovery `R₀` (the
    /// Step-2 objective times the mechanism constant); the GLS recovery of
    /// Step 3 can only improve on it.
    pub predicted_variance: f64,
    /// Achieved ε implied by the budgets (must be ≤ the requested ε).
    pub achieved_epsilon: f64,
}

/// Noise chunk size: one RNG substream (and one unit of parallel work) per
/// this many observation rows. Public because it is part of the replay
/// contract of [`perturb_observations`] (and because the `hot_path` bench
/// replicates the chunking to prove byte identity against a reference
/// implementation).
pub const NOISE_CHUNK: usize = 4096;

/// The shared Steps 2–3 driver over any [`StrategyOperator`].
#[derive(Debug, Clone)]
pub struct ReleaseEngine<S> {
    strategy: S,
}

impl<S: StrategyOperator + Sync> ReleaseEngine<S> {
    /// Wraps a strategy, validating its internal consistency.
    pub fn new(strategy: S) -> Result<Self, CoreError> {
        let rows = strategy.num_rows();
        if strategy.row_groups().len() != rows {
            return Err(CoreError::Shape {
                context: "engine row_groups",
                expected: rows,
                actual: strategy.row_groups().len(),
            });
        }
        let groups = strategy.group_specs().len();
        if let Some(&bad) = strategy
            .row_groups()
            .iter()
            .find(|&&g| g as usize >= groups)
        {
            return Err(CoreError::Shape {
                context: "engine group id",
                expected: groups,
                actual: bad as usize,
            });
        }
        Ok(ReleaseEngine { strategy })
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Solves Step 2 for a privacy level and budgeting mode (no noise drawn).
    pub fn solve_budgets(
        &self,
        privacy: PrivacyLevel,
        budgeting: Budgeting,
    ) -> Result<BudgetSolution, CoreError> {
        privacy.validate()?;
        let eps = privacy.epsilon();
        let specs = self.strategy.group_specs();
        let sol = match (privacy, budgeting) {
            (PrivacyLevel::Pure { .. }, Budgeting::Uniform) => uniform_group_budgets(specs, eps)?,
            (PrivacyLevel::Pure { .. }, Budgeting::Optimal) => optimal_group_budgets(specs, eps)?,
            (PrivacyLevel::Approx { .. }, Budgeting::Uniform) => {
                uniform_group_budgets_gaussian(specs, eps)?
            }
            (PrivacyLevel::Approx { .. }, Budgeting::Optimal) => {
                optimal_group_budgets_gaussian(specs, eps)?
            }
        };
        Ok(sol)
    }

    /// The ε achieved by concrete group budgets: every column of a grouped
    /// strategy has exactly one entry of magnitude `C_r` per group, so the
    /// pure-DP constraint value is `Σ_r C_r η_r` and the approximate-DP one
    /// is `√(Σ_r C_r² η_r²)` (Proposition 3.1).
    pub fn achieved_epsilon(&self, privacy: PrivacyLevel, budgets: &[f64]) -> f64 {
        let specs = self.strategy.group_specs();
        match privacy {
            PrivacyLevel::Pure { .. } => specs.iter().zip(budgets).map(|(g, &e)| g.c * e).sum(),
            PrivacyLevel::Approx { .. } => specs
                .iter()
                .zip(budgets)
                .map(|(g, &e)| g.c * g.c * e * e)
                .sum::<f64>()
                .sqrt(),
        }
    }

    /// Runs Steps 2–3 for one release at a budget solution computed by
    /// [`ReleaseEngine::solve_budgets`] (e.g. at plan time): calibrated
    /// per-row noise on `observations` (the exact strategy answers
    /// `z = S x`) and the strategy's GLS recovery. Repeated releases from
    /// one plan skip the Step-2 solve and are guaranteed to draw noise at
    /// the exact budgets the plan published.
    ///
    /// Noise is drawn in `NOISE_CHUNK`-row chunks, each from its own
    /// [`StdRng`] substream seeded sequentially from `rng` — so the output
    /// is deterministic in `rng`'s seed regardless of how many threads the
    /// chunks land on.
    ///
    /// Scratch buffers come from a process-wide pool, so K releases (e.g.
    /// a `release_batch` fan-out) allocate O(workers) buffers rather than
    /// O(K); callers that want explicit control use
    /// [`ReleaseEngine::release_into`].
    pub fn release_with_solution<R: Rng + ?Sized>(
        &self,
        observations: &[f64],
        privacy: PrivacyLevel,
        solution: &BudgetSolution,
        neighboring: Neighboring,
        rng: &mut R,
    ) -> Result<EngineRelease<S::Answer>, CoreError> {
        let mut scratch = acquire_scratch();
        let out = self.release_into(
            observations,
            privacy,
            solution,
            neighboring,
            rng,
            &mut scratch,
        );
        recycle_scratch(scratch);
        out
    }

    /// [`ReleaseEngine::release_with_solution`] over caller-provided
    /// scratch: the noisy-observation buffer, substream seeds, budgets,
    /// weights, and noise parameters are all written into `scratch`'s
    /// reusable arenas, so a hot loop that holds one [`ReleaseScratch`] per
    /// worker performs no per-release buffer allocations in the engine
    /// (only the recovered answer itself is freshly allocated — it is the
    /// output).
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        observations: &[f64],
        privacy: PrivacyLevel,
        solution: &BudgetSolution,
        neighboring: Neighboring,
        rng: &mut R,
        scratch: &mut ReleaseScratch,
    ) -> Result<EngineRelease<S::Answer>, CoreError> {
        if observations.len() != self.strategy.num_rows() {
            return Err(CoreError::Shape {
                context: "engine observations",
                expected: self.strategy.num_rows(),
                actual: observations.len(),
            });
        }
        if solution.group_budgets.len() != self.strategy.group_specs().len() {
            return Err(CoreError::Shape {
                context: "engine budget solution",
                expected: self.strategy.group_specs().len(),
                actual: solution.group_budgets.len(),
            });
        }
        let factor = neighboring.sensitivity_factor();
        scratch.budgets.clear();
        scratch
            .budgets
            .extend(solution.group_budgets.iter().map(|&e| e / factor));

        // Defense in depth: re-derive the achieved ε and fail loudly if the
        // optimizer ever produced an infeasible allocation.
        let achieved = self.achieved_epsilon(privacy, &scratch.budgets) * factor;
        if achieved > privacy.epsilon() * (1.0 + 1e-9) {
            return Err(CoreError::InfeasibleBudgets {
                achieved,
                requested: privacy.epsilon(),
            });
        }
        let predicted_variance = mechanism_factor(privacy) * solution.objective * factor * factor;

        // Step "2.5": per-row noise at the group budgets — fused into one
        // in-place pass over the scratch buffer, chunk-parallel.
        scratch.params.compute_into(privacy, &scratch.budgets);
        perturb_observations_into(
            observations,
            self.strategy.row_groups(),
            &scratch.params,
            rng,
            &mut scratch.noisy,
            &mut scratch.seeds,
        );

        // Step 3: the strategy's recovery, weighted by inverse variances.
        scratch.weights.clear();
        scratch.weights.extend(scratch.budgets.iter().map(|&eta| {
            if eta > 0.0 {
                1.0 / noise_variance(privacy, eta)
            } else {
                0.0
            }
        }));
        let answer = self.strategy.recover(&scratch.noisy, &scratch.weights)?;

        Ok(EngineRelease {
            answer,
            group_budgets: scratch.budgets.clone(),
            predicted_variance,
            achieved_epsilon: achieved,
        })
    }
}

/// Reusable buffers for one in-flight release: the noisy-observation vector
/// (`m` rows), the per-chunk substream seeds, and the per-group budget,
/// weight, and noise-parameter vectors. Acquire one per worker and pass it
/// to [`ReleaseEngine::release_into`] to make repeated releases
/// allocation-free inside the engine.
#[derive(Debug, Default)]
pub struct ReleaseScratch {
    budgets: Vec<f64>,
    weights: Vec<f64>,
    params: NoiseParams,
    noisy: Vec<f64>,
    seeds: Vec<u64>,
}

impl ReleaseScratch {
    /// An empty scratch arena; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Process-wide pool backing [`ReleaseEngine::release_with_solution`]. A
/// plain mutexed free-list (one uncontended lock/unlock pair per release,
/// trivial next to the release itself) rather than a thread-local: rayon
/// workers blocked in a parallel section can steal and run another
/// release's closure on the same OS thread, which would alias a
/// thread-local arena mid-release.
static SCRATCH_POOL: Mutex<Vec<ReleaseScratch>> = Mutex::new(Vec::new());

/// Upper bound on pooled arenas, so a one-off wide fan-out cannot pin an
/// unbounded amount of buffer memory for the life of the process.
const SCRATCH_POOL_CAP: usize = 64;

fn acquire_scratch() -> ReleaseScratch {
    SCRATCH_POOL
        .lock()
        .map(|mut pool| pool.pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

fn recycle_scratch(scratch: ReleaseScratch) {
    if let Ok(mut pool) = SCRATCH_POOL.lock() {
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }
}

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
        PrivacyLevel::Pure { .. } => LaplaceMechanism.variance(eps_i),
        PrivacyLevel::Approx { delta, .. } => GaussianMechanism { delta }.variance(eps_i),
    }
}

/// Which mechanism a [`NoiseParams`] was calibrated for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum MechKind {
    #[default]
    Laplace,
    Gaussian,
}

/// Per-group noise parameters, precomputed once per release so the hot
/// perturbation loop never re-derives them per value: the Laplace scale
/// `1/η_r` (pure DP) or the Gaussian `σ_r` (approximate DP) of every group,
/// with `0.0` marking a withheld (zero-budget) group.
///
/// The parameters are computed with the **exact same expressions** the
/// per-value mechanism objects use, so samples drawn from them are bitwise
/// identical to per-value sampling.
#[derive(Debug, Clone, Default)]
pub struct NoiseParams {
    mech: MechKind,
    per_group: Vec<f64>,
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
        self.per_group.clear();
        match privacy {
            PrivacyLevel::Pure { .. } => {
                self.mech = MechKind::Laplace;
                self.per_group.extend(group_budgets.iter().map(|&eta| {
                    if eta > 0.0 {
                        1.0 / eta
                    } else {
                        0.0
                    }
                }));
            }
            PrivacyLevel::Approx { delta, .. } => {
                self.mech = MechKind::Gaussian;
                let mechanism = GaussianMechanism { delta };
                self.per_group.extend(group_budgets.iter().map(|&eta| {
                    if eta > 0.0 {
                        mechanism.variance(eta).sqrt()
                    } else {
                        0.0
                    }
                }));
            }
        }
    }
}

/// Adds calibrated noise to every row with a positive group budget,
/// chunk-parallel with deterministic per-chunk substreams. Rows of groups
/// with budget 0 are **withheld** — zeroed, not passed through — so a
/// recovery that forgets to honour its zero weights can never leak exact
/// private values (the engine enforces this, not each plugin).
///
/// Public so oracle tests can replay the exact noise a release drew: the
/// chunk seeds are the first `⌈m/NOISE_CHUNK⌉` `u64`s of `rng` (at least
/// one, even for empty observations), and each chunk's noise comes from an
/// [`StdRng`] seeded with its seed.
///
/// This is a convenience wrapper over [`perturb_observations_into`] that
/// allocates fresh buffers; the engine's hot path reuses scratch instead.
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
/// long consecutive runs by construction) and dispatching the mechanism
/// once per run over the batched samplers — instead of a per-value
/// mechanism match plus per-value parameter derivation.
fn perturb_chunk(chunk: &mut [f64], groups: &[u32], params: &NoiseParams, sub: &mut StdRng) {
    let mut i = 0;
    while i < chunk.len() {
        let g = groups[i];
        let mut j = i + 1;
        while j < chunk.len() && groups[j] == g {
            j += 1;
        }
        let p = params.per_group[g as usize];
        let run = &mut chunk[i..j];
        if p > 0.0 {
            match params.mech {
                MechKind::Laplace => add_laplace_into(sub, p, run),
                MechKind::Gaussian => add_gaussian_into(sub, p, run),
            }
        } else {
            // Unreleased rows: withhold the exact values (and draw nothing).
            run.fill(0.0);
        }
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

    /// A toy strategy: two groups, identity recovery (answers = noisy rows).
    struct Echo {
        specs: Vec<GroupSpec>,
        rows: Vec<u32>,
    }

    impl StrategyOperator for Echo {
        type Answer = Vec<f64>;

        fn num_rows(&self) -> usize {
            self.rows.len()
        }

        fn group_specs(&self) -> &[GroupSpec] {
            &self.specs
        }

        fn row_groups(&self) -> &[u32] {
            &self.rows
        }

        fn recover(&self, noisy: &[f64], _w: &[f64]) -> Result<Vec<f64>, CoreError> {
            Ok(noisy.to_vec())
        }
    }

    /// Steps 2–3 in one call: solve the budgets, then release at them.
    fn release(
        engine: &ReleaseEngine<Echo>,
        observations: &[f64],
        privacy: PrivacyLevel,
        budgeting: Budgeting,
        neighboring: Neighboring,
        rng: &mut StdRng,
    ) -> Result<EngineRelease<Vec<f64>>, CoreError> {
        let solution = engine.solve_budgets(privacy, budgeting)?;
        engine.release_with_solution(observations, privacy, &solution, neighboring, rng)
    }

    fn echo() -> Echo {
        Echo {
            specs: vec![GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 1.0 }],
            rows: vec![0, 0, 1, 1],
        }
    }

    #[test]
    fn engine_releases_are_deterministic_per_seed() {
        let engine = ReleaseEngine::new(echo()).unwrap();
        let obs = vec![10.0, 20.0, 30.0, 40.0];
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            release(
                &engine,
                &obs,
                p,
                Budgeting::Optimal,
                Neighboring::AddRemove,
                &mut rng,
            )
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.group_budgets, b.group_budgets);
        let c = run(10);
        assert_ne!(a.answer, c.answer);
    }

    #[test]
    fn achieved_epsilon_is_tight_and_validated() {
        let engine = ReleaseEngine::new(echo()).unwrap();
        let obs = vec![0.0; 4];
        let mut rng = StdRng::seed_from_u64(1);
        let r = release(
            &engine,
            &obs,
            PrivacyLevel::Pure { epsilon: 0.7 },
            Budgeting::Optimal,
            Neighboring::AddRemove,
            &mut rng,
        )
        .unwrap();
        assert!((r.achieved_epsilon - 0.7).abs() < 1e-9);
        assert!(r.predicted_variance > 0.0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let engine = ReleaseEngine::new(echo()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            release(
                &engine,
                &[1.0; 3],
                PrivacyLevel::Pure { epsilon: 1.0 },
                Budgeting::Uniform,
                Neighboring::AddRemove,
                &mut rng,
            ),
            Err(CoreError::Shape { .. })
        ));
        let bad = Echo {
            specs: vec![GroupSpec { c: 1.0, s: 1.0 }],
            rows: vec![0, 1],
        };
        assert!(ReleaseEngine::new(bad).is_err());
    }

    #[test]
    fn zero_weight_groups_are_withheld_not_leaked() {
        let engine = ReleaseEngine::new(Echo {
            specs: vec![GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 0.0 }],
            rows: vec![0, 0, 1, 1],
        })
        .unwrap();
        let obs = vec![5.0, 6.0, 7.0, 8.0];
        let mut rng = StdRng::seed_from_u64(3);
        let r = release(
            &engine,
            &obs,
            PrivacyLevel::Pure { epsilon: 1.0 },
            Budgeting::Optimal,
            Neighboring::AddRemove,
            &mut rng,
        )
        .unwrap();
        // Group 1 has zero recovery weight → budget 0 → its rows are
        // zeroed by the engine, so even this weights-unaware echo recovery
        // cannot leak the exact values 7.0/8.0.
        assert_eq!(r.group_budgets[1], 0.0);
        assert_eq!(&r.answer[2..], &[0.0, 0.0]);
        assert_ne!(&r.answer[..2], &[5.0, 6.0]);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_buffers() {
        // Interleave releases with different seeds, observations, and
        // privacy levels through ONE reused scratch arena; each must match
        // the pooled release_with_solution path bit-for-bit — proving no
        // stale state survives between releases.
        let engine = ReleaseEngine::new(echo()).unwrap();
        let mut scratch = ReleaseScratch::new();
        let cases: [(u64, [f64; 4], PrivacyLevel); 4] = [
            (
                1,
                [10.0, 20.0, 30.0, 40.0],
                PrivacyLevel::Pure { epsilon: 1.0 },
            ),
            (
                2,
                [-5.0, 0.0, 2.5, 9.0],
                PrivacyLevel::Approx {
                    epsilon: 0.8,
                    delta: 1e-6,
                },
            ),
            (
                1,
                [10.0, 20.0, 30.0, 40.0],
                PrivacyLevel::Pure { epsilon: 1.0 },
            ),
            (7, [0.0, 0.0, 0.0, 0.0], PrivacyLevel::Pure { epsilon: 0.3 }),
        ];
        for (seed, obs, privacy) in cases {
            let solution = engine.solve_budgets(privacy, Budgeting::Optimal).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let reused = engine
                .release_into(
                    &obs,
                    privacy,
                    &solution,
                    Neighboring::AddRemove,
                    &mut rng,
                    &mut scratch,
                )
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh = engine
                .release_with_solution(&obs, privacy, &solution, Neighboring::AddRemove, &mut rng)
                .unwrap();
            assert_eq!(reused.answer, fresh.answer);
            assert_eq!(reused.group_budgets, fresh.group_budgets);
            assert_eq!(reused.achieved_epsilon, fresh.achieved_epsilon);
            assert_eq!(reused.predicted_variance, fresh.predicted_variance);
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
            let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
            let params = NoiseParams::compute(privacy, &group_budgets);
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
            let fresh = perturb_observations(
                &observations,
                &row_groups,
                &group_budgets,
                privacy,
                &mut rng,
            );
            assert_eq!(noisy, fresh, "len {len}");
            // Both paths must have consumed the identical number of RNG
            // words from the caller (the seed draws).
            assert_eq!(seeds.len(), len.div_ceil(NOISE_CHUNK).max(1));
        }
    }

    #[test]
    fn replace_neighboring_halves_budgets() {
        let engine = ReleaseEngine::new(echo()).unwrap();
        let obs = vec![0.0; 4];
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let mut rng = StdRng::seed_from_u64(4);
        let add = release(
            &engine,
            &obs,
            p,
            Budgeting::Uniform,
            Neighboring::AddRemove,
            &mut rng,
        )
        .unwrap();
        let rep = release(
            &engine,
            &obs,
            p,
            Budgeting::Uniform,
            Neighboring::Replace,
            &mut rng,
        )
        .unwrap();
        for (a, b) in add.group_budgets.iter().zip(&rep.group_budgets) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        assert!((rep.predicted_variance - 4.0 * add.predicted_variance).abs() < 1e-9);
    }
}
