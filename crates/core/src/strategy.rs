//! The compiled strategy: one closed enum of strategies over one shared
//! noise and recovery pipeline.
//!
//! The paper's Figure-3 template is one pipeline in which a strategy
//! differs only in
//!
//! 1. its **group structure** (`C_r`, `s_r` per group and a group id per
//!    observation row), which feeds the Step-2 budget optimizer of
//!    `dp-opt`, and
//! 2. its **maps**: the observation `z = S·x`, the sparse column a streamed
//!    record adds to `z`, the recovery from noisy observations back to
//!    workload answers, and the per-query variance prediction. Recovery is
//!    generalized least squares, carried out in diagonal
//!    Fourier-coefficient space (marginal strategies, Section 4.3), in
//!    closed form through the Haar diagonalization (identity, tree and
//!    wavelet range strategies), or by matrix-free conjugate gradients
//!    (sketches only).
//!
//! `Compiled` keeps (1) as two plain vectors and (2) as a `Kind`, a closed
//! enum with one variant per strategy. Each map is one `match` over `Kind`
//! that calls the per-family arithmetic of [`crate::release`] (marginals)
//! and [`crate::range`] (ranges). The Fourier-space marginal variants hold
//! their layout as block maps ([`ObservationOperator`]): the observed
//! marginals' rows and the targets' coefficient positions, scales and
//! cell offsets are read from them, never recomputed per map. Every
//! marginal map writes one buffer in that layout: `Q`/`C` observations,
//! the Fourier bind's exact marginals and the identity recovery's folds
//! through [`crate::table`]'s one fan-out over block slices, the `F`,
//! `Q` and `C` recoveries through [`ObservationOperator::apply`]. A
//! marginal release's answers are that buffer and the plan's shared mask
//! list, a [`MarginalSet`], so it allocates no vector per target.
//! Everything else is written once, here:
//! solving for uniform or optimal budgets, re-validating the achieved ε
//! (Proposition 3.1) on every release, and drawing noise through
//! [`dp_mech::noise`] (parallel over observation chunks, with
//! deterministic per-chunk substreams).

use crate::api::{Answers, WorkloadSpec};
use crate::cluster::Clustering;
use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::MarginalSet;
use crate::mask::AttrMask;
use crate::range::{haar_range_coeffs, RangeStrategy, RangeWorkload};
use crate::table::{count_marginals, marginalize_all};
use crate::{range, release, CoreError};
use dp_linalg::{haar_forward, haar_inverse, CsrMatrix, HierarchicalOperator, LinearOperator};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_opt::budget::{
    optimal_group_budgets, optimal_group_budgets_gaussian, uniform_group_budgets,
    uniform_group_budgets_gaussian, BudgetSolution, GroupSpec,
};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// The noise stream lives in [`dp_mech::noise`]; these re-exports keep the
/// paths benchmarks name.
pub use dp_mech::noise::{noise_variance, perturb_observations_into, NoiseParams};

/// Noise-budget allocation mode (Step 2 of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budgeting {
    /// One equal budget per group — what prior work does implicitly.
    Uniform,
    /// The paper's optimal non-uniform allocation (closed form).
    Optimal,
}

/// What a strategy needs beyond its group structure: one variant per
/// strategy, each carrying exactly the data its maps use.
pub(crate) enum Kind {
    /// Marginal `I`: observe every base cell; each target marginal
    /// aggregates the noisy counts.
    MarginalIdentity { d: usize, targets: Arc<[AttrMask]> },
    /// Marginal `Q` (the workload itself) and `C` (cluster centroids, with
    /// the clustering that answers each target from one centroid): observe
    /// the cells of the observed marginals, recover by GLS in
    /// coefficient space.
    ObservedMarginals {
        /// The observed marginals' block map: the observation layout.
        observed: ObservationOperator,
        /// The targets' block map over the same coefficient space.
        targets: ObservationOperator,
        clustering: Option<Clustering>,
    },
    /// Marginal `F`: observe each Fourier coefficient of the workload
    /// support once, so GLS is the noisy coefficients themselves.
    Fourier {
        space: CoefficientSpace,
        /// The targets' block map over `space`.
        targets: ObservationOperator,
    },
    /// Range `I`: observe the histogram.
    RangeIdentity { workload: RangeWorkload },
    /// Range `H`: observe the `2n − 1` dyadic node sums of the binary tree.
    Hierarchical { workload: RangeWorkload },
    /// Range `W`: observe the orthonormal Haar coefficients.
    Wavelet { workload: RangeWorkload },
    /// Range `S`: the sparse random projection, its transpose (row `j` is
    /// the column a record at cell `j` adds) and the strategy parameters
    /// (for the dense variance oracle).
    Sketch {
        workload: RangeWorkload,
        strategy: RangeStrategy,
        matrix: CsrMatrix,
        columns: CsrMatrix,
    },
}

/// A strategy compiled **without data** — what a [`crate::api::Plan`]
/// embeds: the group structure for the budget optimizer and the
/// strategy's maps.
pub(crate) struct Compiled {
    /// Per-group `(C_r, s_r)`, in group order.
    specs: Vec<GroupSpec>,
    /// Group id of each observation row (each names a group); its length
    /// is the row count `m`.
    row_groups: Vec<u32>,
    kind: Kind,
}

impl Compiled {
    /// Compiles the strategy of a spec (for `C`, this runs the cluster
    /// search). No data is consulted.
    pub(crate) fn build(spec: &WorkloadSpec) -> Result<Compiled, CoreError> {
        let (specs, row_groups, kind) = match spec {
            WorkloadSpec::Marginals {
                workload, strategy, ..
            } => release::compile(workload, *strategy)?,
            WorkloadSpec::Ranges { workload, strategy } => range::compile(workload, *strategy)?,
        };
        Compiled::new(specs, row_groups, kind)
    }

    /// Assembles a compiled strategy, refusing a row-group vector that is
    /// not one entry per observation row, or whose ids name no group.
    fn new(specs: Vec<GroupSpec>, row_groups: Vec<u32>, kind: Kind) -> Result<Compiled, CoreError> {
        let rows = match &kind {
            Kind::MarginalIdentity { d, .. } => 1usize << d,
            Kind::ObservedMarginals { observed, .. } => observed.num_cells(),
            Kind::Fourier { space, .. } => space.len(),
            Kind::RangeIdentity { workload } | Kind::Wavelet { workload } => workload.domain(),
            Kind::Hierarchical { workload } => 2 * workload.domain() - 1,
            Kind::Sketch { matrix, .. } => matrix.rows(),
        };
        if row_groups.len() != rows {
            return Err(CoreError::Shape {
                context: "strategy row groups",
                expected: rows,
                actual: row_groups.len(),
            });
        }
        if let Some(&bad) = row_groups.iter().find(|&&g| g as usize >= specs.len()) {
            return Err(CoreError::Shape {
                context: "strategy group id",
                expected: specs.len(),
                actual: bad as usize,
            });
        }
        Ok(Compiled {
            specs,
            row_groups,
            kind,
        })
    }

    /// Per-group `(C_r, s_r)` for the budget optimizer, in group order.
    pub(crate) fn specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    /// The greedy clustering of a `C` strategy.
    pub(crate) fn clustering(&self) -> Option<&Clustering> {
        match &self.kind {
            Kind::ObservedMarginals { clustering, .. } => clustering.as_ref(),
            _ => None,
        }
    }

    /// The exact observations `z = S·x` of a data vector (contingency
    /// counts or histogram, of the spec's domain size) — the one
    /// data-dependent step, run once per bind. Marginal (`Q`/`C`/`F`)
    /// plans cost one O(N) scan, plus one pass over the occupied cells per
    /// shared parent marginal, plus the parents' cells once per target
    /// folded out of them, for count data, with no copy of `x`
    /// ([`count_marginals`]); identity plans copy `x`, and range plans
    /// apply their O(n) or O(n log n) operator.
    pub(crate) fn observe(&self, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(match &self.kind {
            Kind::MarginalIdentity { .. } | Kind::RangeIdentity { .. } => x.to_vec(),
            Kind::ObservedMarginals { observed, .. } => {
                count_marginals(x, observed.domain_bits(), observed.masks()).into_cells()
            }
            Kind::Fourier { targets, .. } => release::fourier_observations(x, targets),
            Kind::Hierarchical { workload } => {
                HierarchicalOperator::new(workload.domain()).apply(x)
            }
            Kind::Wavelet { .. } => {
                let mut z = x.to_vec();
                haar_forward(&mut z, &mut Vec::new());
                z
            }
            Kind::Sketch { matrix, .. } => matrix.apply(x),
        })
    }

    /// Adds `delta` records at data cell `cell` (inside the domain) to
    /// observations `z`: since `z = S·x` is linear in `x`, that is
    /// `z += delta · S[·, cell]`, the strategy's sparse column — O(1) for
    /// identities, O(#observed marginals), O(|support|) or O(log n) for the
    /// structured strategies, O(column nnz) for sketches; never O(domain).
    pub(crate) fn apply_delta(&self, z: &mut [f64], cell: u64, delta: f64) {
        let j = cell as usize;
        match &self.kind {
            Kind::MarginalIdentity { .. } | Kind::RangeIdentity { .. } => z[j] += delta,
            Kind::ObservedMarginals { observed, .. } => {
                // A record lands in exactly one cell of each observed
                // marginal.
                for row in observed.cell_rows(cell) {
                    z[row] += delta;
                }
            }
            Kind::Fourier { space, .. } => {
                // fᵝ(cell) = (−1)^{⟨β,cell⟩} · 2^{−d/2} for every β in the
                // support (the column of the Fourier observation matrix).
                let scale = 2f64.powf(-(space.domain_bits() as f64) / 2.0);
                let cell_mask = AttrMask(cell);
                for (i, &beta) in space.support().iter().enumerate() {
                    z[i] += delta * cell_mask.sign(beta) * scale;
                }
            }
            Kind::Hierarchical { workload } => {
                // Level ℓ contributes row `2^ℓ − 1 + (j >> (levels − ℓ))`,
                // the dyadic block of width `n/2^ℓ` containing `j`.
                let levels = workload.domain().trailing_zeros() as usize;
                for level in 0..=levels {
                    z[(1usize << level) - 1 + (j >> (levels - level))] += delta;
                }
            }
            Kind::Wavelet { workload } => {
                for (i, c) in haar_range_coeffs(workload.domain(), j, j + 1) {
                    z[i] += delta * c;
                }
            }
            Kind::Sketch { columns, .. } => {
                for (i, v) in columns.row_entries(j) {
                    z[i] += delta * v;
                }
            }
        }
    }

    /// Recovers workload answers from a release's noisy observations
    /// (`scratch.noisy`). `scratch.weights[r]` is the GLS weight (inverse
    /// noise variance) of group `r`'s rows; withheld groups carry weight 0
    /// and arrive zeroed. Range recovery works in the scratch buffers: `W`
    /// inverts `scratch.noisy` in place, and `H` writes its estimate into
    /// `scratch.x`, both with `scratch.half` as the Haar work space.
    fn recover(&self, scratch: &mut Scratch) -> Result<Answers, CoreError> {
        let rows = &self.row_groups;
        let Scratch {
            noisy,
            weights: group_weights,
            half,
            x,
            ..
        } = scratch;
        Ok(match &self.kind {
            // `x̂ = z` is the GLS estimate for S = I; aggregating one noisy
            // table is automatically consistent.
            Kind::MarginalIdentity { d, targets } => Answers::Marginals(MarginalSet::new(
                Arc::clone(targets),
                marginalize_all(noisy, *d, targets),
            )),
            Kind::ObservedMarginals {
                observed, targets, ..
            } => Answers::Marginals(targets.apply(&observed.gls_solve(noisy, group_weights)?)),
            Kind::Fourier { targets, .. } => Answers::Marginals(targets.apply(noisy)),
            Kind::RangeIdentity { workload } => Answers::Ranges(workload.true_answers(noisy)?),
            Kind::Hierarchical { workload } => {
                range::tree_gls(workload.domain(), noisy, rows, group_weights, x, half);
                Answers::Ranges(workload.true_answers(x)?)
            }
            Kind::Wavelet { workload } => {
                // `S = H` is square and orthonormal: the weights cancel.
                haar_inverse(noisy, half);
                Answers::Ranges(workload.true_answers(noisy)?)
            }
            Kind::Sketch {
                workload, matrix, ..
            } => {
                let x = range::sketch_gls(matrix, noisy, rows, group_weights)?;
                Answers::Ranges(workload.true_answers(&x)?)
            }
        })
    }

    /// [`Compiled::recover`] of given noisy observations and group weights,
    /// in a fresh arena.
    #[cfg(test)]
    pub(crate) fn recover_observed(
        &self,
        noisy: &[f64],
        group_weights: &[f64],
    ) -> Result<Answers, CoreError> {
        self.recover(&mut Scratch {
            noisy: noisy.to_vec(),
            weights: group_weights.to_vec(),
            ..Scratch::default()
        })
    }

    /// Per-query output variances, in workload order, given the per-group
    /// noise variances `group_sigma2`: the initial recovery `R₀`'s
    /// per-marginal variances for marginal strategies (they sum to the
    /// Step-2 objective times the mechanism constant), the exact GLS
    /// variances for range strategies.
    pub(crate) fn predict_query_variances(
        &self,
        group_sigma2: &[f64],
    ) -> Result<Vec<f64>, CoreError> {
        Ok(match &self.kind {
            // Each marginal cell sums 2^{d−‖α‖} base cells of variance σ₀²;
            // over 2^{‖α‖} cells: 2^d σ₀² per marginal.
            Kind::MarginalIdentity { d, targets } => {
                vec![(1u64 << d) as f64 * group_sigma2[0]; targets.len()]
            }
            // Target α is answered from observed marginal u (itself for
            // `Q`): each of its 2^{‖α‖} cells sums 2^{‖u‖−‖α‖} cells of u,
            // so 2^{‖u‖} σ_u² in total.
            Kind::ObservedMarginals {
                targets,
                observed,
                clustering,
                ..
            } => (0..targets.masks().len())
                .map(|i| {
                    let g = clustering.as_ref().map_or(i, |c| c.assignment()[i]);
                    observed.masks()[g].cell_count() as f64 * group_sigma2[g]
                })
                .collect(),
            Kind::Fourier { targets, .. } => release::fourier_variances(targets, group_sigma2),
            Kind::RangeIdentity { workload } => workload
                .ranges()
                .iter()
                .map(|&(lo, hi)| (hi - lo) as f64 * group_sigma2[0])
                .collect(),
            Kind::Hierarchical { workload } => {
                let n = workload.domain();
                let weights: Vec<f64> = group_sigma2.iter().map(|&v| 1.0 / v).collect();
                let lam = range::tree_haar_eigenvalues(n, &weights);
                range::haar_variances(workload, |c2, level| c2 / lam[level])
            }
            Kind::Wavelet { workload } => {
                range::haar_variances(workload, |c2, level| c2 * group_sigma2[level])
            }
            Kind::Sketch {
                workload, strategy, ..
            } => range::dense_variances(workload, *strategy, &self.row_groups, group_sigma2)?,
        })
    }

    /// One release at a solved budget solution (Steps 2.5–3): the
    /// per-release budgets and their re-checked ε, calibrated noise on the
    /// exact `observations`, and the strategy's weighted recovery. Returns
    /// the answers, the budgets used and the achieved ε.
    ///
    /// Noise is drawn by [`perturb_observations_into`], so the output is a
    /// pure function of `rng`'s seed whatever the thread count. The
    /// working buffers come from a process-wide pool, so a batch of K
    /// releases allocates O(workers) of them rather than O(K). Per release
    /// they are `noisy` (`m` cells) and, for a range plan over `n` cells,
    /// a Haar half buffer of `n/2` and the tree estimate `x` of `n`; the
    /// recovery runs in them, so a range release on a warm arena allocates
    /// only its `q` answers and a few vectors of `O(q + log n)` (budgets,
    /// endpoint prefixes, tree eigenvalues).
    pub(crate) fn release<R: Rng + ?Sized>(
        &self,
        observations: &[f64],
        privacy: PrivacyLevel,
        solution: &BudgetSolution,
        neighboring: Neighboring,
        rng: &mut R,
    ) -> Result<(Answers, Vec<f64>, f64), CoreError> {
        if observations.len() != self.row_groups.len() {
            return Err(CoreError::Shape {
                context: "release observations",
                expected: self.row_groups.len(),
                actual: observations.len(),
            });
        }
        let (budgets, achieved) = release_budgets(&self.specs, privacy, solution, neighboring)?;
        let mut scratch = SCRATCH_POOL
            .lock()
            .map(|mut pool| pool.pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        scratch.perturb(observations, &self.row_groups, privacy, &budgets, rng);
        let answers = self.recover(&mut scratch);
        if let Ok(mut pool) = SCRATCH_POOL.lock() {
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(scratch);
            }
        }
        Ok((answers?, budgets, achieved))
    }
}

/// Solves Step 2 over a strategy's group specs for a privacy level and
/// budgeting mode (no noise drawn).
pub(crate) fn solve_budgets(
    specs: &[GroupSpec],
    privacy: PrivacyLevel,
    budgeting: Budgeting,
) -> Result<BudgetSolution, CoreError> {
    privacy.validate()?;
    let eps = privacy.epsilon();
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
/// pure-DP constraint value is `Σ_r C_r η_r` and the approximate-DP one is
/// `√(Σ_r C_r² η_r²)` (Proposition 3.1).
fn achieved_epsilon(specs: &[GroupSpec], privacy: PrivacyLevel, budgets: &[f64]) -> f64 {
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

/// The budgets a release draws at — the solution's `η_r` divided by the
/// neighbouring sensitivity factor — and the ε they achieve. Fails loudly
/// if the allocation is infeasible: checked when a plan is finished and
/// again, as defense in depth, on every release.
pub(crate) fn release_budgets(
    specs: &[GroupSpec],
    privacy: PrivacyLevel,
    solution: &BudgetSolution,
    neighboring: Neighboring,
) -> Result<(Vec<f64>, f64), CoreError> {
    if solution.group_budgets.len() != specs.len() {
        return Err(CoreError::Shape {
            context: "budget solution",
            expected: specs.len(),
            actual: solution.group_budgets.len(),
        });
    }
    let factor = neighboring.sensitivity_factor();
    let budgets: Vec<f64> = solution.group_budgets.iter().map(|&e| e / factor).collect();
    let achieved = achieved_epsilon(specs, privacy, &budgets) * factor;
    if achieved > privacy.epsilon() * (1.0 + 1e-9) {
        return Err(CoreError::InfeasibleBudgets {
            achieved,
            requested: privacy.epsilon(),
        });
    }
    Ok((budgets, achieved))
}

/// Reusable buffers of one in-flight release: the noise parameters, the
/// per-chunk substream seeds, the per-group GLS weights, and the data
/// buffers —
/// - `noisy`, the `m` noisy observations (a `W` range release inverts its
///   Haar transform in place, so it is the estimate too);
/// - `half`, the `n/2`-cell work space of the Haar transforms of `W` and
///   `H` range releases over `n` cells;
/// - `x`, the `n`-cell estimate of an `H` range release.
///
/// Capacities only grow, so after its first use a pooled arena serves
/// range releases of the same domain without allocating.
#[derive(Debug, Default)]
struct Scratch {
    params: NoiseParams,
    noisy: Vec<f64>,
    seeds: Vec<u64>,
    weights: Vec<f64>,
    half: Vec<f64>,
    x: Vec<f64>,
}

impl Scratch {
    /// Calibrated noise at per-group `budgets` on `observations` into
    /// `self.noisy` (withheld groups zeroed), and the GLS weights — inverse
    /// noise variances, 0 for withheld groups — into `self.weights`.
    fn perturb<R: Rng + ?Sized>(
        &mut self,
        observations: &[f64],
        row_groups: &[u32],
        privacy: PrivacyLevel,
        budgets: &[f64],
        rng: &mut R,
    ) {
        self.params.compute_into(privacy, budgets);
        perturb_observations_into(
            observations,
            row_groups,
            &self.params,
            rng,
            &mut self.noisy,
            &mut self.seeds,
        );
        self.weights.clear();
        self.weights.extend(budgets.iter().map(|&eta| {
            if eta > 0.0 {
                1.0 / noise_variance(privacy, eta)
            } else {
                0.0
            }
        }));
    }
}

/// Process-wide pool of release scratch. A plain mutexed free-list (one
/// uncontended lock/unlock pair per release, trivial next to the release
/// itself) rather than a thread-local: rayon workers blocked in a parallel
/// section can steal and run another release's closure on the same OS
/// thread, which would alias a thread-local arena mid-release.
static SCRATCH_POOL: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// Upper bound on pooled arenas, so a one-off wide fan-out cannot pin an
/// unbounded amount of buffer memory for the life of the process.
const SCRATCH_POOL_CAP: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two groups of two rows each; group 0 carries four times the
    /// recovery weight of group 1.
    fn specs() -> Vec<GroupSpec> {
        vec![GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 1.0 }]
    }

    const ROWS: [u32; 4] = [0, 0, 1, 1];

    /// The noise a release at `privacy`'s optimal budgets draws for `seed`.
    fn perturbed(seed: u64, observations: &[f64], privacy: PrivacyLevel) -> Scratch {
        let solution = solve_budgets(&specs(), privacy, Budgeting::Optimal).unwrap();
        let (budgets, _) =
            release_budgets(&specs(), privacy, &solution, Neighboring::AddRemove).unwrap();
        let mut scratch = Scratch::default();
        let mut rng = StdRng::seed_from_u64(seed);
        scratch.perturb(observations, &ROWS, privacy, &budgets, &mut rng);
        scratch
    }

    /// A compiled range-identity strategy over `n` cells.
    fn range_identity(n: usize) -> Compiled {
        Compiled::build(&WorkloadSpec::Ranges {
            workload: RangeWorkload::all_prefixes(n).unwrap(),
            strategy: RangeStrategy::Identity,
        })
        .unwrap()
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let obs = [10.0, 20.0, 30.0, 40.0];
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let a = perturbed(9, &obs, p);
        let b = perturbed(9, &obs, p);
        assert_eq!(a.noisy, b.noisy);
        assert_eq!(a.weights, b.weights);
        assert_ne!(a.noisy, perturbed(10, &obs, p).noisy);
        // The same holds for a real strategy's release, recovery included.
        let compiled = range_identity(4);
        let solution = solve_budgets(&compiled.specs, p, Budgeting::Optimal).unwrap();
        let release = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (answers, _, _) = compiled
                .release(&obs, p, &solution, Neighboring::AddRemove, &mut rng)
                .unwrap();
            answers.into_ranges().unwrap()
        };
        assert_eq!(release(9), release(9));
        assert_ne!(release(9), release(10));
    }

    #[test]
    fn achieved_epsilon_is_tight_and_validated() {
        let p = PrivacyLevel::Pure { epsilon: 0.7 };
        let mut solution = solve_budgets(&specs(), p, Budgeting::Optimal).unwrap();
        let (_, achieved) =
            release_budgets(&specs(), p, &solution, Neighboring::AddRemove).unwrap();
        assert!((achieved - 0.7).abs() < 1e-9);
        assert!(solution.objective > 0.0);
        // An allocation that overspends is refused, not released.
        solution.group_budgets[0] *= 2.0;
        assert!(matches!(
            release_budgets(&specs(), p, &solution, Neighboring::AddRemove),
            Err(CoreError::InfeasibleBudgets { .. })
        ));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let compiled = range_identity(4);
        let solution = solve_budgets(&compiled.specs, p, Budgeting::Uniform).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            compiled.release(&[1.0; 3], p, &solution, Neighboring::AddRemove, &mut rng),
            Err(CoreError::Shape { .. })
        ));
        let two_groups = solve_budgets(&specs(), p, Budgeting::Uniform).unwrap();
        assert!(matches!(
            compiled.release(&[1.0; 4], p, &two_groups, Neighboring::AddRemove, &mut rng),
            Err(CoreError::Shape { .. })
        ));
        // A row group id that names no group, or a row-group vector not one
        // entry per observation row, is refused at build.
        let kind = || Kind::RangeIdentity {
            workload: RangeWorkload::all_prefixes(2).unwrap(),
        };
        let one_group = || vec![GroupSpec { c: 1.0, s: 1.0 }];
        assert!(matches!(
            Compiled::new(one_group(), vec![0, 1], kind()),
            Err(CoreError::Shape { .. })
        ));
        assert!(matches!(
            Compiled::new(one_group(), vec![0, 0, 0], kind()),
            Err(CoreError::Shape { .. })
        ));
        assert!(Compiled::new(one_group(), vec![0, 0], kind()).is_ok());
    }

    #[test]
    fn zero_weight_groups_are_withheld_not_leaked() {
        let specs = [GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 0.0 }];
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let solution = solve_budgets(&specs, p, Budgeting::Optimal).unwrap();
        let (budgets, _) = release_budgets(&specs, p, &solution, Neighboring::AddRemove).unwrap();
        let obs = [5.0, 6.0, 7.0, 8.0];
        let mut scratch = Scratch::default();
        scratch.perturb(&obs, &ROWS, p, &budgets, &mut StdRng::seed_from_u64(3));
        // Group 1 has zero recovery weight → budget 0 → its rows are
        // zeroed before any recovery sees them, so the exact values
        // 7.0/8.0 cannot leak, and they get GLS weight 0.
        assert_eq!(budgets[1], 0.0);
        assert_eq!(&scratch.noisy[2..], &[0.0, 0.0]);
        assert_ne!(&scratch.noisy[..2], &[5.0, 6.0]);
        assert_eq!(scratch.weights[1], 0.0);
        assert!(scratch.weights[0] > 0.0);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_buffers() {
        // Interleave perturbations with different seeds, observations and
        // privacy levels through ONE reused scratch arena; each must match
        // fresh buffers bit-for-bit — proving no stale state survives.
        let mut reused = Scratch::default();
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
            let solution = solve_budgets(&specs(), privacy, Budgeting::Optimal).unwrap();
            let (budgets, _) =
                release_budgets(&specs(), privacy, &solution, Neighboring::AddRemove).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            reused.perturb(&obs, &ROWS, privacy, &budgets, &mut rng);
            let fresh = perturbed(seed, &obs, privacy);
            assert_eq!(reused.noisy, fresh.noisy);
            assert_eq!(reused.seeds, fresh.seeds);
            assert_eq!(reused.weights, fresh.weights);
        }
    }

    #[test]
    fn replace_neighboring_halves_budgets() {
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let solution = solve_budgets(&specs(), p, Budgeting::Uniform).unwrap();
        let (add, add_eps) =
            release_budgets(&specs(), p, &solution, Neighboring::AddRemove).unwrap();
        let (rep, rep_eps) = release_budgets(&specs(), p, &solution, Neighboring::Replace).unwrap();
        for (a, b) in add.iter().zip(&rep) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        // Replace-one doubles the sensitivity, so halved budgets spend the
        // same ε.
        assert!((add_eps - rep_eps).abs() < 1e-12);
    }
}
