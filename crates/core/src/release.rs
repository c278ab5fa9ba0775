//! The marginal strategies: the per-family arithmetic behind the marginal
//! variants of the compiled strategy in [`crate::strategy`].
//!
//! `compile` turns a workload and a [`StrategyKind`] into the
//! **data-independent** half of the pipeline — group structure, coefficient
//! spaces, observation operator, clustering — without consulting a table;
//! the functions below it are the observation, recovery and variance
//! arithmetic the strategy's maps call. Binding a plan to a table and
//! drawing releases is the job of [`crate::api::Session`]; Steps 2–3
//! (budgets, noise, the achieved-ε check) are shared in
//! [`crate::strategy`].

use crate::cluster::{greedy_cluster, Clustering};
use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::MarginalTable;
use crate::mask::AttrMask;
use crate::strategy::Kind;
use crate::table::count_marginals;
use crate::workload::Workload;
use crate::CoreError;
use dp_opt::budget::GroupSpec;
use rayon::prelude::*;

pub use crate::strategy::Budgeting;

/// Which strategy matrix `S` to use (Step 1 of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// `S = I`: release noisy base counts and aggregate (the paper's `I`).
    Identity,
    /// `S = Q`: noise each workload marginal directly (`Q`/`Q+`).
    Workload,
    /// `S =` Fourier coefficients of the workload's support (`F`/`F+`).
    Fourier,
    /// `S =` greedy cluster centroids of Ding et al. \[6\] (`C`/`C+`).
    Cluster,
}

impl StrategyKind {
    /// Short display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Identity => "I",
            StrategyKind::Workload => "Q",
            StrategyKind::Fourier => "F",
            StrategyKind::Cluster => "C",
        }
    }
}

/// Compiles a marginal strategy for a workload: runs the strategy search
/// (for `Cluster`, [`greedy_cluster`]) and derives the group specs, the
/// row groups and the strategy's [`Kind`]. No table is consulted.
pub(crate) fn compile(
    workload: &Workload,
    strategy: StrategyKind,
) -> Result<(Vec<GroupSpec>, Vec<u32>, Kind), CoreError> {
    let d = workload.domain_bits();
    let targets = workload.marginals().to_vec();
    Ok(match strategy {
        StrategyKind::Identity => {
            // One group of all N base cells, C = 1. Recovery weight per
            // cell is the number of workload marginals (each uses every
            // cell exactly once), so s = ℓ·N.
            let n = 1usize << d;
            let s = workload.len() as f64 * n as f64;
            let kind = Kind::MarginalIdentity { d, targets };
            (vec![GroupSpec { c: 1.0, s }], vec![0; n], kind)
        }
        StrategyKind::Workload => {
            // R₀ = I: b_i = 1 per released cell, s_r = 2^{‖α_r‖}.
            let weights = targets.iter().map(|m| m.cell_count() as f64).collect();
            observed_marginals(d, targets.clone(), targets, weights, None)?
        }
        StrategyKind::Cluster => {
            let clustering = greedy_cluster(workload);
            // R₀ aggregates the centroid's cells into each assigned
            // marginal: each centroid cell is used once per assigned
            // marginal, so s_c = ℓ_c · 2^{‖u_c‖} (cell counts memoized by
            // the clustering).
            let weights = clustering
                .cell_counts()
                .iter()
                .zip(clustering.cluster_sizes())
                .map(|(&cells, lc)| (lc * cells) as f64)
                .collect();
            let observed = clustering.centroids().to_vec();
            observed_marginals(d, observed, targets, weights, Some(clustering))?
        }
        StrategyKind::Fourier => {
            let space = CoefficientSpace::from_marginals(d, &targets);
            // b_β = Σ_{α ⊇ β, α ∈ W} 2^{‖α‖} · (2^{d/2−‖α‖})²
            //     = Σ 2^{d−‖α‖}; singleton groups with C = 2^{−d/2}.
            let c = 2f64.powf(-(d as f64) / 2.0);
            let specs = space
                .support()
                .par_iter()
                .map(|&beta| {
                    let s = targets
                        .iter()
                        .filter(|&&alpha| beta.dominated_by(alpha))
                        .map(|&alpha| 2f64.powi((d as u32 - alpha.weight()) as i32))
                        .sum();
                    GroupSpec { c, s }
                })
                .collect();
            let row_groups = (0..space.len() as u32).collect();
            (specs, row_groups, Kind::Fourier { targets, space })
        }
    })
}

/// Shared construction for the `Workload` and `Cluster` strategies:
/// coefficient space, observation operator and one group per observed
/// marginal with `s_r` given by `weights` (aligned index-for-index with
/// `observed`).
fn observed_marginals(
    d: usize,
    observed: Vec<AttrMask>,
    targets: Vec<AttrMask>,
    weights: Vec<f64>,
    clustering: Option<Clustering>,
) -> Result<(Vec<GroupSpec>, Vec<u32>, Kind), CoreError> {
    let space = CoefficientSpace::from_marginals(d, &observed);
    let op = ObservationOperator::new(&space, &observed)?;
    let specs = weights.iter().map(|&s| GroupSpec { c: 1.0, s }).collect();
    let mut row_groups = Vec::new();
    for (g, m) in observed.iter().enumerate() {
        row_groups.extend(std::iter::repeat_n(g as u32, m.cell_count()));
    }
    let kind = Kind::ObservedMarginals {
        targets,
        observed,
        space,
        op,
        clustering,
    };
    Ok((specs, row_groups, kind))
}

/// The exact Fourier coefficients of the support, filled from the target
/// marginals (summed from the occupied cells, see [`count_marginals`],
/// plus per-block WHTs with one shared WHT buffer).
pub(crate) fn fourier_observations(
    x: &[f64],
    space: &CoefficientSpace,
    targets: &[AttrMask],
) -> Result<Vec<f64>, CoreError> {
    let mut coeffs = vec![0.0; space.len()];
    let mut scratch = Vec::new();
    for m in count_marginals(x, space.domain_bits(), targets) {
        space.fill_from_marginal_with(&mut coeffs, &m, &mut scratch)?;
    }
    Ok(coeffs)
}

/// Every target marginal from a coefficient vector: one block WHT per
/// target, in parallel.
pub(crate) fn reconstruct(
    space: &CoefficientSpace,
    coeffs: &[f64],
    targets: &[AttrMask],
) -> Result<Vec<MarginalTable>, CoreError> {
    targets
        .par_iter()
        .map(|&alpha| space.reconstruct(coeffs, alpha))
        .collect()
}

/// Per-marginal variances of the Fourier strategy's recovery: marginal α
/// reconstructs from the coefficients β ≼ α, each contributing
/// 2^{d−‖α‖} σ_β² (the same per-(α,β) weight that builds the group specs).
pub(crate) fn fourier_variances(
    space: &CoefficientSpace,
    targets: &[AttrMask],
    group_sigma2: &[f64],
) -> Vec<f64> {
    let d = space.domain_bits() as u32;
    targets
        .par_iter()
        .map(|&alpha| {
            let scale = 2f64.powi((d - alpha.weight()) as i32);
            alpha
                .subsets()
                .map(|beta| {
                    let pos = space
                        .position(beta)
                        .expect("support contains every workload downset");
                    scale * group_sigma2[pos]
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PlanBuilder, Session};
    use crate::table::ContingencyTable;
    use dp_mech::{Neighboring, PrivacyLevel};
    use std::sync::Arc;

    fn small_table() -> ContingencyTable {
        // 4-bit table with 100 tuples in a skewed pattern.
        let mut counts = vec![0.0; 16];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ((i * 7) % 13) as f64;
        }
        ContingencyTable::from_counts(counts)
    }

    fn workload2() -> Workload {
        let schema = crate::schema::Schema::binary(4).unwrap();
        Workload::all_k_way(&schema, 2).unwrap()
    }

    /// A plan for `w` bound to [`small_table`].
    fn session(
        w: &Workload,
        strategy: StrategyKind,
        budgeting: Budgeting,
        privacy: PrivacyLevel,
    ) -> Session {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .budgeting(budgeting)
            .privacy(privacy)
            .compile()
            .unwrap();
        Session::bind(Arc::new(plan), &small_table()).unwrap()
    }

    fn check_consistent(answers: &[MarginalTable]) {
        // Every pair of answers must agree on the marginal of their
        // intersection (a necessary and, for downward-closed recovery from
        // a single coefficient vector, sufficient consistency condition).
        for i in 0..answers.len() {
            for j in (i + 1)..answers.len() {
                let common = answers[i].mask().intersect(answers[j].mask());
                let a = answers[i].aggregate_to(common).unwrap();
                let b = answers[j].aggregate_to(common).unwrap();
                for (x, y) in a.values().iter().zip(b.values()) {
                    assert!((x - y).abs() < 1e-6, "inconsistent at {common}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn all_strategies_release_and_are_consistent() {
        let w = workload2();
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let pure = PrivacyLevel::Pure { epsilon: 1.0 };
                let r = session(&w, strategy, budgeting, pure).release(5).unwrap();
                let answers = r.answers.marginals().unwrap();
                assert_eq!(answers.len(), w.len());
                assert!(r.achieved_epsilon <= 1.0 + 1e-9, "{strategy:?}");
                assert!(r.predicted_variance > 0.0);
                check_consistent(answers);
            }
        }
    }

    #[test]
    fn gaussian_release_works() {
        let w = workload2();
        let approx = PrivacyLevel::Approx {
            epsilon: 1.0,
            delta: 1e-5,
        };
        for strategy in [StrategyKind::Workload, StrategyKind::Fourier] {
            let r = session(&w, strategy, Budgeting::Optimal, approx)
                .release(6)
                .unwrap();
            assert!(r.achieved_epsilon <= 1.0 + 1e-9);
            check_consistent(r.answers.marginals().unwrap());
        }
    }

    #[test]
    fn labels() {
        let w = workload2();
        let pure = PrivacyLevel::Pure { epsilon: 1.0 };
        let s = session(&w, StrategyKind::Fourier, Budgeting::Optimal, pure);
        assert_eq!(s.plan().label(), "F+");
        let s = session(&w, StrategyKind::Cluster, Budgeting::Uniform, pure);
        assert_eq!(s.plan().label(), "C");
        assert!(s.plan().clustering().is_some());
        assert_eq!(s.plan().spec().num_queries(), w.len());
    }

    #[test]
    fn optimal_budgets_never_increase_predicted_variance() {
        // A workload with heterogeneous marginal sizes so budgets matter.
        let w = Workload::new(
            4,
            vec![AttrMask(0b0001), AttrMask(0b0111), AttrMask(0b1100)],
        )
        .unwrap();
        let pure = PrivacyLevel::Pure { epsilon: 0.5 };
        for strategy in [
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            let uni = session(&w, strategy, Budgeting::Uniform, pure)
                .release(7)
                .unwrap();
            let opt = session(&w, strategy, Budgeting::Optimal, pure)
                .release(8)
                .unwrap();
            assert!(
                opt.predicted_variance <= uni.predicted_variance * (1.0 + 1e-9),
                "{strategy:?}: {} vs {}",
                opt.predicted_variance,
                uni.predicted_variance
            );
        }
    }

    #[test]
    fn replace_neighboring_doubles_noise_scale() {
        let release = |neighboring: Neighboring| {
            let plan = PlanBuilder::marginals(workload2(), StrategyKind::Workload)
                .budgeting(Budgeting::Uniform)
                .neighboring(neighboring)
                .compile()
                .unwrap();
            Session::bind(Arc::new(plan), &small_table())
                .unwrap()
                .release(8)
                .unwrap()
        };
        let add_remove = release(Neighboring::AddRemove);
        let replace = release(Neighboring::Replace);
        for (a, b) in add_remove.group_budgets.iter().zip(&replace.group_budgets) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        assert!((replace.predicted_variance - 4.0 * add_remove.predicted_variance).abs() < 1e-6);
    }

    #[test]
    fn identity_strategy_uniform_equals_optimal() {
        // Single group ⇒ budgeting mode is irrelevant (paper: "for I the
        // optimal noise allocation is always uniform").
        let w = workload2();
        let pure = PrivacyLevel::Pure { epsilon: 1.0 };
        let uni = session(&w, StrategyKind::Identity, Budgeting::Uniform, pure)
            .release(9)
            .unwrap();
        let opt = session(&w, StrategyKind::Identity, Budgeting::Optimal, pure)
            .release(10)
            .unwrap();
        assert_eq!(uni.group_budgets, opt.group_budgets);
        assert!((uni.predicted_variance - opt.predicted_variance).abs() < 1e-9);
    }

    #[test]
    fn releases_are_deterministic_per_seed() {
        let w = workload2();
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            let pure = PrivacyLevel::Pure { epsilon: 1.0 };
            let s = session(&w, strategy, Budgeting::Optimal, pure);
            let a = s.release(1234).unwrap();
            let b = s.release(1234).unwrap();
            let pairs = a.answers.marginals().unwrap().iter();
            for (ma, mb) in pairs.zip(b.answers.marginals().unwrap()) {
                assert_eq!(ma.values(), mb.values(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn noise_magnitude_tracks_epsilon() {
        // Smaller ε must yield larger error on average.
        let t = small_table();
        let w = workload2();
        let exact = w.true_answers(&t);
        let seeds: Vec<u64> = (1..=30).collect();
        let err = |eps: f64| -> f64 {
            let pure = PrivacyLevel::Pure { epsilon: eps };
            let s = session(&w, StrategyKind::Fourier, Budgeting::Optimal, pure);
            let mut total = 0.0;
            for r in s.release_batch(&seeds).unwrap() {
                for (a, e) in r.answers.marginals().unwrap().iter().zip(&exact) {
                    total += a.l1_distance(e).unwrap();
                }
            }
            total
        };
        let loose = err(10.0);
        let tight = err(0.1);
        assert!(
            tight > 10.0 * loose,
            "ε=0.1 error {tight} vs ε=10 error {loose}"
        );
    }

    #[test]
    fn mismatched_domain_rejected() {
        let plan = PlanBuilder::marginals(workload2(), StrategyKind::Identity)
            .budgeting(Budgeting::Uniform)
            .compile()
            .unwrap();
        assert!(matches!(
            Session::bind(Arc::new(plan), &ContingencyTable::zeros(3)),
            Err(CoreError::Shape { .. })
        ));
    }

    #[test]
    fn unbiasedness_of_marginal_strategies() {
        // Average of many releases approaches the exact answers
        // (Lemma 3.5: GLS recovery is unbiased).
        let t = small_table();
        let w = Workload::new(4, vec![AttrMask(0b0011), AttrMask(0b0110)]).unwrap();
        let pure = PrivacyLevel::Pure { epsilon: 2.0 };
        let s = session(&w, StrategyKind::Workload, Budgeting::Optimal, pure);
        let exact = w.true_answers(&t);
        let trials = 3000;
        let seeds: Vec<u64> = (11..11 + trials).collect();
        let mut mean = [vec![0.0; 4], vec![0.0; 4]];
        for r in s.release_batch(&seeds).unwrap() {
            for (acc, ans) in mean.iter_mut().zip(r.answers.marginals().unwrap()) {
                for (a, v) in acc.iter_mut().zip(ans.values()) {
                    *a += v / trials as f64;
                }
            }
        }
        for (acc, ex) in mean.iter().zip(&exact) {
            for (a, e) in acc.iter().zip(ex.values()) {
                assert!((a - e).abs() < 0.5, "mean {a} vs exact {e}");
            }
        }
    }
}
