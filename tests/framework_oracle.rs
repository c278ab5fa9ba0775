//! Oracle tests: the fast Fourier-space marginal pipeline must agree with
//! the literal dense-matrix framework (explicit `Q`, `S`, Eq.-(7) GLS) on
//! small domains, and the noise budgets must satisfy Proposition 3.1's
//! privacy constraints computed from the explicit strategy matrices.

use datacube_dp::prelude::*;
use dp_core::fourier::{CoefficientSpace, ObservationOperator};
use dp_core::framework::{gls_recovery, output_variances};
use dp_linalg::Matrix;
use dp_mech::privacy::verify_pure_budgets;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_table(d: usize, seed: u64) -> ContingencyTable {
    let mut rng = StdRng::seed_from_u64(seed);
    ContingencyTable::from_counts((0..1usize << d).map(|_| rng.gen_range(0.0..9.0)).collect())
}

/// Explicit strategy matrix for `S = Q` (rows = workload marginal cells).
fn workload_strategy_matrix(w: &Workload) -> Matrix {
    w.query_matrix()
}

#[test]
fn fourier_space_gls_matches_dense_gls_recovery() {
    // Strategy S = Q on a 4-bit domain with non-uniform per-marginal
    // budgets: the coefficient-space estimate must equal the dense GLS
    // projection of the same noisy observations.
    let d = 4;
    let table = random_table(d, 1);
    let w = Workload::new(
        d,
        vec![AttrMask(0b0011), AttrMask(0b0110), AttrMask(0b1001)],
    )
    .unwrap();
    let s = workload_strategy_matrix(&w);
    let exact_cells = s.matvec(table.counts()).unwrap();

    // Inconsistent observations with per-marginal noise variances.
    let variances_per_marginal: [f64; 3] = [0.5, 2.0, 1.0];
    let mut rng = StdRng::seed_from_u64(2);
    let mut noisy = exact_cells.clone();
    let mut row_vars = Vec::new();
    for (i, &alpha) in w.marginals().iter().enumerate() {
        for _ in 0..alpha.cell_count() {
            row_vars.push(variances_per_marginal[i]);
        }
    }
    for (v, &var) in noisy.iter_mut().zip(&row_vars) {
        *v += rng.gen_range(-1.0..1.0) * var.sqrt();
    }

    // Fast path: Fourier-space GLS.
    let space = CoefficientSpace::from_marginals(d, w.marginals());
    let op = ObservationOperator::new(&space, w.marginals()).unwrap();
    let weights: Vec<f64> = variances_per_marginal.iter().map(|v| 1.0 / v).collect();
    let coeffs = op.gls_solve(&noisy, &weights).unwrap();
    let fast = op.apply(&coeffs).into_cells();

    // Oracle: dense GLS. S = Q is rank-deficient over N, so augment with a
    // tiny-weight identity block to make SᵀΣ⁻¹S invertible; the large
    // variance makes the augmentation's influence negligible.
    let n = 1usize << d;
    let mut rows: Vec<Vec<f64>> = (0..s.rows()).map(|i| s.row(i).to_vec()).collect();
    for i in 0..n {
        let mut r = vec![0.0; n];
        r[i] = 1.0;
        rows.push(r);
    }
    let s_aug = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
    let mut vars_aug = row_vars.clone();
    vars_aug.extend(std::iter::repeat_n(1e8, n));
    let q = w.query_matrix();
    let r_gls = gls_recovery(&q, &s_aug, &vars_aug).unwrap();
    let mut z_aug = noisy.clone();
    z_aug.extend(std::iter::repeat_n(0.0, n));
    let oracle = r_gls.matvec(&z_aug).unwrap();

    for (a, b) in fast.iter().zip(&oracle) {
        assert!((a - b).abs() < 1e-3, "fast {a} vs oracle {b}");
    }
}

#[test]
fn predicted_gls_variances_match_dense_oracle_for_figure1() {
    // The example module's coefficient-space variance formula vs the dense
    // Eq.-(7) construction, on the Figure-1 workload with optimal budgets.
    let vars_fast = dp_core::example::gls_output_variances(1.0);

    let w = dp_core::example::workload();
    let budgets = dp_core::example::optimal_budgets(1.0);
    let q = w.query_matrix();
    // S = Q with per-row variances from the group budgets.
    let mut row_vars = Vec::new();
    for (i, &alpha) in w.marginals().iter().enumerate() {
        for _ in 0..alpha.cell_count() {
            row_vars.push(2.0 / (budgets[i] * budgets[i]));
        }
    }
    // Augment for invertibility as above.
    let n = 8;
    let mut rows: Vec<Vec<f64>> = (0..q.rows()).map(|i| q.row(i).to_vec()).collect();
    for i in 0..n {
        let mut r = vec![0.0; n];
        r[i] = 1.0;
        rows.push(r);
    }
    let s_aug = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
    let mut vars_aug = row_vars.clone();
    vars_aug.extend(std::iter::repeat_n(1e8, n));
    let r_gls = gls_recovery(&q, &s_aug, &vars_aug).unwrap();
    let vars_dense = output_variances(&r_gls, &vars_aug).unwrap();

    for (fast, dense) in vars_fast.iter().zip(&vars_dense) {
        assert!(
            (fast - dense).abs() / fast < 1e-4,
            "fast {fast} vs dense {dense}"
        );
    }
}

#[test]
fn budgets_satisfy_proposition_31_on_explicit_matrices() {
    // Build the explicit S for each strategy on a small domain and verify
    // the pure-DP constraint Σ_i |S_ij| ε_i ≤ ε column by column.
    let d = 4;
    let table = random_table(d, 3);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::k_way_plus_half(&schema, 1).unwrap();
    let eps = 0.7;

    for strategy in [
        StrategyKind::Workload,
        StrategyKind::Fourier,
        StrategyKind::Cluster,
    ] {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: eps })
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        let release = session.release(4).unwrap();

        // Reconstruct the explicit strategy matrix and per-row budgets.
        let (s, row_budgets): (Matrix, Vec<f64>) = match strategy {
            StrategyKind::Workload => {
                let s = w.query_matrix();
                let mut budgets = Vec::new();
                for (g, &alpha) in w.marginals().iter().enumerate() {
                    budgets.extend(std::iter::repeat_n(
                        release.group_budgets[g],
                        alpha.cell_count(),
                    ));
                }
                (s, budgets)
            }
            StrategyKind::Fourier => {
                let support = w.fourier_support();
                let n = 1usize << d;
                let mut m = Matrix::zeros(support.len(), n);
                for (i, &beta) in support.iter().enumerate() {
                    for col in 0..n as u64 {
                        m[(i, col as usize)] = beta.sign(AttrMask(col)) / 2f64.powf(d as f64 / 2.0);
                    }
                }
                (m, release.group_budgets.clone())
            }
            StrategyKind::Cluster => {
                let clustering = session.plan().clustering().unwrap();
                let masks = clustering.centroids().to_vec();
                let cluster_workload = Workload::new(d, masks.clone()).unwrap();
                let s = cluster_workload.query_matrix();
                let mut budgets = Vec::new();
                for (g, &u) in cluster_workload.marginals().iter().enumerate() {
                    budgets.extend(std::iter::repeat_n(
                        release.group_budgets[g],
                        u.cell_count(),
                    ));
                }
                (s, budgets)
            }
            StrategyKind::Identity => unreachable!(),
        };

        // Column profiles.
        let cols: Vec<Vec<(usize, f64)>> = (0..s.cols())
            .map(|j| {
                (0..s.rows())
                    .filter(|&i| s[(i, j)] != 0.0)
                    .map(|i| (i, s[(i, j)].abs()))
                    .collect()
            })
            .collect();
        let feas = verify_pure_budgets(
            cols.iter().map(|c| c.as_slice()),
            &row_budgets,
            eps,
            dp_mech::Neighboring::AddRemove,
        );
        assert!(
            feas.feasible,
            "{strategy:?}: achieved ε {} > {eps}",
            feas.achieved_epsilon
        );
        // And it should be tight (all of ε used) for these strategies.
        assert!(
            feas.achieved_epsilon > 0.99 * eps,
            "{strategy:?}: budgets waste privacy ({} of {eps})",
            feas.achieved_epsilon
        );
    }
}
