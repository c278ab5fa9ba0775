//! The paper's worked example (Section 1, Figure 1), reproduced end to end
//! with the library's own components. The numbers asserted in this module's
//! tests are the ones printed in the paper:
//!
//! * uniform noise on `S = Q`: total variance `48/ε²`;
//! * optimal non-uniform budgets (`4ε/9`, `5ε/9`): total `46.17/ε²`;
//! * the paper's hand recovery (half of `z₁` plus half of `z₃+z₄`):
//!   per-query variance `5.77/ε²`, total `34.6/ε²`;
//! * the *full* GLS recovery of Step 3 does even better (`≈ 30/ε²`),
//!   because the paper's hand combination is illustrative, not optimal.

use crate::mask::AttrMask;
use crate::table::ContingencyTable;
use crate::workload::Workload;

/// The Figure 1(a) contingency table: 5 tuples over binary attributes
/// A, B, C (A is the most significant bit, matching the paper's
/// linearization 000, 001, …, 111).
pub fn table() -> ContingencyTable {
    ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
}

/// The Figure 1(b) workload: the marginal over `A` and the marginal over
/// `A,B`.
pub fn workload() -> Workload {
    Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).expect("static workload is valid")
}

/// Total variance of answering `S = Q` with **uniform** budgets at privacy
/// ε, computed through the grouped-budget machinery: `48/ε²`.
pub fn uniform_total_variance(epsilon: f64) -> f64 {
    let specs = group_specs();
    let sol =
        dp_opt::budget::uniform_group_budgets(&specs, epsilon).expect("example groups are valid");
    2.0 * sol.objective
}

/// Total variance with the **optimal** budgets of Section 3.1: `46.17/ε²`.
pub fn optimal_total_variance(epsilon: f64) -> f64 {
    let specs = group_specs();
    let sol =
        dp_opt::budget::optimal_group_budgets(&specs, epsilon).expect("example groups are valid");
    2.0 * sol.objective
}

/// The optimal group budgets themselves (`≈ 4ε/9` for the `A` rows,
/// `≈ 5ε/9` for the `A,B` rows).
pub fn optimal_budgets(epsilon: f64) -> Vec<f64> {
    dp_opt::budget::optimal_group_budgets(&group_specs(), epsilon)
        .expect("example groups are valid")
        .group_budgets
}

/// Group specs for `S = Q`, `R₀ = I`: group `A` has 2 rows of weight 1,
/// group `AB` has 4 (the `s` values are the summed squared recovery
/// weights, without the Laplace factor 2 which multiplies the objective).
fn group_specs() -> Vec<dp_opt::budget::GroupSpec> {
    vec![
        dp_opt::budget::GroupSpec { c: 1.0, s: 2.0 },
        dp_opt::budget::GroupSpec { c: 1.0, s: 4.0 },
    ]
}

/// Variance of the paper's hand recovery for `Q₁` — half the noisy `A=0`
/// count plus half the two noisy `A=0` cells of the `A,B` marginal:
/// `5.77/ε²`.
pub fn hand_recovery_variance_q1(epsilon: f64) -> f64 {
    let budgets = optimal_budgets(epsilon);
    let var_a = 2.0 / (budgets[0] * budgets[0]);
    let var_ab = 2.0 / (budgets[1] * budgets[1]);
    0.25 * var_a + 0.25 * var_ab + 0.25 * var_ab
}

/// Per-query output variances of the full GLS recovery (Step 3) in
/// Fourier-coefficient space, ordered as the 6 rows of Figure 1(b).
pub fn gls_output_variances(epsilon: f64) -> Vec<f64> {
    let budgets = optimal_budgets(epsilon);
    let w = workload();
    let space = crate::fourier::CoefficientSpace::from_marginals(3, w.marginals());
    // Weights = inverse noise variances per observed marginal.
    let weights: Vec<f64> = budgets.iter().map(|&e| e * e / 2.0).collect();
    // diag of RᵀWR per coefficient (see ObservationOperator::gls_solve).
    let mut diag = vec![0.0; space.len()];
    for (&alpha, &wt) in w.marginals().iter().zip(&weights) {
        let scale = 2f64.powf(3.0 / 2.0 - alpha.weight() as f64);
        let contribution = wt * scale * scale * alpha.cell_count() as f64;
        for beta in alpha.subsets() {
            diag[space.position(beta).expect("subset in support")] += contribution;
        }
    }
    // Var(answer cell of α) = scale_α² Σ_{β ≼ α} 1/diag_β.
    let mut out = Vec::new();
    for &alpha in w.marginals() {
        let scale = 2f64.powf(3.0 / 2.0 - alpha.weight() as f64);
        let var: f64 = alpha
            .subsets()
            .map(|beta| 1.0 / diag[space.position(beta).expect("subset in support")])
            .sum::<f64>()
            * scale
            * scale;
        for _ in 0..alpha.cell_count() {
            out.push(var);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1.0;

    #[test]
    fn figure1_uniform_variance_is_48() {
        assert!((uniform_total_variance(EPS) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn figure1_optimal_variance_is_46_17() {
        let v = optimal_total_variance(EPS);
        assert!((v - 46.17).abs() < 0.01, "{v}");
    }

    #[test]
    fn figure1_optimal_budgets_are_4_9_and_5_9() {
        let b = optimal_budgets(EPS);
        // The paper rounds to 4ε/9 and 5ε/9; the exact optimum is within
        // 0.002 of those.
        assert!((b[0] - 4.0 / 9.0).abs() < 2e-3, "{b:?}");
        assert!((b[1] - 5.0 / 9.0).abs() < 2e-3, "{b:?}");
    }

    #[test]
    fn figure1_hand_recovery_gives_5_77_per_query() {
        let v = hand_recovery_variance_q1(EPS);
        assert!((v - 5.77).abs() < 0.02, "{v}");
        // Six queries at that variance give the paper's 34.6 total.
        assert!((6.0 * v - 34.6).abs() < 0.1);
    }

    #[test]
    fn figure1_full_gls_beats_hand_recovery() {
        let vars = gls_output_variances(EPS);
        assert_eq!(vars.len(), 6);
        let hand = hand_recovery_variance_q1(EPS);
        let total: f64 = vars.iter().sum();
        // GLS minimizes every query's variance simultaneously
        // (Gauss–Markov), so each must be ≤ the hand combination's 5.77.
        for &v in &vars[..2] {
            assert!(v <= hand + 1e-9, "{v} vs {hand}");
        }
        assert!(total < 34.6);
        // And non-uniform + GLS beats plain uniform 48 by a wide margin.
        assert!(total < 0.75 * uniform_total_variance(EPS));
    }

    #[test]
    fn variance_improvement_chain_matches_paper_ordering() {
        // 48 (uniform) > 46.17 (budgets) > 34.6 (hand) > GLS total.
        let uniform = uniform_total_variance(EPS);
        let optimal = optimal_total_variance(EPS);
        let hand_total = 6.0 * hand_recovery_variance_q1(EPS);
        let gls_total: f64 = gls_output_variances(EPS).iter().sum();
        assert!(uniform > optimal);
        assert!(optimal > hand_total);
        assert!(hand_total > gls_total);
    }

    #[test]
    fn empirical_release_matches_predicted_gls_variance() {
        // Monte-Carlo check: the Workload-strategy release with optimal
        // budgets should empirically achieve the analytic GLS variances.
        use crate::api::{PlanBuilder, Session};
        use crate::release::{Budgeting, StrategyKind};

        let t = table();
        let w = workload();
        let exact = w.true_answers(&t);
        let plan = PlanBuilder::marginals(w.clone(), StrategyKind::Workload)
            .budgeting(Budgeting::Optimal)
            .privacy(dp_mech::PrivacyLevel::Pure { epsilon: EPS })
            .compile()
            .unwrap();
        let session = Session::bind(std::sync::Arc::new(plan), &t).unwrap();
        let trials = 4000;
        let mut sq = [0.0; 6];
        let seeds: Vec<u64> = (0..trials as u64).map(|s| 99 + s).collect();
        for r in session.release_batch(&seeds).unwrap() {
            let answers = r.answers.into_marginals().unwrap();
            let mut idx = 0;
            for ((_, ans), (_, ex)) in answers.iter().zip(exact.iter()) {
                for (a, e) in ans.iter().zip(ex) {
                    sq[idx] += (a - e) * (a - e) / trials as f64;
                    idx += 1;
                }
            }
        }
        let predicted = gls_output_variances(EPS);
        for (emp, pred) in sq.iter().zip(&predicted) {
            assert!(
                (emp - pred).abs() / pred < 0.15,
                "empirical {emp} vs predicted {pred}"
            );
        }
    }
}
