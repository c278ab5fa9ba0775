//! Consistency under `L1` and `L∞` (Sections 3.3 and 4.3 of the paper).
//!
//! The GLS recovery already returns the `L2`-closest *consistent* answers
//! (that path lives in [`crate::fourier::ObservationOperator::gls_solve`]).
//! For `p ∈ {1, ∞}` the paper formulates a linear program over the Fourier
//! coefficients — `m = |F|` variables instead of the `N = 2^d` variables of
//! prior work — which this module builds and solves with the `dp-opt`
//! simplex. The marginals' block map ([`ObservationOperator`]) lays out
//! the program: each cell's row sits at its block's coefficient positions,
//! and the fitted marginals are the block map applied to the solution.
//! Every function here takes a [`MarginalSet`], whose one buffer is the
//! program's cell order.

use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::{aggregate, marginal_fourier_entry, MarginalSet};
use crate::CoreError;
use dp_opt::simplex::{solve_lp, ConstraintOp, LinearProgram};

/// Which norm the consistency step minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyNorm {
    /// Minimize the summed absolute cell deviation (average error).
    L1,
    /// Minimize the maximum cell deviation.
    LInf,
}

/// Finds the consistent marginals closest (in the chosen norm) to the given
/// noisy marginals, by optimizing over their Fourier coefficients.
///
/// Returns the consistent marginals in the same layout. The sizes are the
/// paper's: `2m + K` (+1 for `L∞`) LP variables for `K` observed cells,
/// versus `N`-variable programs in prior work.
pub fn make_consistent(
    d: usize,
    noisy: &MarginalSet,
    norm: ConsistencyNorm,
) -> Result<MarginalSet, CoreError> {
    if noisy.is_empty() {
        return Ok(noisy.clone());
    }
    let masks = noisy.masks();
    let op = ObservationOperator::new(&CoefficientSpace::from_marginals(d, masks), masks)?;
    let m = op.num_coeffs();
    let k = op.num_cells();

    // Variable layout: [f⁺ (m)][f⁻ (m)][residual vars].
    // L1: residuals e_1..e_K, objective Σ e.
    // L∞: single residual t, objective t.
    let num_resid = match norm {
        ConsistencyNorm::L1 => k,
        ConsistencyNorm::LInf => 1,
    };
    let nvars = 2 * m + num_resid;
    let mut objective = vec![0.0; nvars];
    for obj in objective.iter_mut().skip(2 * m) {
        *obj = 1.0;
    }

    let mut constraints: Vec<(Vec<f64>, ConstraintOp, f64)> = Vec::with_capacity(2 * k);
    let mut cell_index = 0usize;
    for (i, (alpha, cells)) in noisy.iter().enumerate() {
        for (rank, &y) in cells.iter().enumerate() {
            let gamma = alpha.expand_cell(rank);
            // Row of R over the coefficient space, at the block's positions.
            let mut pos_row = vec![0.0; nvars];
            for (beta, &j) in alpha.subsets().zip(op.positions(i)) {
                let entry = marginal_fourier_entry(d, alpha, beta, gamma);
                pos_row[j as usize] = entry;
                pos_row[m + j as usize] = -entry;
            }
            let resid_col = match norm {
                ConsistencyNorm::L1 => 2 * m + cell_index,
                ConsistencyNorm::LInf => 2 * m,
            };
            // R f − y ≤ e  and  −(R f − y) ≤ e.
            let mut upper = pos_row.clone();
            upper[resid_col] = -1.0;
            constraints.push((upper, ConstraintOp::Le, y));
            let mut lower: Vec<f64> = pos_row.iter().map(|v| -v).collect();
            lower[resid_col] = -1.0;
            constraints.push((lower, ConstraintOp::Le, -y));
            cell_index += 1;
        }
    }

    let lp = LinearProgram {
        objective,
        constraints,
    };
    let sol = solve_lp(&lp).map_err(|e| CoreError::Opt(e.into()))?;
    let coeffs: Vec<f64> = (0..m).map(|j| sol.x[j] - sol.x[m + j]).collect();
    Ok(op.apply(&coeffs))
}

/// The triangle-inequality utility guarantee of Section 3.3: applied to
/// the output of [`make_consistent`], the additional `Lp` error introduced
/// by consistency is at most the `Lp` error of the noisy input, i.e. the
/// error at most doubles. This helper measures both sides for a test or
/// report: returns `(‖noisy − exact‖_p, ‖consistent − exact‖_p)`.
///
/// # Panics
/// Panics unless the three sets share one layout.
pub fn consistency_error_pair(
    exact: &MarginalSet,
    noisy: &MarginalSet,
    consistent: &MarginalSet,
    norm: ConsistencyNorm,
) -> (f64, f64) {
    let err = |a: &MarginalSet, b: &MarginalSet| -> f64 {
        assert_eq!(a.masks(), b.masks(), "the marginal sets differ in layout");
        let devs = a.cells().iter().zip(b.cells()).map(|(u, v)| (u - v).abs());
        match norm {
            ConsistencyNorm::L1 => devs.sum(),
            ConsistencyNorm::LInf => devs.fold(0.0f64, f64::max),
        }
    };
    (err(noisy, exact), err(consistent, exact))
}

/// Checks whether a set of marginals is mutually consistent: every pair
/// must agree on the marginal over the intersection of their masks, up to
/// `tol`. (This is necessary for consistency with a common dataset, and —
/// for answers reconstructed from a single coefficient vector, as ours are
/// — also sufficient.)
pub fn is_consistent(marginals: &MarginalSet, tol: f64) -> bool {
    for (i, (mi, ci)) in marginals.iter().enumerate() {
        for (mj, cj) in marginals.iter().skip(i + 1) {
            let common = mi.intersect(mj);
            let (Ok(a), Ok(b)) = (aggregate(mi, ci, common), aggregate(mj, cj, common)) else {
                return false;
            };
            if a.iter().zip(&b).any(|(x, y)| (x - y).abs() > tol) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::AttrMask;
    use crate::table::ContingencyTable;
    use crate::workload::Workload;

    fn setup() -> (ContingencyTable, Workload) {
        let t = ContingencyTable::from_counts(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let w = Workload::new(3, vec![AttrMask(0b011), AttrMask(0b110), AttrMask(0b101)]).unwrap();
        (t, w)
    }

    fn perturb(exact: &MarginalSet, deltas: &[f64]) -> MarginalSet {
        let mut noisy = exact.clone();
        for (i, v) in noisy.cells_mut().iter_mut().enumerate() {
            *v += deltas[i % deltas.len()];
        }
        noisy
    }

    #[test]
    fn already_consistent_input_is_unchanged() {
        let (t, w) = setup();
        let exact = w.true_answers(&t);
        for norm in [ConsistencyNorm::L1, ConsistencyNorm::LInf] {
            let fixed = make_consistent(3, &exact, norm).unwrap();
            for ((_, a), (_, b)) in fixed.iter().zip(exact.iter()) {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-6, "{norm:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn output_is_always_consistent() {
        let (t, w) = setup();
        let exact = w.true_answers(&t);
        let noisy = perturb(&exact, &[2.5, -1.0, 0.7, -3.0, 1.1]);
        assert!(!is_consistent(&noisy, 1e-6));
        for norm in [ConsistencyNorm::L1, ConsistencyNorm::LInf] {
            let fixed = make_consistent(3, &noisy, norm).unwrap();
            assert!(is_consistent(&fixed, 1e-6), "{norm:?}");
        }
    }

    #[test]
    fn error_at_most_doubles() {
        // The paper's triangle-inequality guarantee.
        let (t, w) = setup();
        let exact = w.true_answers(&t);
        let noisy = perturb(&exact, &[2.0, -2.0, 1.0, -1.0]);
        for norm in [ConsistencyNorm::L1, ConsistencyNorm::LInf] {
            let fixed = make_consistent(3, &noisy, norm).unwrap();
            let (before, after) = consistency_error_pair(&exact, &noisy, &fixed, norm);
            assert!(
                after <= 2.0 * before + 1e-6,
                "{norm:?}: before {before}, after {after}"
            );
        }
    }

    #[test]
    fn linf_minimizes_max_deviation_from_input() {
        let (t, w) = setup();
        let exact = w.true_answers(&t);
        let noisy = perturb(&exact, &[4.0, -4.0]);
        let l1 = make_consistent(3, &noisy, ConsistencyNorm::L1).unwrap();
        let linf = make_consistent(3, &noisy, ConsistencyNorm::LInf).unwrap();
        let max_dev = |a: &MarginalSet| -> f64 {
            a.cells()
                .iter()
                .zip(noisy.cells())
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_dev(&linf) <= max_dev(&l1) + 1e-6);
    }

    #[test]
    fn l1_minimizes_total_deviation_from_input() {
        let (t, w) = setup();
        let exact = w.true_answers(&t);
        let noisy = perturb(&exact, &[4.0, -1.0, 0.5]);
        let l1 = make_consistent(3, &noisy, ConsistencyNorm::L1).unwrap();
        let linf = make_consistent(3, &noisy, ConsistencyNorm::LInf).unwrap();
        let total_dev = |a: &MarginalSet| -> f64 {
            a.cells()
                .iter()
                .zip(noisy.cells())
                .map(|(u, v)| (u - v).abs())
                .sum()
        };
        assert!(total_dev(&l1) <= total_dev(&linf) + 1e-6);
    }

    #[test]
    fn empty_input() {
        let empty = MarginalSet::new(Vec::new(), Vec::new());
        assert!(make_consistent(3, &empty, ConsistencyNorm::L1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn is_consistent_detects_disagreement() {
        let masks = vec![AttrMask(0b01), AttrMask(0b10)];
        let good = MarginalSet::new(masks.clone(), vec![3.0, 2.0, 4.0, 1.0]);
        assert!(is_consistent(&good, 1e-9)); // totals agree (5 = 5)
        let bad = MarginalSet::new(masks, vec![3.0, 2.0, 4.0, 2.0]);
        assert!(!is_consistent(&bad, 1e-9)); // totals 5 vs 6
    }
}
