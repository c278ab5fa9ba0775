//! Error metrics matching the paper's evaluation (Section 5).
//!
//! The paper measures "the average absolute error per entry in the set of
//! marginal queries", scaled "by the mean true answer of its respective
//! marginal query" to give a *relative* error.
//!
//! Every metric takes released and exact answers as [`MarginalSet`]s (a
//! release's [`crate::api::Answers::marginals`] and
//! [`crate::workload::Workload::true_answers`]), checks once that the two
//! share one layout, and sums each marginal's cells on its own before
//! combining marginals.

use crate::marginal::MarginalSet;
use crate::CoreError;

/// Checks once that `answers` and `exact` share one layout: the same
/// number of marginals, over the same masks.
fn check_layout(
    context: &'static str,
    answers: &MarginalSet,
    exact: &MarginalSet,
) -> Result<(), CoreError> {
    if answers.len() != exact.len() {
        return Err(CoreError::Shape {
            context,
            expected: exact.len(),
            actual: answers.len(),
        });
    }
    if answers.masks() != exact.masks() {
        return Err(CoreError::Singular("marginal mask mismatch in metrics"));
    }
    Ok(())
}

/// `‖a − e‖₁` of one marginal's cells (the error measure
/// `‖Cα x − C̃α‖₁` of Section 4.2).
fn l1(a: &[f64], e: &[f64]) -> f64 {
    a.iter().zip(e).map(|(x, y)| (x - y).abs()).sum()
}

/// Average absolute error per released cell across a set of marginals.
pub fn average_absolute_error(
    answers: &MarginalSet,
    exact: &MarginalSet,
) -> Result<f64, CoreError> {
    check_layout("average_absolute_error", answers, exact)?;
    let total: f64 = answers
        .iter()
        .zip(exact.iter())
        .map(|((_, a), (_, e))| l1(a, e))
        .sum();
    Ok(total / exact.cells().len() as f64)
}

/// The paper's relative-error metric: each marginal's per-entry absolute
/// error is scaled by that marginal's mean true cell value, then averaged
/// over marginals.
pub fn average_relative_error(
    answers: &MarginalSet,
    exact: &MarginalSet,
) -> Result<f64, CoreError> {
    check_layout("average_relative_error", answers, exact)?;
    let mut total = 0.0;
    for ((_, a), (_, e)) in answers.iter().zip(exact.iter()) {
        let cells = e.len() as f64;
        let mean = e.iter().sum::<f64>() / cells;
        if mean <= 0.0 {
            return Err(CoreError::Singular(
                "relative error undefined for a marginal with non-positive mean",
            ));
        }
        total += l1(a, e) / cells / mean;
    }
    Ok(total / answers.len() as f64)
}

/// Maximum absolute cell error across all marginals (the `p = ∞` error of
/// Section 3.3).
pub fn max_absolute_error(answers: &MarginalSet, exact: &MarginalSet) -> Result<f64, CoreError> {
    check_layout("max_absolute_error", answers, exact)?;
    Ok(answers
        .cells()
        .iter()
        .zip(exact.cells())
        .fold(0.0f64, |worst, (x, y)| worst.max((x - y).abs())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::AttrMask;

    fn pair() -> (MarginalSet, MarginalSet) {
        let masks = vec![AttrMask(0b01), AttrMask(0b11)];
        let exact = MarginalSet::new(masks.clone(), vec![4.0, 6.0, 1.0, 3.0, 2.0, 4.0]);
        let noisy = MarginalSet::new(masks, vec![5.0, 5.0, 1.5, 2.5, 2.0, 4.0]);
        (noisy, exact)
    }

    #[test]
    fn absolute_error() {
        let (noisy, exact) = pair();
        // Total |err| = 1+1 + 0.5+0.5 = 3 over 6 cells.
        let e = average_absolute_error(&noisy, &exact).unwrap();
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_error() {
        let (noisy, exact) = pair();
        // Marginal 1: per-entry err 1, mean 5 → 0.2.
        // Marginal 2: per-entry err 0.25, mean 2.5 → 0.1. Average 0.15.
        let e = average_relative_error(&noisy, &exact).unwrap();
        assert!((e - 0.15).abs() < 1e-12);
    }

    #[test]
    fn max_error() {
        let (noisy, exact) = pair();
        assert_eq!(max_absolute_error(&noisy, &exact).unwrap(), 1.0);
    }

    #[test]
    fn zero_error_for_identical() {
        let (_, exact) = pair();
        assert_eq!(average_absolute_error(&exact, &exact).unwrap(), 0.0);
        assert_eq!(average_relative_error(&exact, &exact).unwrap(), 0.0);
        assert_eq!(max_absolute_error(&exact, &exact).unwrap(), 0.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (noisy, exact) = pair();
        let noisy = MarginalSet::new(&noisy.masks()[..1], noisy.cells()[..2].to_vec());
        assert!(average_absolute_error(&noisy, &exact).is_err());
        assert!(average_relative_error(&noisy, &exact).is_err());
        assert!(max_absolute_error(&noisy, &exact).is_err());
    }

    #[test]
    fn zero_mean_marginal_rejected_for_relative() {
        let exact = MarginalSet::new(vec![AttrMask(0b1)], vec![0.0, 0.0]);
        let noisy = MarginalSet::new(vec![AttrMask(0b1)], vec![1.0, 0.0]);
        assert!(average_relative_error(&noisy, &exact).is_err());
    }
}
