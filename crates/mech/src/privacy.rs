//! Privacy parameters, neighbouring-dataset conventions and a per-column
//! check of Proposition 3.1's pure-DP budget constraint on an explicit
//! strategy matrix.

/// The convention for "neighbouring databases" in Definition 2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Neighboring {
    /// One record is added or removed: exactly one entry of the data vector
    /// `x` changes by 1, so the L_p sensitivity of `f(x) = Sx` is the
    /// maximum column L_p norm of `S`. This is the convention the paper's
    /// worked example and experiments use.
    #[default]
    AddRemove,
    /// One record changes its attribute values: two entries of `x` change by
    /// 1 each, doubling the sensitivity (the factor 2 printed in
    /// Proposition 3.1).
    Replace,
}

impl Neighboring {
    /// Multiplicative factor applied to the column-norm sensitivity.
    #[inline]
    pub fn sensitivity_factor(self) -> f64 {
        match self {
            Neighboring::AddRemove => 1.0,
            Neighboring::Replace => 2.0,
        }
    }
}

/// The privacy guarantee the release must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrivacyLevel {
    /// Pure ε-differential privacy (Laplace mechanism).
    Pure {
        /// The ε of the guarantee.
        epsilon: f64,
    },
    /// Approximate (ε, δ)-differential privacy (Gaussian mechanism).
    Approx {
        /// The ε of the guarantee.
        epsilon: f64,
        /// The δ of the guarantee.
        delta: f64,
    },
}

impl PrivacyLevel {
    /// The ε of the guarantee.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        match *self {
            PrivacyLevel::Pure { epsilon } | PrivacyLevel::Approx { epsilon, .. } => epsilon,
        }
    }

    /// The δ of the guarantee (0 for pure DP).
    #[inline]
    pub fn delta(&self) -> f64 {
        match *self {
            PrivacyLevel::Pure { .. } => 0.0,
            PrivacyLevel::Approx { delta, .. } => delta,
        }
    }

    /// Validates the parameters (ε > 0; for approx DP, δ ∈ (0,1)).
    pub fn validate(&self) -> Result<(), crate::MechError> {
        let eps = self.epsilon();
        if !(eps > 0.0) || !eps.is_finite() {
            return Err(crate::MechError::InvalidPrivacyParameter(format!(
                "epsilon must be positive and finite, got {eps}"
            )));
        }
        if let PrivacyLevel::Approx { delta, .. } = *self {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(crate::MechError::InvalidPrivacyParameter(format!(
                    "delta must be in (0,1), got {delta}"
                )));
            }
        }
        Ok(())
    }
}

/// Result of verifying Proposition 3.1's feasibility constraint for a
/// concrete strategy matrix and budget vector.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetFeasibility {
    /// The worst (largest) column value of the constraint:
    /// `max_j Σ_i |S_ij| ε_i` for pure DP, `max_j √(Σ_i S_ij² ε_i²)` for
    /// approximate DP — *before* the neighbouring factor.
    pub achieved_epsilon: f64,
    /// The ε the release was supposed to satisfy.
    pub target_epsilon: f64,
    /// Whether the constraint holds up to a small numerical slack.
    pub feasible: bool,
}

/// Verifies the pure-DP feasibility constraint `Σ_i |S_ij| ε_i ≤ ε` per
/// column, where the strategy is given column-wise as
/// `columns[j] = [(row, |S_ij|), …]`.
pub fn verify_pure_budgets<'a>(
    columns: impl Iterator<Item = &'a [(usize, f64)]>,
    budgets: &[f64],
    target_epsilon: f64,
    neighboring: Neighboring,
) -> BudgetFeasibility {
    let mut worst = 0.0_f64;
    for col in columns {
        let s: f64 = col.iter().map(|&(i, a)| a.abs() * budgets[i]).sum();
        worst = worst.max(s);
    }
    let achieved = worst * neighboring.sensitivity_factor();
    BudgetFeasibility {
        achieved_epsilon: achieved,
        target_epsilon,
        feasible: achieved <= target_epsilon * (1.0 + 1e-9) + 1e-12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighboring_factors() {
        assert_eq!(Neighboring::AddRemove.sensitivity_factor(), 1.0);
        assert_eq!(Neighboring::Replace.sensitivity_factor(), 2.0);
        assert_eq!(Neighboring::default(), Neighboring::AddRemove);
    }

    #[test]
    fn privacy_level_accessors() {
        let p = PrivacyLevel::Pure { epsilon: 0.5 };
        assert_eq!(p.epsilon(), 0.5);
        assert_eq!(p.delta(), 0.0);
        assert!(p.validate().is_ok());

        let a = PrivacyLevel::Approx {
            epsilon: 1.0,
            delta: 1e-5,
        };
        assert_eq!(a.epsilon(), 1.0);
        assert_eq!(a.delta(), 1e-5);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(PrivacyLevel::Pure { epsilon: 0.0 }.validate().is_err());
        assert!(PrivacyLevel::Pure {
            epsilon: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(PrivacyLevel::Approx {
            epsilon: 1.0,
            delta: 0.0
        }
        .validate()
        .is_err());
        for delta in [-0.1, 1.0, 1.5] {
            assert!(PrivacyLevel::Approx {
                epsilon: 1.0,
                delta
            }
            .validate()
            .is_err());
        }
    }

    #[test]
    fn pure_feasibility_example_from_figure_1() {
        // Q from Figure 1(b): every column has one entry from the A-marginal
        // rows and one from the AB-marginal rows. Budgets 4ε/9 and 5ε/9 per
        // the worked example sum to exactly ε per column.
        let eps = 0.9;
        let budgets = vec![
            4.0 * eps / 9.0,
            4.0 * eps / 9.0,
            5.0 * eps / 9.0,
            5.0 * eps / 9.0,
            5.0 * eps / 9.0,
            5.0 * eps / 9.0,
        ];
        // Column pattern: rows {0 or 1} and one of {2..5}.
        let cols: Vec<Vec<(usize, f64)>> = (0..8)
            .map(|j| vec![(j / 4, 1.0), (2 + j / 2, 1.0)])
            .collect();
        let res = verify_pure_budgets(
            cols.iter().map(|c| c.as_slice()),
            &budgets,
            eps,
            Neighboring::AddRemove,
        );
        assert!(res.feasible, "{res:?}");
        assert!((res.achieved_epsilon - eps).abs() < 1e-12);
    }

    #[test]
    fn infeasible_budgets_are_flagged() {
        let cols = [vec![(0usize, 1.0), (1usize, 1.0)]];
        let res = verify_pure_budgets(
            cols.iter().map(|c| c.as_slice()),
            &[0.6, 0.6],
            1.0,
            Neighboring::AddRemove,
        );
        assert!(!res.feasible);
        assert!((res.achieved_epsilon - 1.2).abs() < 1e-12);
    }

    #[test]
    fn replace_doubles_achieved_epsilon() {
        let cols = [vec![(0usize, 1.0)]];
        let res = verify_pure_budgets(
            cols.iter().map(|c| c.as_slice()),
            &[1.0],
            1.0,
            Neighboring::Replace,
        );
        assert_eq!(res.achieved_epsilon, 2.0);
        assert!(!res.feasible);
    }
}
