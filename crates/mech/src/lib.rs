//! Differential-privacy mechanisms.
//!
//! Implements the primitives of Section 2 of the paper and the per-row noise
//! of Proposition 3.1:
//!
//! * [`noise`] — the noise stream every release draws through: per-row
//!   calibration (Laplace scale `1/η` for pure ε-DP, Theorem 2.1; Gaussian
//!   variance `2 ln(2/δ)/η²` for (ε,δ)-DP, Theorem 2.2), the batched
//!   samplers and the chunked, seed-deterministic perturbation pass. Every
//!   fact that differs between the two mechanisms is written there once.
//! * [`laplace`], [`gaussian`] — the scalar samplers.
//! * [`privacy`] — privacy parameters, neighbouring-dataset conventions and
//!   a per-column check of Proposition 3.1's pure-DP constraint on an
//!   explicit strategy matrix (releases check the grouped form in
//!   `dp-core`).
//! * [`composition`] — sequential composition and the budget ledger.
//!
//! ## Neighbouring convention
//!
//! The paper's worked example and experiments compute sensitivity as the
//! maximum column norm of the query matrix — i.e. *add/remove-one*
//! neighbours where one individual contributes weight 1 to a single entry of
//! the data vector `x`. Proposition 3.1 as printed carries an extra factor 2
//! corresponding to *replace-one* neighbours (one record changing its
//! attribute values moves two cells). Both conventions are supported via
//! [`privacy::Neighboring`]; the default, [`privacy::Neighboring::AddRemove`],
//! reproduces the paper's numbers (e.g. variance `8/ε²` for the query matrix
//! of Figure 1(b)).

// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN, which is the point of these validation checks.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod composition;
pub mod gaussian;
pub mod laplace;
pub mod noise;
pub mod privacy;

pub use composition::{compose, compose_n, BudgetLedger};
pub use gaussian::sample_gaussian;
pub use laplace::sample_laplace;
pub use privacy::{BudgetFeasibility, Neighboring, PrivacyLevel};

#[cfg(test)]
pub(crate) mod testutil {
    /// An RNG emitting one constant word forever — used to pin the exact
    /// uniform-draw edge cases (`u = 0.0`, `u = −0.5`) in sampler tests.
    pub struct ConstRng(pub u64);

    impl rand::RngCore for ConstRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }
}

/// Errors from mechanism application.
#[derive(Debug, Clone, PartialEq)]
pub enum MechError {
    /// A privacy parameter was invalid (e.g. ε ≤ 0 or δ ∉ (0,1)).
    InvalidPrivacyParameter(String),
    /// A [`composition::BudgetLedger`] charge would exceed the remaining
    /// allowance. Carries what was asked for and what is still available so
    /// callers (e.g. a release service) can report the shortfall precisely.
    BudgetExhausted {
        /// ε the rejected charge asked for.
        requested_epsilon: f64,
        /// δ the rejected charge asked for.
        requested_delta: f64,
        /// ε still available in the ledger.
        remaining_epsilon: f64,
        /// δ still available in the ledger.
        remaining_delta: f64,
    },
}

impl std::fmt::Display for MechError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechError::InvalidPrivacyParameter(msg) => {
                write!(f, "invalid privacy parameter: {msg}")
            }
            MechError::BudgetExhausted {
                requested_epsilon,
                requested_delta,
                remaining_epsilon,
                remaining_delta,
            } => write!(
                f,
                "privacy budget exhausted: requested (ε = {requested_epsilon}, δ = \
                 {requested_delta}) but only (ε = {remaining_epsilon}, δ = \
                 {remaining_delta}) remains"
            ),
        }
    }
}

impl std::error::Error for MechError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_render() {
        assert!(MechError::InvalidPrivacyParameter("x".into())
            .to_string()
            .contains("x"));
        let exhausted = MechError::BudgetExhausted {
            requested_epsilon: 0.5,
            requested_delta: 0.0,
            remaining_epsilon: 0.25,
            remaining_delta: 0.0,
        };
        assert!(exhausted.to_string().contains("0.25"));
    }
}
