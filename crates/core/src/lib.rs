//! # datacube-dp core
//!
//! Differentially private release of datacubes, contingency tables and
//! marginal-query workloads with **optimal non-uniform noise budgets**, a
//! from-scratch reproduction of
//!
//! > G. Cormode, C. M. Procopiuc, D. Srivastava, G. Yaroslavtsev.
//! > *Accurate and Efficient Private Release of Datacubes and Contingency
//! > Tables.* ICDE 2013.
//!
//! ## The framework (paper Figure 3)
//!
//! 1. **Strategy** — choose a strategy matrix `S` and observe `z = Sx + ν`.
//!    Supported strategies: identity/base counts (`I`), the workload itself
//!    (`S = Q`), the Fourier/Hadamard coefficients (`F`), the greedy
//!    cluster-of-marginals strategy of Ding et al. (`C`), plus hierarchical
//!    and wavelet strategies for range workloads.
//! 2. **Budgets** — split the privacy budget ε *non-uniformly* across the
//!    strategy rows using the closed-form grouped optimizer (Section 3.1 of
//!    the paper), implemented in `dp-opt`.
//! 3. **Recovery** — recompute the recovery matrix for the chosen budgets
//!    via generalized least squares (Section 3.2), carried out in
//!    Fourier-coefficient space where the normal equations are diagonal
//!    (Section 4.3), which simultaneously makes the answers *consistent*.
//!
//! ## Quick start
//!
//! Plans are **data-independent**: compile once, bind to data, release
//! many (each release deterministic in its seed).
//!
//! ```
//! use dp_core::prelude::*;
//! use std::sync::Arc;
//!
//! // 4 binary attributes, a handful of records.
//! let schema = Schema::binary(4).unwrap();
//! let records = vec![vec![0,1,0,1], vec![1,1,0,0], vec![0,1,1,1]];
//! let table = ContingencyTable::from_records(&schema, &records).unwrap();
//!
//! // Phase 1 (no data): all 2-way marginals, Fourier strategy, optimal
//! // non-uniform budgets at ε = 1.
//! let workload = Workload::all_k_way(&schema, 2).unwrap();
//! let plan = PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
//!     .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
//!     .compile()
//!     .unwrap();
//!
//! // Phase 2: bind the table and draw a batch of releases.
//! let session = Session::bind(Arc::new(plan), &table).unwrap();
//! let releases = session.release_batch(&[7, 8, 9]).unwrap();
//!
//! // A release's marginals are one buffer in workload order, laid out like
//! // the exact answers; each marginal is a `(mask, cells)` view into it.
//! let answers = releases[0].answers.marginals().unwrap();
//! let exact = workload.true_answers(&table);
//! assert_eq!(answers.masks(), exact.masks());
//! for (mask, cells) in answers.iter() {
//!     assert_eq!(cells.len(), mask.cell_count());
//! }
//! let error = average_relative_error(answers, &exact).unwrap();
//! assert!(error.is_finite());
//! ```

pub mod analysis;
pub mod api;
pub mod cluster;
pub mod consistency;
pub mod example;
pub mod fourier;
pub mod framework;
pub mod grouping;
pub mod marginal;
pub mod mask;
pub mod metrics;
pub mod postprocess;
pub mod range;
pub mod release;
pub mod schema;
pub mod serde_impls;
pub mod strategy;
pub mod table;
pub mod workload;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::api::{
        Answers, Plan, PlanBuilder, PlanCache, Session, SessionRelease, WorkloadSpec,
    };
    pub use crate::cluster::ClusterConfig;
    pub use crate::marginal::{MarginalSet, MarginalTable};
    pub use crate::mask::AttrMask;
    pub use crate::metrics::{average_absolute_error, average_relative_error};
    pub use crate::range::{RangeStrategy, RangeWorkload};
    pub use crate::release::{Budgeting, StrategyKind};
    pub use crate::schema::{Attribute, Schema};
    pub use crate::strategy::NoiseParams;
    pub use crate::table::ContingencyTable;
    pub use crate::workload::Workload;
    pub use dp_mech::{Neighboring, PrivacyLevel};
}

pub use crate::api::{
    Answers, Plan, PlanBuilder, PlanCache, Session, SessionRelease, WorkloadSpec,
};
pub use crate::cluster::ClusterConfig;
pub use crate::mask::AttrMask;
pub use crate::release::{Budgeting, StrategyKind};
pub use crate::schema::Schema;
pub use crate::table::ContingencyTable;
pub use crate::workload::Workload;

/// Errors surfaced by the core framework.
#[derive(Debug)]
pub enum CoreError {
    /// A vector/matrix had the wrong size.
    Shape {
        /// Operation that failed.
        context: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A Fourier coefficient was requested outside the support.
    CoefficientNotInSupport(mask::AttrMask),
    /// A linear system was singular where it must not be.
    Singular(&'static str),
    /// Underlying linear-algebra failure.
    Linalg(dp_linalg::LinalgError),
    /// Underlying optimizer failure.
    Opt(dp_opt::OptError),
    /// Underlying mechanism failure.
    Mech(dp_mech::MechError),
    /// Workload-level failure.
    Workload(workload::WorkloadError),
    /// The computed budgets violate the privacy constraint — indicates an
    /// internal bug; surfaced rather than silently releasing.
    InfeasibleBudgets {
        /// The ε actually implied by the budgets.
        achieved: f64,
        /// The ε that was requested.
        requested: f64,
    },
    /// A [`api::Plan`] was used with the wrong kind of data or document.
    InvalidPlan(&'static str),
    /// A retraction would drive a count below zero — the delta stream and
    /// the table disagree about what was ever inserted.
    NegativeCount {
        /// Linearized domain cell of the offending retraction.
        cell: u64,
        /// The (negative) count the retraction would have produced.
        count: f64,
    },
    /// A streaming delta was NaN or infinite, or would overflow the
    /// cell's count: it would leave every later release non-finite.
    NonFiniteDelta {
        /// Linearized domain cell of the offending delta.
        cell: u64,
        /// The refused delta.
        delta: f64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Shape {
                context,
                expected,
                actual,
            } => write!(f, "{context}: expected length {expected}, got {actual}"),
            CoreError::CoefficientNotInSupport(m) => {
                write!(f, "Fourier coefficient {m} not in the support")
            }
            CoreError::Singular(msg) => write!(f, "singular system: {msg}"),
            CoreError::Linalg(e) => write!(f, "linear algebra: {e}"),
            CoreError::Opt(e) => write!(f, "optimizer: {e}"),
            CoreError::Mech(e) => write!(f, "mechanism: {e}"),
            CoreError::Workload(e) => write!(f, "workload: {e}"),
            CoreError::InfeasibleBudgets {
                achieved,
                requested,
            } => write!(
                f,
                "computed budgets achieve ε = {achieved} > requested {requested}"
            ),
            CoreError::InvalidPlan(msg) => write!(f, "invalid plan use: {msg}"),
            CoreError::NegativeCount { cell, count } => write!(
                f,
                "retraction at cell {cell} would drive its count to {count} < 0"
            ),
            CoreError::NonFiniteDelta { cell, delta } => {
                write!(f, "delta {delta} at cell {cell} leaves a non-finite count")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<dp_linalg::LinalgError> for CoreError {
    fn from(e: dp_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<dp_opt::OptError> for CoreError {
    fn from(e: dp_opt::OptError) -> Self {
        CoreError::Opt(e)
    }
}

impl From<dp_mech::MechError> for CoreError {
    fn from(e: dp_mech::MechError) -> Self {
        CoreError::Mech(e)
    }
}

impl From<workload::WorkloadError> for CoreError {
    fn from(e: workload::WorkloadError) -> Self {
        CoreError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_all_variants() {
        let errors: Vec<CoreError> = vec![
            CoreError::Shape {
                context: "x",
                expected: 1,
                actual: 2,
            },
            CoreError::CoefficientNotInSupport(mask::AttrMask(0b1)),
            CoreError::Singular("s"),
            CoreError::Linalg(dp_linalg::LinalgError::NotPositiveDefinite { pivot: 0 }),
            CoreError::Opt(dp_opt::OptError::BadInput("b".into())),
            CoreError::Mech(dp_mech::MechError::InvalidPrivacyParameter("e".into())),
            CoreError::Workload(workload::WorkloadError::Empty),
            CoreError::InfeasibleBudgets {
                achieved: 2.0,
                requested: 1.0,
            },
            CoreError::InvalidPlan("p"),
            CoreError::NegativeCount {
                cell: 3,
                count: -1.0,
            },
            CoreError::NonFiniteDelta {
                cell: 3,
                delta: f64::NAN,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
