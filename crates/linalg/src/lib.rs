//! Linear-algebra substrate for the datacube-DP workspace.
//!
//! This crate provides exactly the numerical kernels the paper's framework
//! needs, implemented from scratch so that the workspace has no external
//! numerical dependencies:
//!
//! * [`dense::Matrix`] — a small row-major dense matrix with the usual
//!   products, used for explicit strategy/recovery matrices on small domains
//!   (Step 3 of the framework, Eq. (7) of the paper).
//! * [`solve`] — Cholesky factorization and SPD solves for the generalized
//!   least-squares recovery matrix `R = Q (SᵀΣ⁻¹S)⁻¹SᵀΣ⁻¹`.
//! * [`sparse::CsrMatrix`] — compressed sparse row matrices for the range
//!   sketch strategy, a sparse random projection.
//! * [`cg`] — conjugate gradients on (implicitly formed) normal equations,
//!   the workhorse of the fast consistency step.
//! * [`wht`] — the fast Walsh–Hadamard transform, i.e. the `2^d`-dimensional
//!   discrete Fourier transform over the Boolean hypercube (Section 4.1).
//! * [`wavelet`] — the 1-D Haar wavelet transform (the strategy of Xiao et
//!   al. \[23\], supported by the grouping framework of Definition 3.1).
//! * [`operator`] — the matrix-free [`LinearOperator`] abstraction unifying
//!   the dense, sparse, identity, hierarchical and Haar maps behind one
//!   `apply`/`apply_transpose` interface, plus operator-based GLS.

pub mod cg;
pub mod dense;
pub mod operator;
pub mod simd;
pub mod solve;
pub mod sparse;
pub mod wavelet;
pub mod wht;

pub use cg::{cg_solve, CgOptions, CgOutcome};
pub use dense::Matrix;
pub use operator::{
    gls_normal_solve, HaarOperator, HierarchicalOperator, IdentityOperator, LinearOperator,
};
pub use simd::{F64x4, LANES};
pub use solve::{cholesky, solve_spd, CholeskyError};
pub use sparse::CsrMatrix;
pub use wavelet::{haar_forward, haar_inverse, haar_level, haar_row_magnitude};
pub use wht::{fwht, fwht_normalized};

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A matrix dimension did not match the operation's requirement.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A factorization failed because the matrix is not (numerically)
    /// positive definite.
    NotPositiveDefinite {
        /// Pivot index where the failure was detected.
        pivot: usize,
    },
    /// An iterative solver did not converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual norm when iteration stopped.
        residual: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Dot product of two equal-length slices.
///
/// The accumulation is deliberately a strictly sequential, in-order sum —
/// **not** lane-parallelized: splitting the reduction across lanes would
/// reassociate the additions and change the bytes of every CG iterate (and
/// therefore of every range release) downstream. Only elementwise kernels
/// ([`axpy`], [`xpby`], the WHT butterfly) are lane-width.
///
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length wins (as with `zip`), so callers must uphold the contract.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha * x` over equal-length slices.
///
/// Runs four lanes wide; each element still computes exactly
/// `yi + alpha * xi`, so the result is bitwise identical to the scalar loop.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let a = F64x4::splat(alpha);
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        (F64x4::load(cy) + a * F64x4::load(cx)).store(cy);
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y ← x + beta * y` over equal-length slices (the CG direction update).
///
/// Lane-width like [`axpy`], with the identical per-element expression
/// `xi + beta * yi` in the identical order.
#[inline]
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let b = F64x4::splat(beta);
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        (F64x4::load(cx) + b * F64x4::load(cy)).store(cy);
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi = xi + beta * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn lane_axpy_and_xpby_match_scalar_loops_bitwise() {
        // Lengths covering full lanes, tails, and sub-lane slices.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13, 64, 67] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() / 3.0).collect();
            let alpha = -1.737;

            let mut lane = y0.clone();
            axpy(alpha, &x, &mut lane);
            let mut scalar = y0.clone();
            for (yi, xi) in scalar.iter_mut().zip(&x) {
                *yi += alpha * xi;
            }
            assert_eq!(lane, scalar, "axpy n={n}");

            let mut lane = y0.clone();
            xpby(&x, alpha, &mut lane);
            let mut scalar = y0;
            for (yi, xi) in scalar.iter_mut().zip(&x) {
                *yi = xi + alpha * *yi;
            }
            assert_eq!(lane, scalar, "xpby n={n}");
        }
    }

    #[test]
    fn error_display() {
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("positive definite"));
        let e = LinalgError::DimensionMismatch {
            context: "matmul",
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("matmul"));
        let e = LinalgError::NoConvergence {
            iterations: 10,
            residual: 1.0,
        };
        assert!(e.to_string().contains("10"));
    }
}
