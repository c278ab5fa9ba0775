//! Matrix-free linear operators.
//!
//! Every strategy and recovery map in the release framework is a linear
//! operator, but only the smallest ones should ever exist as explicit
//! matrices. This module is the abstraction the unified release planner is
//! built on: [`LinearOperator`] exposes `apply`/`apply_transpose`, and is
//! implemented by
//!
//! * [`Matrix`] and [`CsrMatrix`] — explicit (small/sparse) matrices,
//! * [`HierarchicalOperator`] — the binary-tree range strategy of \[14\]
//!   (all `2n − 1` node sums), applied in `O(n log n)`,
//! * [`HaarOperator`] — the orthonormal Haar wavelet strategy of \[23\],
//!   applied in `O(n)`,
//! * [`IdentityOperator`] — the identity over a histogram domain.
//!
//! [`gls_normal_solve`] closes the loop: generalized least squares
//! `x̂ = (Sᵀ W S)⁻¹ Sᵀ W z` for *any* operator `S`, via conjugate gradients
//! on the (never materialized) weighted normal equations.

use crate::cg::{cg_solve, CgOptions};
use crate::dense::Matrix;
use crate::sparse::CsrMatrix;
use crate::wavelet::{haar_forward, haar_inverse};
use crate::LinalgError;

/// A linear map `A : R^cols → R^rows` given by its action (and its
/// transpose's action) on vectors, without committing to a representation.
pub trait LinearOperator {
    /// Output dimension (number of rows of the implied matrix).
    fn rows(&self) -> usize;

    /// Input dimension (number of columns of the implied matrix).
    fn cols(&self) -> usize;

    /// Computes `y = A x` into `y` (`y.len() == rows()`).
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Computes `x = Aᵀ y` into `x` (`x.len() == cols()`).
    fn apply_transpose_into(&self, y: &[f64], x: &mut [f64]);

    /// Allocating convenience wrapper for [`LinearOperator::apply_into`].
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.apply_into(x, &mut y);
        y
    }

    /// Allocating convenience wrapper for
    /// [`LinearOperator::apply_transpose_into`].
    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.cols()];
        self.apply_transpose_into(y, &mut x);
        x
    }

    /// The diagonal of `Sᵀ diag(w) S` (the Jacobi preconditioner of the
    /// weighted normal equations), when the operator can produce it
    /// cheaply. `None` (the default) means "solve unpreconditioned".
    fn weighted_normal_diagonal(&self, _row_weights: &[f64]) -> Option<Vec<f64>> {
        None
    }
}

impl LinearOperator for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(
            &self
                .matvec(x)
                .expect("operator dimensions verified by caller"),
        );
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        x.copy_from_slice(
            &self
                .matvec_transposed(yin)
                .expect("operator dimensions verified by caller"),
        );
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        debug_assert_eq!(row_weights.len(), Matrix::rows(self));
        let mut diag = vec![0.0; Matrix::cols(self)];
        for (i, &w) in row_weights.iter().enumerate() {
            for (d, &v) in diag.iter_mut().zip(self.row(i)) {
                *d += w * v * v;
            }
        }
        Some(diag)
    }
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(
            &self
                .matvec(x)
                .expect("operator dimensions verified by caller"),
        );
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        x.copy_from_slice(
            &self
                .matvec_transposed(yin)
                .expect("operator dimensions verified by caller"),
        );
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        debug_assert_eq!(row_weights.len(), CsrMatrix::rows(self));
        let mut diag = vec![0.0; CsrMatrix::cols(self)];
        for (i, &w) in row_weights.iter().enumerate() {
            for (j, v) in self.row_entries(i) {
                diag[j] += w * v * v;
            }
        }
        Some(diag)
    }
}

/// The full binary-tree ("hierarchical") strategy of \[14\] over a domain of
/// `n = 2^levels` leaves: one row per tree node, level-major from the root
/// (width `n`) down to the leaves (width 1), `2n − 1` rows in total. All
/// non-zero entries are 1, so rows group by level with `C_r = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalOperator {
    n: usize,
}

impl HierarchicalOperator {
    /// Creates the operator for a power-of-two domain.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two (programming error, as with the
    /// transforms in this crate).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "tree domain {n} must be a power of two"
        );
        HierarchicalOperator { n }
    }

    /// Number of tree levels including the leaves (`log₂ n + 1`) — the
    /// grouping number of this strategy.
    pub fn levels(&self) -> usize {
        self.n.trailing_zeros() as usize + 1
    }

    /// The level of row `i` (0 = root).
    pub fn row_level(&self, i: usize) -> usize {
        // Levels contribute 1, 2, 4, … rows; row i sits in the level whose
        // cumulative prefix contains it, i.e. level = floor(log2(i + 1)).
        (usize::BITS - (i + 1).leading_zeros() - 1) as usize
    }

    /// Offset of the first row of `level`.
    fn level_offset(level: usize) -> usize {
        (1usize << level) - 1
    }

    /// Computes `x = Sᵀ r` into `x` (`x.len() == n`), where row `i` of `r`
    /// is `row(i, y[i])`: [`LinearOperator::apply_transpose_into`] with a
    /// per-row map (a GLS row weight, say) fused into the one pass.
    ///
    /// Column `j` of `S` has a 1 for every ancestor of leaf `j`, so each
    /// node's value is pushed down to its leaves: level by level, `x[i]`
    /// becomes its parent `x[i/2]` plus the node's own row, with `x` the
    /// only buffer. Each level runs in descending order, so every parent
    /// `i/2 < i` is read before its cell is overwritten.
    pub fn transpose_rows_into(&self, y: &[f64], row: impl Fn(usize, f64) -> f64, x: &mut [f64]) {
        debug_assert_eq!(y.len(), 2 * self.n - 1);
        debug_assert_eq!(x.len(), self.n);
        x[0] = row(0, y[0]);
        for level in 1..self.levels() {
            let off = Self::level_offset(level);
            for i in (0..1usize << level).rev() {
                x[i] = x[i / 2] + row(off + i, y[off + i]);
            }
        }
    }
}

impl LinearOperator for HierarchicalOperator {
    fn rows(&self) -> usize {
        2 * self.n - 1
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        // Build the leaf level, then sum pairs upward; total O(n) per level
        // chain = O(2n).
        let levels = self.levels();
        let leaf_offset = Self::level_offset(levels - 1);
        y[leaf_offset..leaf_offset + self.n].copy_from_slice(x);
        for level in (0..levels - 1).rev() {
            let width = 1usize << level;
            let off = Self::level_offset(level);
            let child_off = Self::level_offset(level + 1);
            for i in 0..width {
                y[off + i] = y[child_off + 2 * i] + y[child_off + 2 * i + 1];
            }
        }
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        self.transpose_rows_into(yin, |_, v| v, x);
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        // diag_j = Σ over the ancestors a(j) of weight w_a (entries are 1).
        let levels = self.levels();
        let mut diag = vec![0.0; self.n];
        for (j, d) in diag.iter_mut().enumerate() {
            for level in 0..levels {
                let idx = Self::level_offset(level) + (j >> (levels - 1 - level));
                *d += row_weights[idx];
            }
        }
        Some(diag)
    }
}

/// The orthonormal 1-D Haar wavelet strategy of \[23\]: `W x` are the Haar
/// coefficients, `Wᵀ = W⁻¹` is the inverse transform. Rows group by
/// resolution level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaarOperator {
    n: usize,
}

impl HaarOperator {
    /// Creates the operator for a power-of-two domain.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "Haar domain {n} must be a power of two"
        );
        HaarOperator { n }
    }
}

impl LinearOperator for HaarOperator {
    fn rows(&self) -> usize {
        self.n
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
        haar_forward(y, &mut Vec::new());
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        x.copy_from_slice(yin);
        haar_inverse(x, &mut Vec::new());
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        // diag_j = Σ_i w_i W_ij²; column j has one entry per level, of
        // squared magnitude 1/support(level) (see `haar_row_magnitude`).
        let n = self.n;
        let mut diag = vec![0.0; n];
        for (i, &w) in row_weights.iter().enumerate() {
            let mag = crate::wavelet::haar_row_magnitude(n, i);
            let level = crate::wavelet::haar_level(i);
            let support = if level == 0 { n } else { n >> (level - 1) };
            // Row i covers `support` consecutive columns starting at:
            let start = if level == 0 {
                0
            } else {
                (i - (1 << (level - 1))) * support
            };
            for d in diag.iter_mut().skip(start).take(support) {
                *d += w * mag * mag;
            }
        }
        Some(diag)
    }
}

/// The identity operator (the `S = I` strategy over a histogram domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityOperator {
    /// Domain size.
    pub n: usize,
}

impl LinearOperator for IdentityOperator {
    fn rows(&self) -> usize {
        self.n
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        x.copy_from_slice(yin);
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        Some(row_weights.to_vec())
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn rows(&self) -> usize {
        (**self).rows()
    }

    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply_into(x, y)
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        (**self).apply_transpose_into(yin, x)
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        (**self).weighted_normal_diagonal(row_weights)
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for Box<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }

    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply_into(x, y)
    }

    fn apply_transpose_into(&self, yin: &[f64], x: &mut [f64]) {
        (**self).apply_transpose_into(yin, x)
    }

    fn weighted_normal_diagonal(&self, row_weights: &[f64]) -> Option<Vec<f64>> {
        (**self).weighted_normal_diagonal(row_weights)
    }
}

/// Generalized least squares for an arbitrary operator `S`:
/// `x̂ = argmin ‖diag(w)^{1/2}(S x − z)‖₂ = (SᵀWS)⁻¹ SᵀW z`,
/// computed by conjugate gradients on the matrix-free weighted normal
/// equations (Jacobi-preconditioned when the operator offers its diagonal).
///
/// Requires `S` to have full column rank and all weights non-negative;
/// rank deficiency surfaces as [`LinalgError::NoConvergence`] (or a
/// breakdown detection inside CG).
pub fn gls_normal_solve<S: LinearOperator>(
    s: &S,
    row_weights: &[f64],
    z: &[f64],
    opts: CgOptions,
) -> Result<Vec<f64>, LinalgError> {
    if row_weights.len() != s.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "gls_normal_solve weights",
            expected: s.rows(),
            actual: row_weights.len(),
        });
    }
    if z.len() != s.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "gls_normal_solve observations",
            expected: s.rows(),
            actual: z.len(),
        });
    }
    // RHS: SᵀW z.
    let weighted: Vec<f64> = z.iter().zip(row_weights).map(|(zi, wi)| zi * wi).collect();
    let rhs = s.apply_transpose(&weighted);
    // Operator: v ↦ SᵀW S v.
    let apply = |v: &[f64]| -> Vec<f64> {
        let mut sv = s.apply(v);
        for (svi, &wi) in sv.iter_mut().zip(row_weights) {
            *svi *= wi;
        }
        s.apply_transpose(&sv)
    };
    let precond = s.weighted_normal_diagonal(row_weights);
    let out = cg_solve(apply, &rhs, precond.as_deref(), opts)?;
    Ok(out.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of<O: LinearOperator>(op: &O) -> Matrix {
        let mut m = Matrix::zeros(op.rows(), op.cols());
        for j in 0..op.cols() {
            let mut e = vec![0.0; op.cols()];
            e[j] = 1.0;
            let col = op.apply(&e);
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    fn check_against_dense<O: LinearOperator>(op: &O, tol: f64) {
        let dense = dense_of(op);
        let x: Vec<f64> = (0..op.cols())
            .map(|i| ((i * 17) % 9) as f64 - 4.0)
            .collect();
        let y: Vec<f64> = (0..op.rows())
            .map(|i| ((i * 13) % 7) as f64 - 3.0)
            .collect();
        let fwd = op.apply(&x);
        let fwd_dense = dense.matvec(&x).unwrap();
        for (a, b) in fwd.iter().zip(&fwd_dense) {
            assert!((a - b).abs() < tol, "apply: {a} vs {b}");
        }
        let bwd = op.apply_transpose(&y);
        let bwd_dense = dense.matvec_transposed(&y).unwrap();
        for (a, b) in bwd.iter().zip(&bwd_dense) {
            assert!((a - b).abs() < tol, "apply_transpose: {a} vs {b}");
        }
        // The preconditioner diagonal, when offered, must equal diag(SᵀWS).
        let weights: Vec<f64> = (0..op.rows()).map(|i| 0.5 + (i % 3) as f64).collect();
        if let Some(diag) = op.weighted_normal_diagonal(&weights) {
            for j in 0..op.cols() {
                let exact: f64 = (0..op.rows())
                    .map(|i| weights[i] * dense[(i, j)] * dense[(i, j)])
                    .sum();
                assert!(
                    (diag[j] - exact).abs() < tol,
                    "diag[{j}]: {} vs {exact}",
                    diag[j]
                );
            }
        }
    }

    #[test]
    fn hierarchical_operator_matches_dense() {
        check_against_dense(&HierarchicalOperator::new(16), 1e-10);
    }

    #[test]
    fn haar_operator_matches_dense() {
        check_against_dense(&HaarOperator::new(16), 1e-10);
    }

    #[test]
    fn identity_operator_matches_dense() {
        check_against_dense(&IdentityOperator { n: 8 }, 1e-12);
    }

    #[test]
    fn dense_and_sparse_operators_agree() {
        let m = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, -1.0, 0.0],
            &[3.0, 0.0, 0.0],
            &[0.0, 4.0, 5.0],
        ])
        .unwrap();
        check_against_dense(&m, 1e-12);
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        let csr = CsrMatrix::from_triplets(4, 3, &triplets).unwrap();
        check_against_dense(&csr, 1e-12);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(
            LinearOperator::apply(&m, &x),
            LinearOperator::apply(&csr, &x)
        );
    }

    #[test]
    fn hierarchical_row_levels() {
        let h = HierarchicalOperator::new(8);
        assert_eq!(h.rows(), 15);
        assert_eq!(h.levels(), 4);
        assert_eq!(h.row_level(0), 0);
        assert_eq!(h.row_level(1), 1);
        assert_eq!(h.row_level(2), 1);
        assert_eq!(h.row_level(3), 2);
        assert_eq!(h.row_level(6), 2);
        assert_eq!(h.row_level(7), 3);
        assert_eq!(h.row_level(14), 3);
    }

    #[test]
    fn gls_normal_solve_recovers_exact_solution() {
        // Overdetermined consistent system: hierarchical tree observations
        // of a known histogram must recover it exactly.
        let s = HierarchicalOperator::new(16);
        let x_true: Vec<f64> = (0..16).map(|i| ((i * 5) % 11) as f64).collect();
        let z = s.apply(&x_true);
        let weights = vec![1.0; s.rows()];
        let x = gls_normal_solve(&s, &weights, &z, CgOptions::default()).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn gls_normal_solve_matches_dense_gls_on_noisy_data() {
        // Inconsistent observations, non-uniform weights: the CG solution
        // must match the dense normal-equation solve.
        let s = HierarchicalOperator::new(8);
        let dense = dense_of(&s);
        let z: Vec<f64> = (0..s.rows()).map(|i| ((i * 7) % 5) as f64 - 1.0).collect();
        let w: Vec<f64> = (0..s.rows()).map(|i| 0.25 + (i % 4) as f64).collect();
        let fast = gls_normal_solve(&s, &w, &z, CgOptions::default()).unwrap();
        // Dense oracle: (SᵀWS)⁻¹SᵀWz by Cholesky.
        let gram = dense.gram_weighted(&w).unwrap();
        let wz: Vec<f64> = z.iter().zip(&w).map(|(zi, wi)| zi * wi).collect();
        let rhs = dense.matvec_transposed(&wz).unwrap();
        let exact = crate::solve::solve_spd(&gram, &rhs).unwrap();
        for (a, b) in fast.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn gls_normal_solve_shape_errors() {
        let s = HaarOperator::new(8);
        assert!(gls_normal_solve(&s, &[1.0; 7], &[0.0; 8], CgOptions::default()).is_err());
        assert!(gls_normal_solve(&s, &[1.0; 8], &[0.0; 7], CgOptions::default()).is_err());
    }
}
