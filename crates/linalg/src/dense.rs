//! Row-major dense matrices.
//!
//! Sized for the paper's "small `N`" paths: explicit strategy/recovery
//! matrices (Figure 1 of the paper), exact GLS on toy domains, and unit-test
//! oracles for the operator-based fast paths.

use crate::LinalgError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (test/ergonomic helper).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Borrow a single row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow a single row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extract column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `other`
        // and `out` rows (cache-friendly for row-major storage).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), x)).collect())
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec_transposed",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            crate::axpy(xi, self.row(i), &mut out);
        }
        Ok(out)
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::add",
                expected: self.data.len(),
                actual: other.data.len(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::sub",
                expected: self.data.len(),
                actual: other.data.len(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// `selfᵀ * D * self` for a diagonal matrix `D` given by its entries.
    ///
    /// This is the Gram matrix of the rows weighted by `diag`, the left-hand
    /// side of the GLS normal equations `SᵀΣ⁻¹S`.
    pub fn gram_weighted(&self, diag: &[f64]) -> Result<Matrix, LinalgError> {
        if diag.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::gram_weighted",
                expected: self.rows,
                actual: diag.len(),
            });
        }
        let mut out = Matrix::zeros(self.cols, self.cols);
        for (i, &w) in diag.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let row = self.row(i);
            for a in 0..self.cols {
                let wa = w * row[a];
                if wa == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(a);
                for (b, &rb) in row.iter().enumerate() {
                    out_row[b] += wa * rb;
                }
            }
        }
        Ok(out)
    }

    /// Maximum absolute entry (useful for approximate-equality assertions).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.rows() == b.rows() && a.cols() == b.cols() && a.sub(b).unwrap().max_abs() < tol
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert!(approx_eq(&a.matmul(&i).unwrap(), &a, 1e-15));
        assert!(approx_eq(&i.matmul(&a).unwrap(), &a, 1e-15));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(approx_eq(&c, &expected, 1e-15));
    }

    #[test]
    fn matvec_and_transposed_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let x = vec![1.0, -1.0, 2.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![5.0, 11.0]);
        let y = vec![1.0, 2.0];
        let at = a.transpose();
        assert_eq!(a.matvec_transposed(&y).unwrap(), at.matvec(&y).unwrap());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(approx_eq(&a.transpose().transpose(), &a, 1e-15));
    }

    #[test]
    fn gram_weighted_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let w = vec![0.5, 2.0, 1.0];
        let gram = a.gram_weighted(&w).unwrap();
        let explicit = a
            .transpose()
            .matmul(&Matrix::from_diag(&w))
            .unwrap()
            .matmul(&a)
            .unwrap();
        assert!(approx_eq(&gram, &explicit, 1e-12));
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn diag_and_col_access() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.col(1), vec![0.0, 2.0, 0.0]);
    }
}
