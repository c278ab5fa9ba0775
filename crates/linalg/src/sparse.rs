//! Compressed sparse row (CSR) matrices.
//!
//! CSR backs the range sketch strategy (`S`), a sparse random projection
//! with no closed-form structure: its observe and recovery maps cost work
//! proportional to the number of non-zeros, and its transpose hands a
//! streamed record's column over in `O(nnz(column))`. Every other strategy
//! stays matrix-free.

use crate::LinalgError;

/// A CSR (compressed sparse row) matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Incremental builder for [`CsrMatrix`], filling rows in order.
#[derive(Debug)]
struct CsrBuilder {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a builder for a matrix with `cols` columns.
    fn new(cols: usize) -> Self {
        CsrBuilder {
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Reserves space for an expected number of non-zeros.
    fn reserve(&mut self, nnz: usize) {
        self.col_idx.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Appends one entry to the row currently being built.
    ///
    /// Panics if `col` is out of range (programmer error: the builder is an
    /// internal construction tool, not an input-validation boundary).
    fn push(&mut self, col: usize, value: f64) {
        assert!(
            col < self.cols,
            "CSR column {col} out of range {}",
            self.cols
        );
        if value != 0.0 {
            self.col_idx.push(col as u32);
            self.values.push(value);
        }
    }

    /// Finishes the current row.
    fn finish_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// Finalizes the builder into a [`CsrMatrix`].
    fn build(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.row_ptr.len() - 1,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Triplets may be unordered; duplicates are summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(LinalgError::DimensionMismatch {
                    context: "CsrMatrix::from_triplets row",
                    expected: rows,
                    actual: r,
                });
            }
            if c >= cols {
                return Err(LinalgError::DimensionMismatch {
                    context: "CsrMatrix::from_triplets col",
                    expected: cols,
                    actual: c,
                });
            }
        }
        let mut sorted: Vec<_> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut builder = CsrBuilder::new(cols);
        builder.reserve(sorted.len());
        let mut current_row = 0usize;
        let mut i = 0usize;
        while i < sorted.len() {
            let (r, c, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            while current_row < r {
                builder.finish_row();
                current_row += 1;
            }
            builder.push(c, v);
        }
        while current_row < rows {
            builder.finish_row();
            current_row += 1;
        }
        Ok(builder.build())
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Sparse matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Transposed sparse matrix–vector product `selfᵀ * y`.
    pub fn matvec_transposed(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::matvec_transposed",
                expected: self.rows,
                actual: y.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for k in lo..hi {
                out[self.col_idx[k] as usize] += self.values[k] * yi;
            }
        }
        Ok(out)
    }

    /// The transpose as a new CSR matrix (equivalently: the CSC index of
    /// this matrix). One O(nnz) counting pass; row `j` of the result is
    /// column `j` of `self`, so a delta stream can pull columns in
    /// O(nnz(column)) via [`CsrMatrix::row_entries`].
    pub fn transposed(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.cols + 1);
        row_ptr.push(0usize);
        for &c in &counts {
            row_ptr.push(row_ptr.last().unwrap() + c);
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k] as usize;
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = i as u32;
                values[slot] = self.values[k];
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to a dense [`crate::dense::Matrix`] (tests / small cases).
    pub fn to_dense(&self) -> crate::dense::Matrix {
        let mut m = crate::dense::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                m[(i, j)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap()
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x).unwrap(), vec![7.0, 6.0]);
        assert_eq!(m.to_dense().matvec(&x).unwrap(), vec![7.0, 6.0]);
    }

    #[test]
    fn transposed_matvec() {
        let m = sample();
        let y = vec![1.0, 2.0];
        assert_eq!(m.matvec_transposed(&y).unwrap(), vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn duplicates_are_summed_and_order_is_irrelevant() {
        let m = CsrMatrix::from_triplets(2, 2, &[(1, 0, 1.0), (0, 0, 2.0), (1, 0, 3.0)]).unwrap();
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 0)], 4.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let m = CsrMatrix::from_triplets(3, 2, &[(2, 1, 5.0)]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn out_of_range_triplets_are_rejected() {
        assert!(CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]).is_err());
    }

    #[test]
    fn builder_rows_in_order() {
        let mut b = CsrBuilder::new(3);
        b.push(0, 1.0);
        b.push(2, 2.0);
        b.finish_row();
        b.push(1, 3.0);
        b.finish_row();
        let m = b.build();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let mut b = CsrBuilder::new(2);
        b.push(0, 0.0);
        b.push(1, 1.0);
        b.finish_row();
        let m = b.build();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn transposed_matches_dense_transpose() {
        let m = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, -3.0),
                (2, 0, 4.0),
                (2, 2, 0.5),
            ],
        )
        .unwrap();
        let t = m.transposed();
        assert_eq!(t.rows(), m.cols());
        assert_eq!(t.cols(), m.rows());
        assert_eq!(t.nnz(), m.nnz());
        let d = m.to_dense();
        let td = t.to_dense();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(d[(i, j)], td[(j, i)]);
            }
        }
        // Row j of the transpose is column j of the original, in row order.
        for j in 0..m.cols() {
            let via_t: Vec<(usize, f64)> = t.row_entries(j).collect();
            let column: Vec<(usize, f64)> = (0..m.rows())
                .filter(|&i| d[(i, j)] != 0.0)
                .map(|i| (i, d[(i, j)]))
                .collect();
            assert_eq!(via_t, column);
        }
    }
}
