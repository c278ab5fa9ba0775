//! Fourier-coefficient machinery (Sections 4.1 and 4.3 of the paper).
//!
//! A set of marginals `{Cα}` is fully determined by the Fourier coefficients
//! in its downset support `F = ∪ {β : β ≼ α}`. Theorem 4.1 makes everything
//! here fast: restricted to one marginal `α` with `w = ‖α‖`, the map from
//! coefficients to cells is `2^{d/2−w} · H_{2^w}`, a scaled Walsh–Hadamard
//! matrix over the compressed cell/coefficient ranks. So one marginal costs
//! `O(2^w w)` in either direction via the fast WHT, instead of `O(4^w)`,
//! and no pass over the full `2^d` table is needed beyond computing the
//! marginals themselves.
//!
//! [`ObservationOperator`] is the one owner of that block map. Its `new`
//! lays out each marginal's block once — mask, coefficient positions,
//! Hadamard scale, cell offset — and every use of the theorem runs through
//! it: the one forward map, to the marginals' cells in one buffer
//! ([`ObservationOperator::apply`], the recovery of every Fourier-space
//! release and the consistency fits), the inverse map from exact cells to
//! coefficients ([`ObservationOperator::coefficients`], the Fourier bind),
//! the transpose, and the weighted normal equations of the
//! generalized-least-squares recovery/consistency step.

use crate::marginal::MarginalSet;
use crate::mask::AttrMask;
use crate::table::fill_blocks;
use crate::CoreError;
use dp_linalg::{cg_solve, CgOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// An indexed set of Fourier coefficients (the variables of the fast
/// consistency LS/LP of Section 4.3).
#[derive(Debug, Clone)]
pub struct CoefficientSpace {
    d: usize,
    support: Vec<AttrMask>,
    index: HashMap<AttrMask, u32>,
}

impl CoefficientSpace {
    /// Builds the space spanned by the downsets of the given marginals.
    pub fn from_marginals(d: usize, marginals: &[AttrMask]) -> Self {
        let mut set = std::collections::HashSet::new();
        for &alpha in marginals {
            for beta in alpha.subsets() {
                set.insert(beta);
            }
        }
        let mut support: Vec<AttrMask> = set.into_iter().collect();
        support.sort_unstable();
        let index = support
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        CoefficientSpace { d, support, index }
    }

    /// Domain width in bits.
    #[inline]
    pub fn domain_bits(&self) -> usize {
        self.d
    }

    /// The sorted support masks.
    #[inline]
    pub fn support(&self) -> &[AttrMask] {
        &self.support
    }

    /// Number of coefficients `m = |F|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True iff the support is empty (never after construction from a
    /// non-empty marginal list).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }

    /// Position of a mask in the support.
    #[inline]
    pub fn position(&self, beta: AttrMask) -> Option<usize> {
        self.index.get(&beta).map(|&i| i as usize)
    }
}

/// The block map `R : coefficients → concatenated marginal cells` of
/// Theorem 4.1 for a list of marginals, with per-marginal weights for the
/// GLS normal equations.
#[derive(Debug, Clone)]
pub struct ObservationOperator {
    d: usize,
    /// Shared with every [`MarginalSet`] that [`ObservationOperator::apply`]
    /// returns.
    masks: Arc<[AttrMask]>,
    /// One block per mask, in mask order.
    blocks: Vec<Block>,
    num_coeffs: usize,
    num_cells: usize,
}

#[derive(Debug, Clone)]
struct Block {
    /// Coefficient positions for this marginal's downset, rank-ordered;
    /// there are as many as the marginal has cells.
    positions: Vec<u32>,
    /// The scalar `2^{d/2 − w}` multiplying the block's Hadamard matrix.
    scale: f64,
    /// Offset of this marginal's cells in the concatenated observation
    /// vector.
    cell_offset: usize,
}

impl Block {
    /// The forward kernel of [`ObservationOperator::apply`]: the block's
    /// cells from coefficient values into `out` — gather, one WHT, scale.
    fn cells_into(&self, coeffs: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(&self.positions) {
            *o = coeffs[p as usize];
        }
        dp_linalg::fwht(out);
        for v in out.iter_mut() {
            *v *= self.scale;
        }
    }

    /// The block's rows in the concatenated cell vector.
    fn rows(&self) -> std::ops::Range<usize> {
        self.cell_offset..self.cell_offset + self.positions.len()
    }
}

impl ObservationOperator {
    /// Builds the operator for the given marginals over a coefficient
    /// space that must contain all their downsets: the one place a
    /// marginal's positions, scale and cell offset are computed. Fails with
    /// [`CoreError::CoefficientNotInSupport`] if a downset leaves the space.
    pub fn new(space: &CoefficientSpace, observed: &[AttrMask]) -> Result<Self, CoreError> {
        let d = space.domain_bits();
        let mut blocks = Vec::with_capacity(observed.len());
        let mut offset = 0usize;
        for &alpha in observed {
            let positions = alpha
                .subsets()
                .map(|beta| {
                    space
                        .index
                        .get(&beta)
                        .copied()
                        .ok_or(CoreError::CoefficientNotInSupport(beta))
                })
                .collect::<Result<Vec<u32>, _>>()?;
            blocks.push(Block {
                positions,
                scale: 2f64.powf(d as f64 / 2.0 - alpha.weight() as f64),
                cell_offset: offset,
            });
            offset += alpha.cell_count();
        }
        Ok(ObservationOperator {
            d,
            masks: observed.into(),
            blocks,
            num_coeffs: space.len(),
            num_cells: offset,
        })
    }

    /// Domain width in bits.
    #[inline]
    pub fn domain_bits(&self) -> usize {
        self.d
    }

    /// The marginals, in block order.
    #[inline]
    pub fn masks(&self) -> &[AttrMask] {
        &self.masks
    }

    /// The coefficient positions of block `i`'s downset, in compressed-rank
    /// order (the order of `masks()[i].subsets()`).
    #[inline]
    pub fn positions(&self, i: usize) -> &[u32] {
        &self.blocks[i].positions
    }

    /// Number of observed cells (rows of `R`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of coefficients (columns of `R`).
    #[inline]
    pub fn num_coeffs(&self) -> usize {
        self.num_coeffs
    }

    /// The row of each block that a record at data cell `cell` lands in —
    /// the block's offset plus the cell indexed by the record's bits under
    /// its mask — in block order: the column of the marginal counts `Cx`.
    pub fn cell_rows(&self, cell: u64) -> impl Iterator<Item = usize> + '_ {
        self.masks
            .iter()
            .zip(&self.blocks)
            .map(move |(alpha, b)| b.cell_offset + alpha.compress_cell(cell & alpha.0))
    }

    /// Applies `R`: coefficients → the marginals' cells in one buffer, in
    /// block order (Theorem 4.1(2)). The recovery of `F`, `Q` and `C`
    /// releases.
    ///
    /// The blocks fan out across cores in chunks of at least
    /// `table::PARALLEL_MIN_CELLS` (8 192) cell-passes
    /// (`2^{‖α‖}` cells times one gather and `‖α‖` butterfly levels per
    /// block), so a small workload, such as NLTCS Q2 (1 440 cell-passes), is
    /// recovered on the calling thread.
    pub fn apply(&self, coeffs: &[f64]) -> MarginalSet {
        debug_assert_eq!(coeffs.len(), self.num_coeffs);
        let work = self
            .masks
            .iter()
            .map(|alpha| alpha.cell_count() * (alpha.weight() as usize + 1))
            .sum();
        let cells = fill_blocks(&self.masks, work, |i, _, out| {
            self.blocks[i].cells_into(coeffs, out)
        });
        MarginalSet::new(Arc::clone(&self.masks), cells)
    }

    /// The inverse block map: block `i`'s exact coefficients from its
    /// *exact* cells, `f̂|_{≼α} = 2^{w − d/2} · (H/2^w) · cells`, as
    /// `(position, value)` pairs in rank order. `scratch` is the WHT
    /// buffer, so a pass over many blocks reuses one allocation.
    ///
    /// # Panics
    /// Panics if `cells` is not one value per cell of block `i`.
    pub fn coefficients<'a>(
        &'a self,
        i: usize,
        cells: &[f64],
        scratch: &'a mut Vec<f64>,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let positions = &self.blocks[i].positions;
        assert_eq!(cells.len(), positions.len(), "cells of block {i}");
        scratch.clear();
        scratch.extend_from_slice(cells);
        dp_linalg::fwht(scratch);
        let w = self.masks[i].weight() as i32;
        // cells = 2^{d/2−w} H f̂  ⇒  f̂ = 2^{w−d/2} · (1/2^w) · H · cells.
        let scale = 2f64.powf(w as f64 - self.d as f64 / 2.0) / 2f64.powi(w);
        let scratch: &'a [f64] = scratch;
        positions
            .iter()
            .zip(scratch)
            .map(move |(&p, &v)| (p as usize, v * scale))
    }

    /// Applies `Rᵀ`: concatenated cells → coefficients (accumulating across
    /// blocks). `H` is symmetric, so the transpose of a block is the same
    /// WHT with the same scale.
    pub fn apply_transposed(&self, cells: &[f64]) -> Vec<f64> {
        debug_assert_eq!(cells.len(), self.num_cells);
        let mut out = vec![0.0; self.num_coeffs];
        let mut buf = Vec::new();
        for b in &self.blocks {
            buf.clear();
            buf.extend_from_slice(&cells[b.rows()]);
            dp_linalg::fwht(&mut buf);
            for (&p, v) in b.positions.iter().zip(&buf) {
                out[p as usize] += v * b.scale;
            }
        }
        out
    }

    /// Solves the weighted least-squares problem
    /// `min_f ‖diag(w)^{1/2} (R f − cells)‖₂` via the normal equations.
    ///
    /// Because the per-block weight is constant, `RᵀWR` is *block-diagonal
    /// in effect*: each block contributes `w·scale²·2^w` on its own
    /// positions, so the normal matrix is diagonal! (Each coefficient's
    /// diagonal entry sums contributions of every observed marginal that
    /// dominates it; there are no off-diagonal terms because `Hᵀ H = 2^w I`
    /// within a block and blocks only share full coefficient columns.)
    /// The solve is therefore exact and direct — no CG iteration needed.
    pub fn gls_solve(&self, cells: &[f64], weights: &[f64]) -> Result<Vec<f64>, CoreError> {
        if cells.len() != self.num_cells {
            return Err(CoreError::Shape {
                context: "gls_solve cells",
                expected: self.num_cells,
                actual: cells.len(),
            });
        }
        if weights.len() != self.blocks.len() {
            return Err(CoreError::Shape {
                context: "gls_solve weights",
                expected: self.blocks.len(),
                actual: weights.len(),
            });
        }
        // Diagonal of RᵀWR.
        let mut diag = vec![0.0; self.num_coeffs];
        for (b, &w) in self.blocks.iter().zip(weights) {
            let contribution = w * b.scale * b.scale * b.positions.len() as f64;
            for &p in &b.positions {
                diag[p as usize] += contribution;
            }
        }
        // RHS RᵀW cells.
        let mut weighted = vec![0.0; self.num_cells];
        for (b, &w) in self.blocks.iter().zip(weights) {
            for (dst, src) in weighted[b.rows()].iter_mut().zip(&cells[b.rows()]) {
                *dst = w * src;
            }
        }
        let rhs = self.apply_transposed(&weighted);
        let mut f = vec![0.0; self.num_coeffs];
        for ((fi, &r), &d) in f.iter_mut().zip(&rhs).zip(&diag) {
            if d <= 0.0 {
                return Err(CoreError::Singular(
                    "a coefficient is observed with zero total weight",
                ));
            }
            *fi = r / d;
        }
        Ok(f)
    }

    /// Iterative GLS solve via conjugate gradients over per-cell weights —
    /// the independent reference that tests check the direct diagonal
    /// [`ObservationOperator::gls_solve`] against.
    pub fn gls_solve_cg(&self, cells: &[f64], cell_weights: &[f64]) -> Result<Vec<f64>, CoreError> {
        if cells.len() != self.num_cells || cell_weights.len() != self.num_cells {
            return Err(CoreError::Shape {
                context: "gls_solve_cg",
                expected: self.num_cells,
                actual: cells.len().min(cell_weights.len()),
            });
        }
        let weighted: Vec<f64> = cells.iter().zip(cell_weights).map(|(c, w)| c * w).collect();
        let rhs = self.apply_transposed(&weighted);
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut rv = self.apply(v).into_cells();
            for (r, &w) in rv.iter_mut().zip(cell_weights) {
                *r *= w;
            }
            self.apply_transposed(&rv)
        };
        // Jacobi preconditioner from per-cell weights.
        let mut diag = vec![0.0; self.num_coeffs];
        for b in &self.blocks {
            let wsum: f64 = cell_weights[b.rows()].iter().sum();
            let contribution = b.scale * b.scale * wsum;
            for &p in &b.positions {
                diag[p as usize] += contribution;
            }
        }
        let out = cg_solve(
            apply,
            &rhs,
            Some(&diag),
            CgOptions {
                max_iters: 4 * self.num_coeffs + 100,
                tol: 1e-11,
            },
        )
        .map_err(CoreError::Linalg)?;
        Ok(out.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ContingencyTable;
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> ContingencyTable {
        ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    }

    fn space_and_workload() -> (CoefficientSpace, Workload) {
        let w = Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).unwrap();
        let s = CoefficientSpace::from_marginals(3, w.marginals());
        (s, w)
    }

    #[test]
    fn support_is_downset_union() {
        let (s, _) = space_and_workload();
        // Downsets: {∅, 100} ∪ {∅, 010, 100, 110} = 4 masks.
        assert_eq!(s.len(), 4);
        assert_eq!(s.position(AttrMask::EMPTY), Some(0));
        assert!(s.position(AttrMask(0b001)).is_none());
    }

    #[test]
    fn fill_and_reconstruct_roundtrip() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        let t = table();
        let mut coeffs = vec![0.0; s.len()];
        let mut scratch = Vec::new();
        for (i, (_, cells)) in w.true_answers(&t).iter().enumerate() {
            for (p, c) in op.coefficients(i, cells, &mut scratch) {
                coeffs[p] = c;
            }
        }
        // Coefficients must match the direct oracle.
        for (&beta, &c) in s.support().iter().zip(&coeffs) {
            let oracle = t.fourier_coefficient(beta);
            assert!((c - oracle).abs() < 1e-10, "beta={beta}: {c} vs {oracle}");
        }
        // Reconstruction returns the exact marginals.
        for ((mask, rec), &alpha) in op.apply(&coeffs).iter().zip(w.marginals()) {
            let direct = t.marginal(alpha);
            assert_eq!(mask, alpha);
            for (a, b) in rec.iter().zip(direct.values()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    /// A random coefficient vector of `len` entries that mixes ordinary
    /// values with `-0.0`, subnormals, NaN and ±∞.
    fn awkward_coefficients(rng: &mut StdRng, len: usize) -> Vec<f64> {
        const SPECIAL: [f64; 6] = [
            -0.0,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                _ => rng.gen_range(-1e3..1e3),
            })
            .collect()
    }

    /// The block-map oracle: `apply` above the grain floor, fanned out
    /// across cores, equals a per-block walk on the calling thread bit for
    /// bit, whatever the coefficient values; the inverse map undoes the
    /// forward map exactly on integer marginals; and `new` refuses a
    /// marginal outside the support before building anything.
    #[test]
    fn block_map_walks_agree_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(41);

        // All 3-way marginals over 16 bits: 560 blocks of 8 cells, a gather
        // and three butterfly levels each, enough work for several chunks.
        let schema = crate::schema::Schema::binary(16).unwrap();
        let wide = Workload::all_k_way(&schema, 3).unwrap();
        let space = CoefficientSpace::from_marginals(16, wide.marginals());
        let op = ObservationOperator::new(&space, wide.marginals()).unwrap();
        assert!(wide.total_cells() * 4 > 2 * crate::table::PARALLEL_MIN_CELLS);
        for _ in 0..20 {
            let coeffs = awkward_coefficients(&mut rng, space.len());
            let mut walk = Vec::new();
            for (i, &alpha) in wide.marginals().iter().enumerate() {
                let mut block: Vec<f64> = op
                    .positions(i)
                    .iter()
                    .map(|&p| coeffs[p as usize])
                    .collect();
                dp_linalg::fwht(&mut block);
                let scale = 2f64.powf(16.0 / 2.0 - alpha.weight() as f64);
                walk.extend(block.iter().map(|v| v * scale));
            }
            let applied = op.apply(&coeffs);
            assert_eq!(applied.masks(), wide.marginals());
            assert_eq!(bits(applied.cells()), bits(&walk));
        }

        let w = Workload::new(
            6,
            vec![
                AttrMask(0b000000),
                AttrMask(0b000101),
                AttrMask(0b110100),
                AttrMask(0b011011),
                AttrMask(0b001111),
            ],
        )
        .unwrap();
        let s = CoefficientSpace::from_marginals(6, w.marginals());
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();

        // inverse ∘ forward on exact integer marginals: the coefficients
        // filled from the tables reproduce the tables bit for bit, and
        // every block that shares a coefficient fills the same bits.
        let counts: Vec<f64> = (0..64).map(|_| rng.gen_range(0..50) as f64).collect();
        let exact = ContingencyTable::from_counts(counts).marginals(w.marginals());
        let mut coeffs = vec![f64::NAN; s.len()];
        let mut scratch = Vec::new();
        for (i, (_, cells)) in exact.iter().enumerate() {
            for (p, c) in op.coefficients(i, cells, &mut scratch) {
                assert!(coeffs[p].is_nan() || coeffs[p].to_bits() == c.to_bits());
                coeffs[p] = c;
            }
        }
        assert_eq!(bits(op.apply(&coeffs).cells()), bits(exact.cells()));
        let mut again = Vec::new();
        for (i, (_, rec)) in op.apply(&coeffs).iter().enumerate() {
            let pairs: Vec<(usize, f64)> = op.coefficients(i, rec, &mut again).collect();
            for (p, c) in pairs {
                assert_eq!(c.to_bits(), coeffs[p].to_bits());
            }
        }

        // A mask whose downset leaves the support is refused at `new`.
        let err = ObservationOperator::new(&s, &[AttrMask(0b000101), AttrMask(0b100001)]);
        assert!(matches!(
            err,
            Err(CoreError::CoefficientNotInSupport(beta)) if beta == AttrMask(0b100001)
        ));
    }

    #[test]
    fn operator_matches_dense_recovery_matrix() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        assert_eq!(op.num_cells(), 6);
        assert_eq!(op.num_coeffs(), 4);
        // Build the dense R via the Theorem 4.1 entry formula and compare
        // the action on random-ish vectors.
        let mut dense = dp_linalg::Matrix::zeros(op.num_cells(), op.num_coeffs());
        let mut row = 0;
        for &alpha in w.marginals() {
            for rank in 0..alpha.cell_count() {
                let gamma = alpha.expand_cell(rank);
                for (j, &beta) in s.support().iter().enumerate() {
                    dense[(row, j)] =
                        crate::marginal::marginal_fourier_entry(3, alpha, beta, gamma);
                }
                row += 1;
            }
        }
        let v = vec![0.3, -1.2, 2.0, 0.7];
        let via_op = op.apply(&v).into_cells();
        let via_dense = dense.matvec(&v).unwrap();
        for (a, b) in via_op.iter().zip(&via_dense) {
            assert!((a - b).abs() < 1e-10);
        }
        let y = vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.5];
        let t_op = op.apply_transposed(&y);
        let t_dense = dense.matvec_transposed(&y).unwrap();
        for (a, b) in t_op.iter().zip(&t_dense) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn gls_recovers_exact_data_without_noise() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        let t = table();
        let cells = w.true_answers(&t).into_cells();
        let f = op.gls_solve(&cells, &[1.0, 1.0]).unwrap();
        for (&beta, &c) in s.support().iter().zip(&f) {
            assert!((c - t.fourier_coefficient(beta)).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_and_cg_gls_agree() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        // Inconsistent noisy cells.
        let cells = vec![4.3, 0.8, 3.4, 0.6, 0.2, 1.1];
        let weights = [2.0, 0.5];
        let direct = op.gls_solve(&cells, &weights).unwrap();
        let cell_weights = vec![2.0, 2.0, 0.5, 0.5, 0.5, 0.5];
        let cg = op.gls_solve_cg(&cells, &cell_weights).unwrap();
        for (a, b) in direct.iter().zip(&cg) {
            assert!((a - b).abs() < 1e-7, "{direct:?} vs {cg:?}");
        }
    }

    #[test]
    fn gls_result_is_consistent() {
        // Consistency (Definition 2.3): the fitted cells R·f̂ correspond to
        // *some* dataset; equivalently the fitted A-marginal equals the
        // aggregated fitted AB-marginal.
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        let cells = vec![10.0, 2.0, 3.0, 1.0, 4.0, 0.0]; // wildly inconsistent
        let f = op.gls_solve(&cells, &[1.0, 1.0]).unwrap();
        let fitted = op.apply(&f);
        let [(_, a), (ab_mask, ab)] =
            <[_; 2]>::try_from(fitted.iter().collect::<Vec<_>>()).unwrap();
        let agg = crate::marginal::aggregate(ab_mask, ab, AttrMask(0b100)).unwrap();
        for (x, y) in a.iter().zip(&agg) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_coefficient_is_reported() {
        let (s, _) = space_and_workload();
        assert!(matches!(
            ObservationOperator::new(&s, &[AttrMask(0b111)]),
            Err(CoreError::CoefficientNotInSupport(_))
        ));
    }

    #[test]
    fn shape_errors() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        assert!(op.gls_solve(&[1.0], &[1.0, 1.0]).is_err());
        assert!(op.gls_solve(&[0.0; 6], &[1.0]).is_err());
        assert!(op.gls_solve_cg(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn weighted_gls_interpolates_between_observations() {
        // Two observations of the same marginal A via blocks {A} and {A,B};
        // heavier weight pulls the estimate toward that observation.
        let w = Workload::new(2, vec![AttrMask(0b01), AttrMask(0b11)]).unwrap();
        let s = CoefficientSpace::from_marginals(2, w.marginals());
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        // A-marginal says [10, 0]; AB-marginal says totals [0, 0, 0, 0].
        let cells = vec![10.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let f_heavy_a = op.gls_solve(&cells, &[100.0, 0.01]).unwrap();
        let a_est = op.apply(&f_heavy_a);
        let a_est = a_est.iter().next().unwrap().1;
        assert!(a_est[0] > 9.0, "{:?}", a_est);
        let f_heavy_ab = op.gls_solve(&cells, &[0.01, 100.0]).unwrap();
        let a_est2 = op.apply(&f_heavy_ab);
        let a_est2 = a_est2.iter().next().unwrap().1;
        assert!(a_est2[0] < 1.0, "{:?}", a_est2);
    }
}
