//! Marginal query workloads.
//!
//! Implements the workload families of the paper's experimental study
//! (Section 5):
//!
//! * `Q_k`  — all `k`-way marginal tables,
//! * `Q*_k` — all `k`-way marginals plus half of all `(k+1)`-way marginals,
//! * `Q^a_k` — all `k`-way marginals plus all `(k+1)`-way marginals that
//!   include a fixed attribute `a`.
//!
//! Workloads are defined over the *attributes* of a [`Schema`] and mapped to
//! bitmasks over the binary-encoded domain, exactly as the paper encodes
//! categorical data (Section 4.1). The paper does not specify which half of
//! the `(k+1)`-way marginals `Q*_k` takes; we take the first half in
//! lexicographic order of attribute subsets (documented substitution).

use crate::mask::AttrMask;
use crate::schema::{Schema, SchemaError};
use crate::table::ContingencyTable;

/// A workload of marginal queries over a `d`-bit binary domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    d: usize,
    marginals: Vec<AttrMask>,
}

/// Errors in workload construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A marginal mask used bits outside the domain.
    MaskOutOfDomain {
        /// The offending mask.
        mask: AttrMask,
        /// Domain width in bits.
        d: usize,
    },
    /// `k` exceeded the number of attributes.
    BadArity {
        /// Requested marginal arity.
        k: usize,
        /// Available attributes.
        attributes: usize,
    },
    /// The workload would be empty.
    Empty,
    /// The domain is wider than the 63 bits an [`AttrMask`] can address.
    DomainTooWide {
        /// Requested domain width in bits.
        d: usize,
    },
    /// Schema-level failure while mapping attributes to bits.
    Schema(SchemaError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::MaskOutOfDomain { mask, d } => {
                write!(f, "marginal {mask} uses bits outside the {d}-bit domain")
            }
            WorkloadError::BadArity { k, attributes } => {
                write!(
                    f,
                    "cannot form {k}-way marginals over {attributes} attributes"
                )
            }
            WorkloadError::Empty => write!(f, "workload is empty"),
            WorkloadError::DomainTooWide { d } => {
                write!(f, "a {d}-bit domain exceeds the 63-bit maximum")
            }
            WorkloadError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<SchemaError> for WorkloadError {
    fn from(e: SchemaError) -> Self {
        WorkloadError::Schema(e)
    }
}

/// Enumerates all `k`-element subsets of `0..n` in lexicographic order.
pub fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

impl Workload {
    /// Creates a workload from explicit masks, deduplicating while
    /// preserving first-occurrence order.
    pub fn new(d: usize, marginals: Vec<AttrMask>) -> Result<Self, WorkloadError> {
        if marginals.is_empty() {
            return Err(WorkloadError::Empty);
        }
        if d > 63 {
            return Err(WorkloadError::DomainTooWide { d });
        }
        let full = AttrMask::full(d);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(marginals.len());
        for m in marginals {
            if !m.dominated_by(full) {
                return Err(WorkloadError::MaskOutOfDomain { mask: m, d });
            }
            if seen.insert(m) {
                out.push(m);
            }
        }
        Ok(Workload { d, marginals: out })
    }

    /// `Q_k`: all `k`-way marginals over the schema's attributes.
    pub fn all_k_way(schema: &Schema, k: usize) -> Result<Self, WorkloadError> {
        let n = schema.num_attributes();
        if k == 0 || k > n {
            return Err(WorkloadError::BadArity { k, attributes: n });
        }
        let masks = k_subsets(n, k)
            .into_iter()
            .map(|s| schema.attribute_set_mask(&s))
            .collect::<Result<Vec<_>, _>>()?;
        Workload::new(schema.domain_bits(), masks)
    }

    /// `Q*_k`: all `k`-way marginals plus the first half (lexicographic) of
    /// the `(k+1)`-way marginals.
    pub fn k_way_plus_half(schema: &Schema, k: usize) -> Result<Self, WorkloadError> {
        let n = schema.num_attributes();
        if k == 0 || k + 1 > n {
            return Err(WorkloadError::BadArity {
                k: k + 1,
                attributes: n,
            });
        }
        let mut masks = k_subsets(n, k)
            .into_iter()
            .map(|s| schema.attribute_set_mask(&s))
            .collect::<Result<Vec<_>, _>>()?;
        let next = k_subsets(n, k + 1);
        let half = next.len().div_ceil(2);
        for s in next.into_iter().take(half) {
            masks.push(schema.attribute_set_mask(&s)?);
        }
        Workload::new(schema.domain_bits(), masks)
    }

    /// `Q^a_k`: all `k`-way marginals plus all `(k+1)`-way marginals that
    /// include the fixed attribute `attr`.
    pub fn k_way_plus_attr(schema: &Schema, k: usize, attr: usize) -> Result<Self, WorkloadError> {
        let n = schema.num_attributes();
        if k == 0 || k + 1 > n {
            return Err(WorkloadError::BadArity {
                k: k + 1,
                attributes: n,
            });
        }
        if attr >= n {
            return Err(WorkloadError::Schema(SchemaError::NoSuchAttribute(attr)));
        }
        let mut masks = k_subsets(n, k)
            .into_iter()
            .map(|s| schema.attribute_set_mask(&s))
            .collect::<Result<Vec<_>, _>>()?;
        for s in k_subsets(n, k + 1) {
            if s.contains(&attr) {
                masks.push(schema.attribute_set_mask(&s)?);
            }
        }
        Workload::new(schema.domain_bits(), masks)
    }

    /// Domain width in bits.
    #[inline]
    pub fn domain_bits(&self) -> usize {
        self.d
    }

    /// The marginal masks, in workload order.
    #[inline]
    pub fn marginals(&self) -> &[AttrMask] {
        &self.marginals
    }

    /// Number of marginal queries `ℓ`.
    #[inline]
    pub fn len(&self) -> usize {
        self.marginals.len()
    }

    /// Whether the workload is empty (never true after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.marginals.is_empty()
    }

    /// Total number of released cells `K = Σ_i 2^{‖α_i‖}`.
    pub fn total_cells(&self) -> usize {
        self.marginals.iter().map(|m| m.cell_count()).sum()
    }

    /// The Fourier support `F = ∪_i {β : β ≼ α_i}` (Section 4.3), sorted.
    /// Its size `m = |F|` is the variable count of the fast consistency
    /// step.
    pub fn fourier_support(&self) -> Vec<AttrMask> {
        let mut set = std::collections::HashSet::new();
        for &alpha in &self.marginals {
            for beta in alpha.subsets() {
                set.insert(beta);
            }
        }
        let mut out: Vec<AttrMask> = set.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Exact answers `Cα x` for every workload marginal, in one pass, in
    /// the layout of a release's answers.
    pub fn true_answers(&self, table: &ContingencyTable) -> crate::marginal::MarginalSet {
        assert_eq!(table.dims(), self.d, "table dimensionality mismatch");
        table.marginals(&self.marginals)
    }

    /// Materializes the explicit query matrix `Q ∈ R^{K×N}` (row per
    /// marginal cell, in workload order). Only for small domains — the
    /// dense-path oracle of the framework tests.
    pub fn query_matrix(&self) -> dp_linalg::Matrix {
        assert!(self.d <= 16, "explicit query matrices limited to d ≤ 16");
        let n = 1usize << self.d;
        let mut m = dp_linalg::Matrix::zeros(self.total_cells(), n);
        let mut row = 0usize;
        for &alpha in &self.marginals {
            for rank in 0..alpha.cell_count() {
                let gamma = alpha.expand_cell(rank);
                for beta in 0..n as u64 {
                    if beta & alpha.0 == gamma {
                        m[(row, beta as usize)] = 1.0;
                    }
                }
                row += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema8() -> Schema {
        Schema::binary(8).unwrap()
    }

    #[test]
    fn k_subsets_counts() {
        assert_eq!(k_subsets(5, 2).len(), 10);
        assert_eq!(k_subsets(8, 3).len(), 56);
        assert_eq!(k_subsets(4, 4).len(), 1);
        assert_eq!(k_subsets(3, 5).len(), 0);
        assert_eq!(k_subsets(4, 1), vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn k_subsets_lexicographic() {
        let s = k_subsets(4, 2);
        assert_eq!(
            s,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn all_k_way_binary() {
        let w = Workload::all_k_way(&schema8(), 2).unwrap();
        assert_eq!(w.len(), 28);
        assert_eq!(w.total_cells(), 28 * 4);
        assert!(w.marginals().iter().all(|m| m.weight() == 2));
    }

    #[test]
    fn q_star_adds_half_of_next_level() {
        let w = Workload::k_way_plus_half(&schema8(), 1).unwrap();
        // 8 one-way + ceil(28/2) = 14 two-way.
        assert_eq!(w.len(), 8 + 14);
    }

    #[test]
    fn q_attr_adds_marginals_containing_attribute() {
        let w = Workload::k_way_plus_attr(&schema8(), 1, 0).unwrap();
        // 8 one-way + C(7,1) = 7 two-way containing attribute 0.
        assert_eq!(w.len(), 15);
        let two_way: Vec<_> = w.marginals().iter().filter(|m| m.weight() == 2).collect();
        assert_eq!(two_way.len(), 7);
        assert!(two_way.iter().all(|m| m.0 & 1 == 1));
    }

    #[test]
    fn categorical_schema_maps_attribute_sets_to_bit_blocks() {
        let schema = Schema::new(vec![
            Attribute::new("a", 4).unwrap(), // 2 bits
            Attribute::new("b", 3).unwrap(), // 2 bits
            Attribute::new("c", 2).unwrap(), // 1 bit
        ])
        .unwrap();
        let w = Workload::all_k_way(&schema, 1).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.marginals()[0], AttrMask(0b00011));
        assert_eq!(w.marginals()[1], AttrMask(0b01100));
        assert_eq!(w.marginals()[2], AttrMask(0b10000));
        assert_eq!(w.total_cells(), 4 + 4 + 2);
    }

    #[test]
    fn fourier_support_size_all_k_way() {
        // For all k-way over d binary attributes, |F| = Σ_{i≤k} C(d,i).
        let w = Workload::all_k_way(&schema8(), 2).unwrap();
        let f = w.fourier_support();
        assert_eq!(f.len(), 1 + 8 + 28);
        // Sorted and unique.
        assert!(f.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn dedup_preserves_order() {
        let w = Workload::new(3, vec![AttrMask(0b110), AttrMask(0b001), AttrMask(0b110)]).unwrap();
        assert_eq!(w.marginals(), &[AttrMask(0b110), AttrMask(0b001)]);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Workload::new(2, vec![AttrMask(0b100)]),
            Err(WorkloadError::MaskOutOfDomain { .. })
        ));
        assert!(matches!(
            Workload::new(2, vec![]),
            Err(WorkloadError::Empty)
        ));
        assert!(matches!(
            Workload::all_k_way(&schema8(), 0),
            Err(WorkloadError::BadArity { .. })
        ));
        assert!(matches!(
            Workload::all_k_way(&schema8(), 9),
            Err(WorkloadError::BadArity { .. })
        ));
        assert!(Workload::k_way_plus_attr(&schema8(), 1, 20).is_err());
        // Wider than an `AttrMask` can address: a typed error, not a panic.
        assert_eq!(
            Workload::new(64, vec![AttrMask(1)]),
            Err(WorkloadError::DomainTooWide { d: 64 })
        );
        assert!(Workload::new(63, vec![AttrMask(1 << 62)]).is_ok());
    }

    #[test]
    fn query_matrix_matches_figure_1b() {
        // Workload {A, AB} over 3 bits with A as the high bit reproduces the
        // paper's Q exactly.
        let w = Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).unwrap();
        let q = w.query_matrix();
        let expected = dp_linalg::Matrix::from_rows(&[
            &[1., 1., 1., 1., 0., 0., 0., 0.],
            &[0., 0., 0., 0., 1., 1., 1., 1.],
            &[1., 1., 0., 0., 0., 0., 0., 0.],
            &[0., 0., 1., 1., 0., 0., 0., 0.],
            &[0., 0., 0., 0., 1., 1., 0., 0.],
            &[0., 0., 0., 0., 0., 0., 1., 1.],
        ])
        .unwrap();
        assert_eq!(q, expected);
    }

    #[test]
    fn true_answers_match_marginal_queries() {
        let t = ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let w = Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).unwrap();
        let ans = w.true_answers(&t);
        let views: Vec<_> = ans.iter().map(|(_, cells)| cells).collect();
        assert_eq!(views[0], &[4.0, 1.0]);
        assert_eq!(views[1], &[3.0, 1.0, 0.0, 1.0]);
        // Matches the explicit query matrix applied to x: one layout.
        let q = w.query_matrix();
        let y = q.matvec(t.counts()).unwrap();
        assert_eq!(y, ans.cells());
    }
}
