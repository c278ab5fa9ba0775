//! Contingency tables: the data vector `x ∈ R^N`.
//!
//! As in the paper's Figure 1(a), a database over `d` binary attributes is
//! represented as the vector of counts over its linearized domain: `x_β` is
//! the number of tuples whose encoded attribute values equal `β`.
//!
//! Its marginals come out as one [`MarginalSet`], all cells in one buffer
//! in mask order. Every marginal path — exact answers, `Q`/`C`
//! observations, the identity recovery's folds and, in
//! [`crate::fourier`], the block map's forward map — fills such a buffer
//! through one fan-out over its block slices, under one grain-size floor
//! (`PARALLEL_MIN_CELLS` cells per chunk). Exact marginals of count data
//! form a small lattice: targets share parent marginals ([`parents`]),
//! each summed once from the occupied cells, and each target is folded out
//! of its parent.

use std::sync::{Arc, Mutex};

use crate::marginal::{MarginalSet, MarginalTable};
use crate::mask::{AttrMask, CellCompressor};
use crate::schema::{Schema, SchemaError};
use crate::CoreError;

/// A full contingency table over `{0,1}^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    d: usize,
    /// Shared copy-on-write with every [`crate::api::Session`] bound to
    /// the table: a bind takes no copy, and a mutator copies only while a
    /// session still holds the vector.
    counts: Arc<Vec<f64>>,
}

impl ContingencyTable {
    /// An all-zero table over `d` binary attributes.
    pub fn zeros(d: usize) -> Self {
        assert!(d <= 30, "in-memory contingency tables limited to d ≤ 30");
        ContingencyTable::from_counts(vec![0.0; 1usize << d])
    }

    /// Wraps an existing count vector; `counts.len()` must be a power of
    /// two equal to `2^d`.
    pub fn from_counts(counts: Vec<f64>) -> Self {
        assert!(
            counts.len().is_power_of_two(),
            "count vector length must be a power of two"
        );
        let d = counts.len().trailing_zeros() as usize;
        ContingencyTable {
            d,
            counts: Arc::new(counts),
        }
    }

    /// Builds the table of a record multiset under a schema.
    pub fn from_records(schema: &Schema, records: &[Vec<usize>]) -> Result<Self, SchemaError> {
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        let counts = Arc::make_mut(&mut t.counts);
        for r in records {
            counts[schema.encode(r)? as usize] += 1.0;
        }
        Ok(t)
    }

    /// Builds the table directly from pre-encoded indices.
    pub fn from_indices(d: usize, indices: &[u64]) -> Self {
        let mut t = ContingencyTable::zeros(d);
        let counts = Arc::make_mut(&mut t.counts);
        for &i in indices {
            counts[i as usize] += 1.0;
        }
        t
    }

    /// Number of binary attributes `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Domain size `N = 2^d`.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.counts.len()
    }

    /// The raw count vector `x`.
    #[inline]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The count vector itself, shared rather than copied — what
    /// [`crate::api::Session::bind`] holds.
    pub(crate) fn shared_counts(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.counts)
    }

    /// Total number of tuples `Σ_β x_β`.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Inserts one record: `x_{enc(r)} += 1`. The table-side twin of
    /// [`crate::api::Session::ingest`]; equivalent to rebuilding
    /// with [`ContingencyTable::from_records`] on the extended multiset.
    pub fn add_record(&mut self, schema: &Schema, record: &[usize]) -> Result<u64, SchemaError> {
        let idx = schema.encode(record)?;
        Arc::make_mut(&mut self.counts)[idx as usize] += 1.0;
        Ok(idx)
    }

    /// Deletes one record: `x_{enc(r)} -= 1`, refusing to drive the cell
    /// negative (retracting a record that was never inserted).
    pub fn remove_record(&mut self, schema: &Schema, record: &[usize]) -> Result<u64, CoreError> {
        let idx = schema
            .encode(record)
            .map_err(|_| CoreError::InvalidPlan("record does not match the table's schema"))?;
        self.add_count(idx, -1.0)?;
        Ok(idx)
    }

    /// Adds `delta` tuples at linearized cell `cell` (negative `delta`
    /// retracts). Errors if the cell is out of range, if the delta is not
    /// finite or would overflow the count, or if the resulting count would
    /// be negative — the same guards as
    /// [`crate::api::Session::ingest_count`]. On error the table is
    /// unchanged.
    pub fn add_count(&mut self, cell: u64, delta: f64) -> Result<(), CoreError> {
        let n = self.counts.len();
        if cell >= n as u64 {
            return Err(CoreError::Shape {
                context: "ContingencyTable::add_count cell",
                expected: n,
                actual: cell as usize,
            });
        }
        let next = self.counts[cell as usize] + delta;
        if !next.is_finite() {
            return Err(CoreError::NonFiniteDelta { cell, delta });
        }
        if next < 0.0 {
            return Err(CoreError::NegativeCount { cell, count: next });
        }
        Arc::make_mut(&mut self.counts)[cell as usize] = next;
        Ok(())
    }

    /// Computes the marginal `Cα x` (Section 4.1): cell `γ ≼ α` receives
    /// `Σ_{β : β∧α=γ} x_β`, indexed by [`AttrMask::compress_cell`]. Same
    /// path and cost as [`ContingencyTable::marginals`].
    pub fn marginal(&self, alpha: AttrMask) -> MarginalTable {
        MarginalTable::new(alpha, self.marginals(&[alpha]).into_cells())
    }

    /// Computes several marginals into one buffer, fanned out across cores
    /// — the exact answers of a workload. Count data takes one O(N) scan
    /// for its [`occupied_cells`], one pass over them per shared parent
    /// ([`parents`], [`sum_occupied`]) and one fold per marginal out of its
    /// parent; other vectors take the [`marginalize`] fold.
    pub fn marginals(&self, alphas: &[AttrMask]) -> MarginalSet {
        count_marginals(&self.counts, self.d, alphas)
    }

    /// The Fourier coefficient `⟨f^α, x⟩` of the table (O(N) direct sum;
    /// use the WHT for many coefficients at once).
    pub fn fourier_coefficient(&self, alpha: AttrMask) -> f64 {
        dp_linalg::wht::fourier_coefficient(&self.counts, alpha.0 as usize)
    }
}

/// Largest total whose every partial sum of integer counts is an exact
/// `f64`.
const EXACT_TOTAL: u64 = 1 << 53;

/// The occupied cells `(cell, count)` of a count vector, in cell order —
/// or `None` unless every count is `+0.0` or a positive integer and the
/// total is at most 2^53. Those are the vectors whose partial sums are all
/// exact, so any summation order gives the same bits; noisy or fractional
/// vectors, `-0.0`, NaN and larger totals return `None`.
pub fn occupied_cells(counts: &[f64]) -> Option<Vec<(u64, f64)>> {
    let mut cells = Vec::new();
    let mut total = 0u64;
    for (cell, &c) in counts.iter().enumerate() {
        if c.to_bits() == 0 {
            continue;
        }
        if !(c > 0.0 && c <= EXACT_TOTAL as f64 && c.fract() == 0.0) {
            return None;
        }
        total += c as u64;
        if total > EXACT_TOTAL {
            return None;
        }
        cells.push((cell as u64, c));
    }
    Some(cells)
}

/// The marginal over `alpha` of [`occupied_cells`]: each count added, in
/// cell order, into cell `alpha.compress_cell(cell ∧ alpha)`, its index
/// looked up one byte at a time ([`CellCompressor`]), O(d/8) per occupied
/// cell. Exact marginals run one such pass per parent ([`parents`]), not
/// per target.
pub fn sum_occupied(cells: &[(u64, f64)], alpha: AttrMask) -> Vec<f64> {
    let index = CellCompressor::new(alpha);
    let mut out = vec![0.0; alpha.cell_count()];
    for &(cell, c) in cells {
        out[index.compress(cell)] += c;
    }
    out
}

/// Occupied cells per cell of a shared parent: [`parents`] lets targets
/// share a parent of at most `occupied / PARENT_SHARE` cells.
///
/// A target's fold reads about twice its parent's cells, so a wider cap
/// trades passes for dearer folds. Measured serially, pinned to one core
/// of a 2-core VM (best of 15, three runs; the exact sums and folds only,
/// after the occupied-cell scan), per-target passes against shares 2, 4, 8
/// and 16: NLTCS Q2 (120 targets, 5 507 occupied cells) 1.43–1.54 ms
/// against 0.17–0.19, 0.13–0.21, 0.13–0.21 and 0.16–0.25 ms; NLTCS Q3
/// (560 targets) 6.6–7.1 ms against 0.76–0.78, 0.57–0.58, 0.74–0.77 and
/// 0.57–0.59 ms; synthetic Adult Q2 (28 targets, 15 261 occupied cells)
/// 1.02–1.14 ms against 0.36–0.40, 0.34–0.38, 0.44–0.49 and 0.53–0.59 ms;
/// Adult Q3 (56 targets) 2.3–3.4 ms against 1.0–1.6, 1.1–1.7, 1.3–1.9
/// and 1.5–2.2 ms. A share of 4 is at or near the best on each.
pub const PARENT_SHARE: usize = 4;

/// The parents of a set of target marginals ([`parents`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parents {
    /// The parent masks, in order of first use.
    pub masks: Vec<AttrMask>,
    /// Each target's parent, an index into `masks`; the target is
    /// dominated by it.
    pub of_target: Vec<usize>,
}

/// Groups `targets` first-fit into parents for a count vector with
/// `occupied` occupied cells: each target joins the first parent whose
/// union with it stays within `occupied /` [`PARENT_SHARE`] cells, and
/// otherwise opens a parent of its own. A target wider than that cap is its
/// own parent and takes no other. O(targets × parents): only parents within
/// the cap are tried.
pub fn parents(targets: &[AttrMask], occupied: usize) -> Parents {
    let max_weight = (occupied / PARENT_SHARE).checked_ilog2();
    let fits = |mask: AttrMask| max_weight.is_some_and(|w| mask.weight() <= w);
    let mut masks: Vec<AttrMask> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut of_target = Vec::with_capacity(targets.len());
    for &target in targets {
        let parent = match open.iter().find(|&&p| fits(masks[p].union(target))) {
            Some(&p) => {
                masks[p] = masks[p].union(target);
                p
            }
            None => {
                if fits(target) {
                    open.push(masks.len());
                }
                masks.push(target);
                masks.len() - 1
            }
        };
        of_target.push(parent);
    }
    Parents { masks, of_target }
}

/// Cells a fan-out over marginals touches per chunk, at least, when it is
/// split across cores (see [`min_len`]): a call touching fewer than twice
/// this many runs on the calling thread and wakes no pool worker.
///
/// Derived from the cost of one rayon dispatch, measured on a 2-core VM:
/// 16 chunks of trivial work cost 3–4 µs of wall time and 4–7 µs of CPU
/// in isolation (`getrusage`), and about 20 µs of process CPU per release
/// under the `marginal_wire` benchmark's load. A cell touched costs about
/// 1–2 ns in a fold ([`marginalize`], d = 16), about 2 ns in an
/// occupied-cell sum ([`sum_occupied`] with byte lookups, NLTCS) and
/// 11–19 ns per pass of a small block WHT with its coefficient gather
/// (`ObservationOperator::apply`, Q1–Q4 over NLTCS). So a call splits only
/// above 15–30 µs of folds or sums or 180 µs of recovery work, where a
/// wake-up costs a small share of it. One NLTCS Q2 `F+` recovery (120
/// four-cell blocks, 1 440 cell-passes, about 20 µs) stays on the caller;
/// its bind's folds (120 targets out of parents of up to 1 024 cells) and
/// every `I` recovery fold (2^d cells per marginal) fan out.
pub(crate) const PARALLEL_MIN_CELLS: usize = 1 << 13;

/// The `with_min_len` of a fan-out over `items` items that touch `cells`
/// cells in all: enough items per chunk to touch [`PARALLEL_MIN_CELLS`] on
/// average. More than `items / 2` when `cells < 2 · PARALLEL_MIN_CELLS`,
/// so such a call is one chunk, run on the calling thread.
pub(crate) fn min_len(items: usize, cells: usize) -> usize {
    PARALLEL_MIN_CELLS
        .saturating_mul(items)
        .div_ceil(cells.max(1))
        .max(1)
}

/// Blocks per chunk of a [`fill_blocks`] call over `blocks` blocks that
/// touch `work` cells: at least [`min_len`], and otherwise the chunk count
/// the rayon shim gives its indexed iterators, about eight per thread.
/// The shim hands out each chunk of `par_chunks_mut` as one task, so
/// without that cap the NLTCS Q2 bind (120 blocks, two per chunk at the
/// floor) would be 60 tasks instead of 15.
fn block_chunk(blocks: usize, work: usize) -> usize {
    let per_thread = blocks.div_ceil(8 * rayon::current_num_threads());
    min_len(blocks, work).max(per_thread)
}

/// Fills a buffer laid out by `masks` — block `i` is the `2^{‖α_i‖}` cells
/// of marginal `i`, in mask order, zeroed — with `fill(i, α_i, block)`:
/// the one fan-out of the marginal paths (recovery, folds, exact sums).
/// The blocks fan out across cores in chunks of at least
/// [`min_len`]`(masks.len(), work)` blocks ([`block_chunk`]), `work` being
/// the cells the whole call touches, so a small call stays on the calling
/// thread. Each block is written by one call of `fill` whatever the
/// chunking, so the bytes do not depend on it. A call that is one chunk,
/// or runs on one thread, loops over the blocks in place and allocates
/// nothing beyond the buffer.
pub(crate) fn fill_blocks<F>(masks: &[AttrMask], work: usize, fill: F) -> Vec<f64>
where
    F: Fn(usize, AttrMask, &mut [f64]) + Sync,
{
    use rayon::prelude::*;
    let mut out = vec![0.0; masks.iter().map(|m| m.cell_count()).sum()];
    let blocks = masks
        .iter()
        .enumerate()
        .scan(&mut out[..], |rest, (i, &alpha)| {
            let (block, tail) = std::mem::take(rest).split_at_mut(alpha.cell_count());
            *rest = tail;
            Some((i, alpha, block))
        });
    let chunk = block_chunk(masks.len(), work);
    if chunk >= masks.len() || rayon::current_num_threads() == 1 {
        // One chunk, run here: no list of blocks to hand out.
        blocks.for_each(|(i, alpha, block)| fill(i, alpha, block));
    } else {
        let mut list = Vec::with_capacity(masks.len());
        list.extend(blocks);
        list.par_chunks_mut(chunk).for_each(|chunk| {
            for (i, alpha, block) in chunk {
                fill(*i, *alpha, block);
            }
        });
    }
    out
}

/// The exact marginals of a count vector, with no copy of the vector:
/// one O(N) scan for the [`occupied_cells`], one pass over them per
/// parent ([`parents`], [`sum_occupied`]), and one fold of each target
/// out of its parent's cells ([`marginalize`]'s fold) — about
/// `parents × occupied + Σ parent cells per target`, where summing per
/// target cost `targets × occupied`. Every partial sum of such a vector
/// is an exact integer, so the bytes equal the [`marginalize`] fold's
/// whatever the grouping; vectors that fail the exactness test take the
/// fold. The one marginal path for data vectors — bind, rebase and exact
/// workload answers.
///
/// The parents and then the targets fan out across cores ([`fill_blocks`])
/// in chunks of at least [`PARALLEL_MIN_CELLS`] cells touched, so a small
/// table or workload stays on the calling thread.
pub(crate) fn count_marginals(counts: &[f64], d: usize, alphas: &[AttrMask]) -> MarginalSet {
    let cells = match occupied_cells(counts) {
        Some(cells) => {
            let parents = parents(alphas, cells.len());
            let work = parents
                .masks
                .iter()
                .map(|p| cells.len() + p.cell_count())
                .sum();
            // Each parent is summed apart and copied in once: thousands
            // of additions into a block that shares a cache line with
            // another thread's block made the NLTCS Q1 and Q2 binds about
            // 10% slower at nproc = 2.
            let sums = fill_blocks(&parents.masks, work, |_, parent, out| {
                out.copy_from_slice(&sum_occupied(&cells, parent))
            });
            let offsets: Vec<usize> = parents
                .masks
                .iter()
                .scan(0, |next, p| {
                    Some(std::mem::replace(next, *next + p.cell_count()))
                })
                .collect();
            let work = alphas
                .iter()
                .zip(&parents.of_target)
                .map(|(alpha, &p)| parents.masks[p].cell_count() + alpha.cell_count())
                .sum();
            fill_blocks(alphas, work, |i, alpha, out| {
                let p = parents.of_target[i];
                let parent = parents.masks[p];
                let within = AttrMask(parent.compress_cell(alpha.0) as u64);
                let sum = &sums[offsets[p]..][..parent.cell_count()];
                fold_pooled(sum, parent.weight() as usize, within, out);
            })
        }
        None => marginalize_all(counts, d, alphas),
    };
    MarginalSet::new(alphas, cells)
}

/// Marginalizes a raw count vector over `d` bits down to the cells of
/// `alpha`, by folding out each cleared bit: the first fold reads `counts`
/// into a buffer of half its size, and each later fold halves that buffer
/// in place, O(N) whatever `‖α‖`; a full mask copies `counts`. The
/// surviving bits keep their relative order, so the output indexing
/// matches [`AttrMask::compress_cell`]. The path for noisy vectors.
pub fn marginalize(counts: &[f64], d: usize, alpha: AttrMask) -> Vec<f64> {
    let mut out = vec![0.0; alpha.cell_count()];
    marginalize_into(counts, d, alpha, &mut Vec::new(), &mut out);
    out
}

/// [`marginalize`] into `out` (the marginal's `2^{‖α‖}` cells), with
/// `work` as the fold buffer: it grows to `2^{d−1}` cells and keeps its
/// capacity, so nothing is allocated once it has.
fn marginalize_into(
    counts: &[f64],
    d: usize,
    alpha: AttrMask,
    work: &mut Vec<f64>,
    out: &mut [f64],
) {
    debug_assert_eq!(counts.len(), 1usize << d);
    // Fold out cleared bits from highest to lowest so each fold is a
    // contiguous halves-add (cache friendly); relative order of surviving
    // bits is preserved either way.
    let mut cleared = (0..d).rev().filter(|&bit| alpha.0 >> bit & 1 == 0);
    let Some(first) = cleared.next() else {
        out.copy_from_slice(counts);
        return;
    };
    let half_stride = 1usize << first;
    work.clear();
    for block in counts.chunks_exact(2 * half_stride) {
        let (lo, hi) = block.split_at(half_stride);
        work.extend(lo.iter().zip(hi).map(|(a, b)| a + b));
    }
    for bit in cleared {
        // Remove `bit` from an array whose bits above `bit` are the
        // still-unfolded high bits (all folds above already happened).
        let half_stride = 1usize << bit;
        let n = work.len();
        let mut write = 0usize;
        let mut base = 0usize;
        while base < n {
            for i in 0..half_stride {
                work[write + i] = work[base + i] + work[base + half_stride + i];
            }
            write += half_stride;
            base += 2 * half_stride;
        }
        work.truncate(n / 2);
    }
    out.copy_from_slice(work);
}

/// Fold buffers of [`marginalize_all`], reused across calls. Each fold of
/// a `2^d`-cell vector needs `2^{d−1}` cells of work space; allocating it
/// per marginal faulted in every page of it, every release (8 192 pages
/// per target marginal on synthetic Adult). A capped, mutexed free-list
/// rather than a thread-local, so that every service thread that ever
/// folded does not keep a buffer of its own.
static FOLD_POOL: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// [`marginalize_into`] with a fold buffer checked out of [`FOLD_POOL`].
fn fold_pooled(counts: &[f64], d: usize, alpha: AttrMask, out: &mut [f64]) {
    if out.len() == counts.len() {
        // A full mask folds nothing: no buffer to check out.
        out.copy_from_slice(counts);
        return;
    }
    let mut work = FOLD_POOL
        .lock()
        .map(|mut pool| pool.pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    marginalize_into(counts, d, alpha, &mut work, out);
    if let Ok(mut pool) = FOLD_POOL.lock() {
        // One buffer per thread that can fold at once is enough.
        if pool.len() < rayon::current_num_threads() {
            pool.push(work);
        }
    }
}

/// [`marginalize`] for several marginals of one (noisy) vector into one
/// buffer in mask order, each folded in a buffer checked out of a
/// process-wide pool. The marginals fan out across cores ([`fill_blocks`])
/// in chunks of at least [`PARALLEL_MIN_CELLS`] cells read (`2^d` per
/// marginal), so only a tiny vector stays on the calling thread.
pub(crate) fn marginalize_all(counts: &[f64], d: usize, alphas: &[AttrMask]) -> Vec<f64> {
    fill_blocks(alphas, alphas.len() * counts.len(), |_, alpha, out| {
        fold_pooled(counts, d, alpha, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    /// The paper's Figure 1(a) table: x = (1,2,0,1,0,0,1,0) over attributes
    /// A,B,C linearized in the order 000, 001, …, 111 — note the paper
    /// linearizes with A as the *most* significant bit, so with our
    /// lowest-bit-first schema layout, A is bit 2.
    pub(crate) fn figure1_table() -> ContingencyTable {
        ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    }

    #[test]
    fn the_grain_floor_splits_only_large_fan_outs() {
        let splits = |items: usize, cells: usize| items >= 2 * min_len(items, cells);
        // NLTCS Q2 `F+` recovery: 120 four-cell blocks, a gather and two
        // butterfly levels each.
        assert!(!splits(120, 120 * 4 * 3));
        // NLTCS Q1 `F+` recovery and an empty table's marginals.
        assert!(!splits(16, 16 * 2 * 2));
        assert!(!splits(8, 0));
        // The NLTCS Q2 bind's folds: 120 targets out of 1 024-cell
        // parents split into 15 chunks.
        assert_eq!(120 / min_len(120, 120 * (1024 + 4)), 15);
        // `I` recovery folds 2^d cells per marginal: no floor at all.
        assert_eq!(min_len(8, 8 << 16), 1);
    }

    #[test]
    fn pooled_folds_match_fresh_ones() {
        let counts: Vec<f64> = (0..1usize << 10).map(|i| (i % 7) as f64 - 2.5).collect();
        let alphas = [
            AttrMask(0b11),
            AttrMask(0b1000_0001),
            AttrMask(0),
            AttrMask(0x3ff),
        ];
        // Twice, so the second call reuses the pooled buffers. The one
        // buffer holds each target's fold at its offset.
        for _ in 0..2 {
            let set = MarginalSet::new(&alphas[..], marginalize_all(&counts, 10, &alphas));
            for (mask, cells) in set.iter() {
                assert_eq!(cells, &marginalize(&counts, 10, mask)[..]);
                assert_eq!(cells.len(), mask.cell_count());
            }
        }
    }

    #[test]
    fn figure1_counts() {
        let t = figure1_table();
        assert_eq!(t.dims(), 3);
        assert_eq!(t.total(), 5.0);
        // x₂ (index for 001 in the paper's A-major order = our index 1) is 2:
        // two tuples (1 and 4) with A=0,B=0,C=1.
        assert_eq!(t.counts()[1], 2.0);
    }

    #[test]
    fn figure1_marginal_ab_matches_paper() {
        // The paper computes (C¹¹⁰x)₀₀₀ = x₀₀₀ + x₀₀₁ = 3 and
        // (C¹¹⁰x)₀₁₀ = x₀₁₀ + x₀₁₁ = 1. In A-major linearization attribute
        // C is the lowest bit, so the AB marginal aggregates over bit 0.
        let t = figure1_table();
        let ab = AttrMask(0b110);
        let m = t.marginal(ab);
        assert_eq!(m.values(), &[3.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn figure1_marginal_a() {
        let t = figure1_table();
        let a = AttrMask(0b100);
        let m = t.marginal(a);
        assert_eq!(m.values(), &[4.0, 1.0]);
    }

    #[test]
    fn empty_marginal_is_total() {
        let t = figure1_table();
        let m = t.marginal(AttrMask::EMPTY);
        assert_eq!(m.values(), &[5.0]);
    }

    #[test]
    fn full_marginal_is_identity() {
        let t = figure1_table();
        let m = t.marginal(AttrMask::full(3));
        assert_eq!(m.values(), t.counts());
    }

    #[test]
    fn batched_marginals_match_individual() {
        let t = figure1_table();
        let alphas = [AttrMask(0b100), AttrMask(0b110), AttrMask(0b011)];
        let batch = t.marginals(&alphas);
        for ((_, cells), &a) in batch.iter().zip(&alphas) {
            assert_eq!(cells, t.marginal(a).values());
        }
    }

    #[test]
    fn from_records_counts_correctly() {
        let schema = Schema::new(vec![
            Attribute::new("a", 2).unwrap(),
            Attribute::new("b", 3).unwrap(),
        ])
        .unwrap();
        let records = vec![vec![0, 0], vec![0, 0], vec![1, 2]];
        let t = ContingencyTable::from_records(&schema, &records).unwrap();
        assert_eq!(t.dims(), 3);
        assert_eq!(t.total(), 3.0);
        assert_eq!(t.counts()[0], 2.0);
        let idx = schema.encode(&[1, 2]).unwrap();
        assert_eq!(t.counts()[idx as usize], 1.0);
    }

    #[test]
    fn from_indices() {
        let t = ContingencyTable::from_indices(2, &[0, 3, 3]);
        assert_eq!(t.counts(), &[1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn incremental_edits_match_from_records() {
        let schema = Schema::new(vec![
            Attribute::new("a", 2).unwrap(),
            Attribute::new("b", 3).unwrap(),
        ])
        .unwrap();
        let records = vec![vec![0, 0], vec![0, 0], vec![1, 2], vec![0, 1]];
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        for r in &records {
            t.add_record(&schema, r).unwrap();
        }
        let expected = ContingencyTable::from_records(&schema, &records).unwrap();
        assert_eq!(t, expected);

        // Removing one record matches rebuilding without it.
        t.remove_record(&schema, &records[1]).unwrap();
        let expected = ContingencyTable::from_records(
            &schema,
            &[records[0].clone(), records[2].clone(), records[3].clone()],
        )
        .unwrap();
        assert_eq!(t, expected);
    }

    #[test]
    fn retraction_below_zero_is_rejected() {
        let schema = Schema::new(vec![Attribute::new("a", 2).unwrap()]).unwrap();
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        t.add_record(&schema, &[1]).unwrap();
        assert!(matches!(
            t.remove_record(&schema, &[0]),
            Err(CoreError::NegativeCount { cell: 0, .. })
        ));
        // A failed retraction leaves the table unchanged.
        assert_eq!(t.counts(), &[0.0, 1.0]);
        t.remove_record(&schema, &[1]).unwrap();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn add_count_bounds_and_negative_guard() {
        let mut t = ContingencyTable::zeros(2);
        assert!(matches!(t.add_count(4, 1.0), Err(CoreError::Shape { .. })));
        t.add_count(3, 2.5).unwrap();
        assert!(matches!(
            t.add_count(3, -3.0),
            Err(CoreError::NegativeCount { cell: 3, .. })
        ));
        t.add_count(3, -2.5).unwrap();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn add_count_refuses_non_finite_deltas_and_overflow() {
        let mut t = ContingencyTable::zeros(2);
        t.add_count(1, 3.0).unwrap();
        for delta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    t.add_count(1, delta),
                    Err(CoreError::NonFiniteDelta { cell: 1, .. })
                ),
                "delta {delta} must be refused"
            );
        }
        t.add_count(2, f64::MAX).unwrap();
        assert!(matches!(
            t.add_count(2, f64::MAX),
            Err(CoreError::NonFiniteDelta { cell: 2, .. })
        ));
        // Every refusal left the table unchanged.
        assert_eq!(t.counts(), &[0.0, 3.0, f64::MAX, 0.0]);
    }

    #[test]
    fn fourier_zeroth_coefficient_is_scaled_total() {
        let t = figure1_table();
        let c = t.fourier_coefficient(AttrMask::EMPTY);
        assert!((c - 5.0 / 8.0_f64.sqrt()).abs() < 1e-12);
    }

    proptest::proptest! {
        /// Marginal-sum invariant: every marginal's cells sum to the total.
        #[test]
        fn marginal_sums_preserve_total(
            counts in proptest::collection::vec(0.0f64..50.0, 16),
            mask_bits in 0u64..16,
        ) {
            let t = ContingencyTable::from_counts(counts);
            let m = t.marginal(AttrMask(mask_bits));
            let total = t.total();
            let msum: f64 = m.values().iter().sum();
            proptest::prop_assert!((total - msum).abs() < 1e-9 * total.max(1.0));
        }

        /// Aggregation consistency: the marginal over α of the marginal
        /// over β ⊇ α equals the marginal over α directly.
        #[test]
        fn marginal_of_marginal(
            counts in proptest::collection::vec(0.0f64..10.0, 32),
            sup in 0u64..32,
        ) {
            let t = ContingencyTable::from_counts(counts);
            let beta = AttrMask(sup);
            for alpha in beta.subsets() {
                let direct = t.marginal(alpha);
                let via = t.marginal(beta).aggregate_to(alpha).unwrap();
                for (a, b) in direct.values().iter().zip(via.values()) {
                    proptest::prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
