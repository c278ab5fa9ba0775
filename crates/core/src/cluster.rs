//! Greedy cluster-of-marginals strategy (reimplementation of Ding et al.,
//! SIGMOD 2011 \[6\], as used for the `C`/`C+` lines in the paper's
//! experiments).
//!
//! The strategy materializes a set of "centroid" marginals; each workload
//! marginal is answered by aggregating the cells of its cluster's centroid
//! (the union of the cluster members' attribute sets), exactly as in the
//! paper's Figure 1(c)–(d) where the centroid `{A,B}` answers both `A` and
//! `{A,B}`.
//!
//! ## Cost model
//!
//! With uniform budgets over `g` materialized centroids, each centroid cell
//! carries Laplace noise of variance `2(g/ε)²`, and a recovered cell of a
//! workload marginal `α` answered from centroid `u ⊇ α` sums
//! `2^{‖u‖−‖α‖}` of them. Totalling over `α`'s `2^{‖α‖}` cells gives
//! `2^{‖u‖} · 2(g/ε)²`, so up to the constant `2/ε²` the objective is
//!
//! ```text
//! J(clustering) = g² · Σ_{α ∈ W} 2^{‖u(α)‖}.
//! ```
//!
//! The greedy agglomerative search starts from singleton clusters and
//! repeatedly applies the merge with the largest decrease in `J`, stopping
//! when no merge improves it. This matches the paper's description
//! ("employs a clustering algorithm over the queries to compute S"; its
//! cost grows quickly with dimensionality — see Figure 6 — which our
//! runtime experiment E4 reproduces).
//!
//! ## Two implementations, one clustering
//!
//! [`greedy_cluster_reference`] is the paper-faithful search: every round
//! rescans all `O(g²)` cluster pairs (and, under
//! [`CentroidSearch::AllDominatingCuboids`], additionally walks every
//! dominating cuboid of each pair's union — the exponential candidate
//! space of \[6\] behind the `C` line of Figure 6).
//!
//! The optimized search behind [`greedy_cluster`], the one every cluster
//! plan runs, produces the **identical** clustering
//! (same centroids, assignment and objective — asserted by property tests
//! against the retained reference) through three stacked optimizations:
//!
//! 1. **Incremental delta maintenance.** Within a round, every candidate
//!    merge shares the global factors `g` and `Σ 2^{‖u‖}`, so the best
//!    merge is the one minimizing the pairwise-local delta
//!    `Δ(i,j) = ℓ_{ij}·2^{‖u_i ∨ u_j‖} − ℓ_i·2^{‖u_i‖} − ℓ_j·2^{‖u_j‖}`.
//!    A per-cluster best-partner cache is maintained across merges: after
//!    a merge only rows touching the merged pair are recomputed, turning
//!    the `O(ℓ³)` rescan into `O(ℓ²)` amortized delta evaluations.
//! 2. **Dominated-cuboid pruning.** Under the `g²·Σ2^{‖u‖}` cost model a
//!    strict superset of the union only adds cells for the same members,
//!    so the union is always the optimal dominating cuboid (proven by the
//!    `exhaustive_walk_matches_union_search_cost_model` test), and the
//!    `AllDominatingCuboids` walk collapses to the union evaluation per
//!    pair.
//! 3. **Parallel candidate evaluation.** The initial best-partner table
//!    and the per-round row recomputes fan out with rayon, combined by a
//!    deterministic min-reduction ordered by `(Δ, i, j)` — so the result
//!    is invariant to thread count and chunking (all deltas are exact
//!    small integers in `f64`, so the total order has no rounding cases).
//!
//! All quantities compared by either search are products and sums of
//! member counts and cell counts — integers representable exactly in
//! `f64` for every domain this crate supports — so "identical" means
//! bit-identical, not merely equal up to rounding.

use crate::mask::AttrMask;
use crate::table::min_len;
use crate::workload::Workload;
use rayon::prelude::*;

/// A clustering of the workload into strategy marginals.
///
/// Construct via [`Clustering::new`]; the constructor memoizes the
/// per-centroid cell counts `2^{‖u‖}` so [`Clustering::objective`] and the
/// release pipeline never recompute them per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// The centroid (union) mask of each cluster.
    centroids: Vec<AttrMask>,
    /// For each workload marginal (workload order), the index of its
    /// cluster in `centroids`.
    assignment: Vec<usize>,
    /// Memoized `centroids[c].cell_count()`, index-aligned with
    /// `centroids`.
    cells: Vec<usize>,
}

impl Clustering {
    /// Builds a clustering from centroid masks and a per-marginal
    /// assignment, memoizing each centroid's cell count.
    ///
    /// # Panics
    /// If an assignment entry indexes past `centroids`.
    pub fn new(centroids: Vec<AttrMask>, assignment: Vec<usize>) -> Clustering {
        assert!(
            assignment.iter().all(|&c| c < centroids.len()),
            "assignment indexes past the centroid list"
        );
        let cells = centroids.iter().map(|c| c.cell_count()).collect();
        Clustering {
            centroids,
            assignment,
            cells,
        }
    }

    /// The centroid (union) mask of each cluster.
    pub fn centroids(&self) -> &[AttrMask] {
        &self.centroids
    }

    /// For each workload marginal (workload order), the index of its
    /// cluster in [`Clustering::centroids`].
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Memoized per-centroid cell counts `2^{‖u_c‖}`, index-aligned with
    /// [`Clustering::centroids`].
    pub fn cell_counts(&self) -> &[usize] {
        &self.cells
    }

    /// The number of materialized strategy marginals `g`.
    pub fn num_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// The cost-model objective `g² Σ_α 2^{‖u(α)‖}` (lower is better).
    pub fn objective(&self) -> f64 {
        let g = self.centroids.len() as f64;
        let s: f64 = self.assignment.iter().map(|&c| self.cells[c] as f64).sum();
        g * g * s
    }

    /// Number of workload marginals assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &c in &self.assignment {
            sizes[c] += 1;
        }
        sizes
    }
}

/// How the greedy search picks the centroid of a merged cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CentroidSearch {
    /// The merged centroid is the union of the two clusters' masks —
    /// an `O(ℓ³)` search in the reference implementation, `O(ℓ²)`
    /// amortized in the optimized one.
    #[default]
    Union,
    /// For every merge, additionally evaluate **every dominating cuboid**
    /// `u ⊇ union` as the candidate centroid, mirroring the candidate space
    /// of Ding et al. \[6\] (whose cost the paper quotes as
    /// `O(d^k k min(2^d d^k, 3^d))`). Exponentially slower when actually
    /// walked — this is the variant behind the `C` line of the Figure-6
    /// runtime experiment. Only [`greedy_cluster_reference`] walks it;
    /// the optimized search prunes it to the union (provably
    /// cost-optimal).
    AllDominatingCuboids,
}

/// What is left of the old cluster-search configuration: a fieldless
/// placeholder in [`crate::api::WorkloadSpec::Marginals`]. Every cluster
/// plan runs the one optimized search behind [`greedy_cluster`]; the type
/// remains because the `perfbench` service benchmark still names it when
/// it builds a marginal spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterConfig;

/// The retained **reference** implementation: per-round full `O(g²)` pair
/// rescans, and the real exponential dominating-cuboid walk under
/// [`CentroidSearch::AllDominatingCuboids`]. Kept verbatim (plus memoized
/// per-centroid cell counts) as the ground truth the optimized search is
/// property-tested against, and as the paper-faithful walk the Figure-6
/// `C(ref)` runtime line times. No plan runs it.
pub fn greedy_cluster_reference(workload: &Workload, search: CentroidSearch) -> Clustering {
    let masks = workload.marginals();
    let d = workload.domain_bits();
    let full = crate::mask::AttrMask::full(d);
    let l = masks.len();
    // members[c] = workload indices in cluster c; centroid[c] = union mask;
    // cells[c] = memoized centroid[c].cell_count().
    let mut members: Vec<Vec<usize>> = (0..l).map(|i| vec![i]).collect();
    let mut centroids: Vec<AttrMask> = masks.to_vec();
    let mut cells: Vec<usize> = centroids.iter().map(|c| c.cell_count()).collect();

    // Σ 2^{‖u(α)‖} for the current clustering.
    let cell_sum = |members: &[Vec<usize>], cells: &[usize]| -> f64 {
        members
            .iter()
            .zip(cells)
            .map(|(m, &c)| (m.len() * c) as f64)
            .sum()
    };

    loop {
        let g = centroids.len();
        if g <= 1 {
            break;
        }
        let current_sum = cell_sum(&members, &cells);
        let current_cost = (g * g) as f64 * current_sum;

        // Find the best merge (and, in the exhaustive mode, the best
        // dominating cuboid to serve as the merged centroid).
        let mut best: Option<(usize, usize, AttrMask, f64)> = None;
        for i in 0..g {
            for j in (i + 1)..g {
                let u = centroids[i].union(centroids[j]);
                let merged_members = members[i].len() + members[j].len();
                let base_sum = current_sum
                    - (members[i].len() * cells[i]) as f64
                    - (members[j].len() * cells[j]) as f64;
                let evaluate =
                    |centroid: AttrMask, best: &mut Option<(usize, usize, AttrMask, f64)>| {
                        let new_sum = base_sum + (merged_members * centroid.cell_count()) as f64;
                        let new_cost = ((g - 1) * (g - 1)) as f64 * new_sum;
                        if new_cost < current_cost && best.is_none_or(|(_, _, _, b)| new_cost < b) {
                            *best = Some((i, j, centroid, new_cost));
                        }
                    };
                match search {
                    CentroidSearch::Union => evaluate(u, &mut best),
                    CentroidSearch::AllDominatingCuboids => {
                        // Enumerate every u ⊇ union: union ∨ (subset of the
                        // complement). Any strict superset only raises the
                        // cost (more cells, same members) under this cost
                        // model, but [6]'s search space includes them all —
                        // walking it is exactly what makes C slow.
                        let complement = AttrMask(full.0 & !u.0);
                        for extra in complement.subsets() {
                            evaluate(u.union(extra), &mut best);
                        }
                    }
                }
            }
        }
        let Some((i, j, centroid, _)) = best else {
            break;
        };
        let moved = members.swap_remove(j);
        let _ = centroids.swap_remove(j);
        let _ = cells.swap_remove(j);
        members[i].extend(moved);
        centroids[i] = centroid;
        cells[i] = centroid.cell_count();
    }

    let mut assignment = vec![0usize; l];
    for (c, m) in members.iter().enumerate() {
        for &i in m {
            assignment[i] = c;
        }
    }
    Clustering::new(centroids, assignment)
}

/// One candidate merge: `(Δ, i, j)` with `i < j` (current indices).
type Candidate = (f64, usize, usize);

/// The deterministic total order of the candidate min-reduction:
/// lexicographic on `(Δ, i, j)`. Every `Δ` is an exact integer in `f64`
/// (products and sums of member counts and cell counts), so `partial_cmp`
/// never sees NaN and the comparison is exact — this makes the reduction
/// associative and commutative, hence invariant to chunking and thread
/// count, and makes its winner identical to the reference scan's
/// "first strictly-smaller cost wins" rule.
fn better_candidate(a: Option<Candidate>, b: Option<Candidate>) -> Option<Candidate> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(x), Some(y)) => {
            let ord =
                x.0.partial_cmp(&y.0)
                    .expect("merge deltas are finite")
                    .then(x.1.cmp(&y.1))
                    .then(x.2.cmp(&y.2));
            if ord.is_le() {
                Some(x)
            } else {
                Some(y)
            }
        }
    }
}

/// The best merge partner of row `i` over `j ∈ (i+1..g)`: the minimal
/// `(Δ, j)` with the smallest `j` among ties (matching the reference's
/// ascending scan with strict improvement).
fn compute_row(
    i: usize,
    centroids: &[AttrMask],
    sizes: &[usize],
    weights: &[f64],
) -> Option<(f64, usize)> {
    let g = centroids.len();
    let (ci, si, ai) = (centroids[i], sizes[i], weights[i]);
    let mut best: Option<(f64, usize)> = None;
    for j in (i + 1)..g {
        let u = ci.union(centroids[j]);
        let delta = ((si + sizes[j]) * u.cell_count()) as f64 - ai - weights[j];
        if best.is_none_or(|(b, _)| delta < b) {
            best = Some((delta, j));
        }
    }
    best
}

/// Runs the greedy agglomerative clustering, the search every cluster
/// plan runs: incremental best-partner maintenance, dominated-cuboid
/// pruning and a deterministic rayon-parallel min-reduction. Replicates
/// the reference implementation's index dynamics (`swap_remove` of the
/// absorbed cluster) and tie-breaking exactly, so the returned
/// [`Clustering`] is bit-identical to [`greedy_cluster_reference`] under
/// either [`CentroidSearch`].
pub fn greedy_cluster(workload: &Workload) -> Clustering {
    let masks = workload.marginals();
    let l = masks.len();
    let mut members: Vec<Vec<usize>> = (0..l).map(|i| vec![i]).collect();
    let mut centroids: Vec<AttrMask> = masks.to_vec();
    let mut cells: Vec<usize> = centroids.iter().map(|c| c.cell_count()).collect();
    // sizes[c] = |members[c]|; weights[c] = sizes[c] · cells[c]; both exact
    // integers in f64 for every supported domain, so all comparisons below
    // are exact and identical to the reference's.
    let mut sizes: Vec<usize> = vec![1; l];
    let mut weights: Vec<f64> = cells.iter().map(|&c| c as f64).collect();
    let mut sum: f64 = weights.iter().sum();

    // row_best[i] = best (Δ, j) over j ∈ (i+1..g) — the incremental
    // candidate cache. Only rows touching a merged pair are recomputed.
    // Row i evaluates its g − 1 − i pairs. One pair evaluation (a union, a
    // cell count, the Δ arithmetic and a compare) costs 5.6–6.1 ns, pinned
    // to one core of a 2-core VM for ℓ = 50–400, close to a cell of an
    // occupied-cell sum; it counts as one cell touched of the grain floor
    // (`table::min_len`), so a round that recomputes a few rows stays on
    // the calling thread and only large scans fan out.
    let recompute_rows = |rows: &[usize],
                          centroids: &[AttrMask],
                          sizes: &[usize],
                          weights: &[f64]|
     -> Vec<Option<(f64, usize)>> {
        let pairs = rows.iter().map(|&i| centroids.len() - 1 - i).sum();
        rows.par_iter()
            .with_min_len(min_len(rows.len(), pairs))
            .map(|&i| compute_row(i, centroids, sizes, weights))
            .collect()
    };
    let all_rows: Vec<usize> = (0..l).collect();
    let mut row_best = recompute_rows(&all_rows, &centroids, &sizes, &weights);

    loop {
        let g = centroids.len();
        if g <= 1 {
            break;
        }

        // Paranoid invariant check (debug builds only — it restores the
        // reference's O(g²) per-round cost): every cached row must equal a
        // fresh scan.
        #[cfg(debug_assertions)]
        for (i, cached) in row_best.iter().enumerate() {
            let fresh = compute_row(i, &centroids, &sizes, &weights);
            assert_eq!(
                *cached, fresh,
                "stale row {i} of {g}: cached {cached:?} vs fresh {fresh:?}"
            );
        }

        // Per-round candidate selection: a min-reduction over the cached
        // rows, deterministic by the (Δ, i, j) total order. Each row is one
        // cached pair compared (2.5–3.6 ns, measured as above), counted as
        // one cell touched.
        let lift = |(i, rb): (usize, &Option<(f64, usize)>)| -> Option<Candidate> {
            rb.map(|(d, j)| (d, i, j))
        };
        let best = row_best
            .par_iter()
            .with_min_len(min_len(g, g))
            .enumerate()
            .map(lift)
            .reduce(|| None, better_candidate);
        let Some((delta, bi, bj)) = best else {
            break;
        };

        // Global acceptance, identical to the reference: the merged cost
        // (g−1)²·(Σ + Δ) must strictly beat the current cost g²·Σ. The
        // cost is monotone in Δ, so if the minimal Δ fails, every merge
        // fails and the search is done.
        let new_cost = ((g - 1) * (g - 1)) as f64 * (sum + delta);
        let current_cost = (g * g) as f64 * sum;
        if new_cost >= current_cost {
            break;
        }

        // Apply the merge with the reference's exact index dynamics:
        // cluster bi absorbs bj, the last cluster moves into slot bj.
        let last = g - 1;
        let union = centroids[bi].union(centroids[bj]);
        let moved = members.swap_remove(bj);
        members[bi].extend(moved);
        centroids.swap_remove(bj);
        cells.swap_remove(bj);
        sizes.swap_remove(bj);
        weights.swap_remove(bj);
        row_best.swap_remove(bj);
        centroids[bi] = union;
        cells[bi] = union.cell_count();
        sizes[bi] = members[bi].len();
        weights[bi] = (sizes[bi] * cells[bi]) as f64;
        sum += delta;

        // Repair the candidate cache. A cached row stays valid unless its
        // partner was the merged cluster (stale Δ), the removed cluster,
        // or the moved cluster now sitting below it; those rows — plus
        // row bi itself and the moved row at bj — are recomputed in full.
        let mut full_rows: Vec<usize> = Vec::new();
        for (k, entry) in row_best.iter_mut().enumerate() {
            if k == bi || k == bj {
                full_rows.push(k);
                continue;
            }
            match *entry {
                // The moved row (old last row) and any row whose range was
                // exhausted: recompute. (Only the old last row can be None
                // while k < g − 2, via the swap into slot bj.)
                None => full_rows.push(k),
                Some((d, p)) => {
                    if p == bi || p == bj {
                        // Partner's centroid changed / partner removed.
                        full_rows.push(k);
                    } else if p == last {
                        if bj > k {
                            // The partner merely moved: remap, Δ unchanged.
                            *entry = Some((d, bj));
                        } else {
                            // The pair migrated to row bj (now below k).
                            full_rows.push(k);
                        }
                    }
                }
            }
        }
        let fresh = recompute_rows(&full_rows, &centroids, &sizes, &weights);
        for (&k, row) in full_rows.iter().zip(fresh) {
            row_best[k] = row;
        }
        // Surviving rows keep their cache but must re-compare two pairs:
        // (k, bi) — the merged cluster's delta changed — and, when a swap
        // moved the old last cluster into slot bj, (k, bj) — its delta is
        // unchanged but its index dropped, which can flip an equal-delta
        // tie-break in its favour.
        let full: std::collections::HashSet<usize> = full_rows.into_iter().collect();
        let mut reconsider = |k: usize, j: usize| {
            let u = centroids[k].union(centroids[j]);
            let delta = ((sizes[k] + sizes[j]) * u.cell_count()) as f64 - weights[k] - weights[j];
            let replace = match row_best[k] {
                None => true,
                Some((d, p)) => delta < d || (delta == d && j < p),
            };
            if replace {
                row_best[k] = Some((delta, j));
            }
        };
        for k in 0..bi {
            if !full.contains(&k) {
                reconsider(k, bi);
            }
        }
        if bj != last {
            for k in 0..bj {
                if !full.contains(&k) && k != bi {
                    reconsider(k, bj);
                }
            }
        }
    }

    let mut assignment = vec![0usize; l];
    for (c, m) in members.iter().enumerate() {
        for &i in m {
            assignment[i] = c;
        }
    }
    Clustering::new(centroids, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn every_marginal_is_dominated_by_its_centroid() {
        let schema = Schema::binary(6).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.assignment().len(), w.len());
        for (i, &alpha) in w.marginals().iter().enumerate() {
            let centroid = c.centroids()[c.assignment()[i]];
            assert!(alpha.dominated_by(centroid), "{alpha} vs {centroid}");
        }
    }

    #[test]
    fn figure1_workload_merges_a_into_ab() {
        // Workload {A, AB}: materializing only AB costs 1²·(4+4) = 8 versus
        // 2²·(2+4) = 24 for singletons, so the greedy must merge — the
        // paper's Figure 1(c)/(d) strategy exactly.
        let w = Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.centroids()[0], AttrMask(0b110));
        assert_eq!(c.assignment(), &[0, 0]);
        assert_eq!(c.objective(), 8.0);
    }

    #[test]
    fn disjoint_large_marginals_do_not_merge() {
        // Two disjoint 3-way marginals over 6 bits: merging gives one 6-way
        // centroid costing 1²·(64+64) = 128 > 2²·(8+8) = 64 → keep separate.
        let w = Workload::new(6, vec![AttrMask(0b000111), AttrMask(0b111000)]).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn objective_decreases_or_stays_relative_to_singletons() {
        let schema = Schema::binary(8).unwrap();
        for k in 1..=2 {
            let w = Workload::all_k_way(&schema, k).unwrap();
            let singleton = Clustering::new(w.marginals().to_vec(), (0..w.len()).collect());
            let greedy = greedy_cluster(&w);
            assert!(
                greedy.objective() <= singleton.objective(),
                "k={k}: {} vs {}",
                greedy.objective(),
                singleton.objective()
            );
        }
    }

    #[test]
    fn one_way_marginals_over_few_attrs_merge_to_full_cube() {
        // 1-way over 3 bits: singletons cost 9·(2+2+2) = 54; the full cube
        // costs 1·8 = 8 → expect a single cluster.
        let schema = Schema::binary(3).unwrap();
        let w = Workload::all_k_way(&schema, 1).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.centroids()[0], AttrMask::full(3));
    }

    #[test]
    fn exhaustive_walk_matches_union_search_cost_model() {
        // Under the g²Σ2^‖u‖ cost model the union is always the optimal
        // dominating cuboid, so the faithful exponential walk reaches the
        // same clustering as the union search — the basis of the optimized
        // search's dominated-cuboid pruning.
        let schema = Schema::binary(8).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        let fast = greedy_cluster_reference(&w, CentroidSearch::Union);
        let slow = greedy_cluster_reference(&w, CentroidSearch::AllDominatingCuboids);
        assert_eq!(fast.objective(), slow.objective());
        assert_eq!(fast.num_clusters(), slow.num_clusters());
    }

    #[test]
    fn cluster_sizes_sum_to_workload_len() {
        let schema = Schema::binary(7).unwrap();
        let w = Workload::k_way_plus_attr(&schema, 1, 0).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.cluster_sizes().iter().sum::<usize>(), w.len());
    }

    #[test]
    fn memoized_cell_counts_match_centroids() {
        let schema = Schema::binary(9).unwrap();
        let w = Workload::k_way_plus_half(&schema, 1).unwrap();
        let c = greedy_cluster(&w);
        assert_eq!(c.cell_counts().len(), c.centroids().len());
        for (u, &cells) in c.centroids().iter().zip(c.cell_counts()) {
            assert_eq!(cells, u.cell_count());
        }
    }

    /// Asserts two clusterings are bit-identical: same centroid vector
    /// (order included), same assignment, same objective.
    fn assert_identical(a: &Clustering, b: &Clustering) {
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.objective().to_bits(), b.objective().to_bits());
    }

    #[test]
    fn optimized_matches_reference_on_paper_workloads() {
        let schema = Schema::binary(10).unwrap();
        for w in [
            Workload::all_k_way(&schema, 1).unwrap(),
            Workload::all_k_way(&schema, 2).unwrap(),
            Workload::k_way_plus_half(&schema, 1).unwrap(),
            Workload::k_way_plus_attr(&schema, 2, 0).unwrap(),
        ] {
            let reference = greedy_cluster_reference(&w, CentroidSearch::Union);
            assert_identical(&reference, &greedy_cluster(&w));
        }
    }

    #[test]
    fn tie_breaking_matches_reference_under_many_equal_deltas() {
        // Six disjoint 1-way marginals over 12 bits: every pair has the
        // same merge delta, so the whole search is one long tie-break —
        // any deviation from the reference's (Δ, i, j) order shows up as a
        // different centroid list.
        let w = Workload::new(12, (0..6).map(AttrMask::single).collect()).unwrap();
        let reference = greedy_cluster_reference(&w, CentroidSearch::Union);
        assert_identical(&reference, &greedy_cluster(&w));
    }

    #[test]
    fn parallel_reduction_is_chunking_invariant() {
        // better_candidate is a total order, so folding any partition of
        // the candidate list in any block order yields the same winner —
        // the property that makes the rayon reduce thread-count-invariant.
        let candidates: Vec<Option<Candidate>> = (0..40)
            .map(|i| Some(((i % 7) as f64, i / 3, i)))
            .chain(std::iter::once(None))
            .collect();
        let whole = candidates.iter().copied().fold(None, better_candidate);
        for chunk in [1usize, 2, 3, 7, 19, 41] {
            let blocked = candidates
                .chunks(chunk)
                .map(|c| c.iter().copied().fold(None, better_candidate))
                .fold(None, better_candidate);
            assert_eq!(blocked, whole, "chunk size {chunk}");
        }
        // Reversed combination order (commutativity).
        let reversed = candidates
            .iter()
            .rev()
            .copied()
            .fold(None, better_candidate);
        assert_eq!(reversed, whole);
    }

    /// Random workload generator shared by the property tests.
    fn random_workload(rng: &mut StdRng) -> Workload {
        let d = rng.gen_range(3usize..10);
        let len = rng.gen_range(2usize..18);
        let masks: Vec<AttrMask> = (0..len)
            .map(|_| AttrMask(rng.gen_range(1u64..(1 << d))))
            .collect();
        Workload::new(d, masks).expect("masks are in-domain and non-empty")
    }

    proptest::proptest! {
        #[test]
        fn optimized_search_is_bit_identical_to_reference(seed in 0u64..(1 << 32)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = random_workload(&mut rng);
            let reference = greedy_cluster_reference(&w, CentroidSearch::Union);
            assert_identical(&reference, &greedy_cluster(&w));
        }

        #[test]
        fn pruned_walk_matches_faithful_walk(seed in 0u64..(1 << 32)) {
            // Small domains only: the faithful walk is exponential in d.
            let mut rng = StdRng::seed_from_u64(seed);
            let d = rng.gen_range(3usize..7);
            let len = rng.gen_range(2usize..8);
            let masks: Vec<AttrMask> = (0..len)
                .map(|_| AttrMask(rng.gen_range(1u64..(1 << d))))
                .collect();
            let w = Workload::new(d, masks).unwrap();
            let faithful = greedy_cluster_reference(&w, CentroidSearch::AllDominatingCuboids);
            assert_identical(&faithful, &greedy_cluster(&w));
        }
    }
}
