//! Bit-identity oracle for exact marginals of count data: the sum over a
//! table's occupied cells must give the bytes of the dense `marginalize`
//! fold for every mask weight, and every vector whose partial sums could
//! round (`-0.0`, fractions, NaN, a total above 2^53) must take the fold.
//! Marginal binds observe through this sum, so it also checks that `Q` and
//! `F` observations equal the fold-built ones.
//!
//! The lattice oracle: exact marginals are summed once per shared parent
//! and folded out of it (`table::parents`), so `ContingencyTable::marginals`
//! and the `Q`/`F` bind observations must equal a per-target
//! `sum_occupied` and the dense fold bit for bit, on mask sets with every
//! weight, duplicates, nested and full masks, and sets where no target can
//! share; the parents must dominate their targets and stay within the cap;
//! and the byte-table index must equal `compress_cell`.

use datacube_dp::prelude::*;
use dp_core::fourier::{CoefficientSpace, ObservationOperator};
use dp_core::mask::CellCompressor;
use dp_core::table::{marginalize, occupied_cells, parents, sum_occupied, Parents, PARENT_SHARE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TWO_53: f64 = 9_007_199_254_740_992.0;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every mask over `d ≤ 8` bits; above that, the empty and full masks plus
/// eight seeded masks of each weight.
fn masks_of_every_weight(d: usize, seed: u64) -> Vec<AttrMask> {
    if d <= 8 {
        return (0..1u64 << d).map(AttrMask).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![AttrMask::EMPTY, AttrMask::full(d)];
    for weight in 1..d {
        for _ in 0..8 {
            let mut mask = 0u64;
            while (mask.count_ones() as usize) < weight {
                mask |= 1 << rng.gen_range(0..d);
            }
            out.push(AttrMask(mask));
        }
    }
    out
}

/// A seeded integer table: about a quarter of the cells occupied, with
/// counts 1..=40.
fn integer_counts(d: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << d)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(1..41u32) as f64,
            _ => 0.0,
        })
        .collect()
}

/// `ContingencyTable::marginals` and `marginal` against the fold, bit for
/// bit, over `masks`.
fn assert_matches_fold(counts: &[f64], masks: &[AttrMask]) {
    let d = counts.len().trailing_zeros() as usize;
    let table = ContingencyTable::from_counts(counts.to_vec());
    for ((_, cells), &alpha) in table.marginals(masks).iter().zip(masks) {
        let fold = bits(&marginalize(counts, d, alpha));
        assert_eq!(bits(cells), fold, "marginals, mask {:#b}", alpha.0);
        assert_eq!(
            bits(table.marginal(alpha).values()),
            fold,
            "marginal, mask {:#b}",
            alpha.0
        );
    }
}

#[test]
fn seeded_integer_tables_sum_to_the_fold_bits() {
    for (d, seed) in [(3, 11), (8, 12), (12, 13)] {
        let counts = integer_counts(d, seed);
        let cells = occupied_cells(&counts).expect("integer counts take the sum");
        assert!(!cells.is_empty() && cells.len() < counts.len());
        assert_matches_fold(&counts, &masks_of_every_weight(d, seed));
    }
}

#[test]
fn empty_and_single_cell_tables_sum_to_the_fold_bits() {
    let empty = vec![0.0; 1 << 8];
    assert_eq!(occupied_cells(&empty), Some(vec![]));
    assert_matches_fold(&empty, &masks_of_every_weight(8, 0));

    let mut single = vec![0.0; 1 << 8];
    single[0b1011_0110] = 7.0;
    assert_eq!(occupied_cells(&single), Some(vec![(0b1011_0110, 7.0)]));
    assert_matches_fold(&single, &masks_of_every_weight(8, 0));
}

#[test]
fn a_total_of_exactly_2_53_takes_the_sum() {
    let counts = vec![TWO_53 - 3.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
    assert!(occupied_cells(&counts).is_some());
    assert_matches_fold(&counts, &masks_of_every_weight(3, 0));
}

#[test]
fn a_total_above_2_53_takes_the_fold() {
    // Total 2^53 + 2. The fold adds 1 + 2^53 first and rounds it back to
    // 2^53; summing in cell order adds 1 + 1 first and stays exact. So the
    // two orders disagree, and only the fold's bits may come out.
    let counts = vec![1.0, 1.0, TWO_53, 0.0, 0.0, 0.0, 0.0, 0.0];
    assert_eq!(occupied_cells(&counts), None);
    let cell_order: Vec<(u64, f64)> = vec![(0, 1.0), (1, 1.0), (2, TWO_53)];
    assert_ne!(
        bits(&sum_occupied(&cell_order, AttrMask::EMPTY)),
        bits(&marginalize(&counts, 3, AttrMask::EMPTY)),
        "this table must be one where summation order shows"
    );
    assert_matches_fold(&counts, &masks_of_every_weight(3, 0));

    // One cell above 2^53 on its own.
    let mut huge = vec![0.0; 8];
    huge[5] = 2.0 * TWO_53;
    assert_eq!(occupied_cells(&huge), None);
    assert_matches_fold(&huge, &masks_of_every_weight(3, 0));
}

#[test]
fn negative_zero_fractional_and_nan_cells_take_the_fold() {
    // All -0.0: the fold keeps the sign (-0.0 + -0.0 = -0.0), a sum from
    // +0.0 would not.
    let negative_zero = vec![-0.0; 1 << 8];
    assert_eq!(occupied_cells(&negative_zero), None);
    assert!(marginalize(&negative_zero, 8, AttrMask(0b11))
        .iter()
        .all(|v| v.is_sign_negative()));
    assert_matches_fold(&negative_zero, &masks_of_every_weight(8, 1));

    let mut rng = StdRng::seed_from_u64(5);
    let fractional: Vec<f64> = (0..1 << 8).map(|_| rng.gen_range(0.0..9.0)).collect();
    assert_eq!(occupied_cells(&fractional), None);
    assert_matches_fold(&fractional, &masks_of_every_weight(8, 2));

    let mut one_fraction = integer_counts(8, 3);
    one_fraction[200] = 0.5;
    assert_eq!(occupied_cells(&one_fraction), None);
    assert_matches_fold(&one_fraction, &masks_of_every_weight(8, 3));

    let mut nan = integer_counts(8, 4);
    nan[17] = f64::NAN;
    assert_eq!(occupied_cells(&nan), None);
    assert_matches_fold(&nan, &masks_of_every_weight(8, 4));

    let mut negative = integer_counts(8, 6);
    negative[9] = -1.0;
    assert_eq!(occupied_cells(&negative), None);
    assert_matches_fold(&negative, &masks_of_every_weight(8, 6));
}

/// `Q` and `F` binds observe through the occupied-cell sum; their
/// observations equal the ones built from the fold: the workload
/// marginals concatenated (`Q`), and the Fourier coefficients filled from
/// each folded target marginal (`F`).
#[test]
fn bound_observations_equal_the_fold_built_ones() {
    let d = 12;
    let schema = Schema::binary(d).unwrap();
    let workload = Workload::all_k_way(&schema, 2).unwrap();
    for counts in [integer_counts(d, 21), vec![0.0; 1 << d]] {
        let table = ContingencyTable::from_counts(counts.clone());
        let bind = |strategy| {
            let plan = PlanBuilder::marginals(workload.clone(), strategy)
                .compile()
                .unwrap();
            Session::bind(Arc::new(plan), &table).unwrap()
        };

        let folded: Vec<f64> = workload
            .marginals()
            .iter()
            .flat_map(|&alpha| marginalize(&counts, d, alpha))
            .collect();
        assert_eq!(
            bits(bind(StrategyKind::Workload).observations()),
            bits(&folded)
        );

        let space = CoefficientSpace::from_marginals(d, workload.marginals());
        let op = ObservationOperator::new(&space, workload.marginals()).unwrap();
        let mut coeffs = vec![0.0; space.len()];
        let mut scratch = Vec::new();
        for (i, &alpha) in workload.marginals().iter().enumerate() {
            for (p, c) in op.coefficients(i, &marginalize(&counts, d, alpha), &mut scratch) {
                coeffs[p] = c;
            }
        }
        assert_eq!(
            bits(bind(StrategyKind::Fourier).observations()),
            bits(&coeffs)
        );
    }
}

/// The lattice oracle on one table and mask set: every exact marginal
/// equals the per-target occupied-cell sum and the dense fold, bit for
/// bit, and the parents `count_marginals` groups the masks into hold.
fn assert_lattice(counts: &[f64], masks: &[AttrMask]) {
    let d = counts.len().trailing_zeros() as usize;
    let cells = occupied_cells(counts).expect("count data takes the lattice");
    let table = ContingencyTable::from_counts(counts.to_vec());
    let set = table.marginals(masks);
    assert_eq!(set.masks(), masks);
    for ((_, got), &alpha) in set.iter().zip(masks) {
        let got = bits(got);
        assert_eq!(
            got,
            bits(&sum_occupied(&cells, alpha)),
            "per-target sum, mask {:#b}",
            alpha.0
        );
        assert_eq!(
            got,
            bits(&marginalize(counts, d, alpha)),
            "dense fold, mask {:#b}",
            alpha.0
        );
    }
    assert_parents(&parents(masks, cells.len()), masks, cells.len());
}

/// Each target lies in its parent, each parent is the union of its
/// targets, and a parent wider than `occupied / PARENT_SHARE` cells holds
/// one target.
fn assert_parents(parents: &Parents, targets: &[AttrMask], occupied: usize) {
    assert_eq!(parents.of_target.len(), targets.len());
    let mut unions = vec![AttrMask::EMPTY; parents.masks.len()];
    let mut members = vec![0usize; parents.masks.len()];
    for (&target, &p) in targets.iter().zip(&parents.of_target) {
        assert!(
            target.dominated_by(parents.masks[p]),
            "target {:#b} outside its parent {:#b}",
            target.0,
            parents.masks[p].0
        );
        unions[p] = unions[p].union(target);
        members[p] += 1;
    }
    assert_eq!(unions, parents.masks, "a parent wider than its targets");
    for (parent, &n) in parents.masks.iter().zip(&members) {
        assert!(
            n == 1 || parent.cell_count() <= occupied / PARENT_SHARE,
            "parent {:#b} of {n} targets overfills {occupied} / {PARENT_SHARE} cells",
            parent.0
        );
    }
}

/// Seeded masks over `d` bits, ten of every weight 0..=d, then the full
/// mask, duplicates of every seventh mask, and the submasks of one
/// weight-(d/2) mask (nested masks, which fit in one parent).
fn lattice_masks(d: usize, seed: u64) -> Vec<AttrMask> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for weight in 0..=d {
        for _ in 0..10 {
            let mut mask = 0u64;
            while (mask.count_ones() as usize) < weight {
                mask |= 1 << rng.gen_range(0..d);
            }
            out.push(AttrMask(mask));
        }
    }
    out.push(AttrMask::full(d));
    let duplicates: Vec<AttrMask> = out.iter().step_by(7).copied().collect();
    out.extend(duplicates);
    let half = out
        .iter()
        .copied()
        .find(|m| m.weight() as usize == d / 2)
        .expect("every weight is drawn");
    out.extend(half.subsets());
    out
}

/// Distinct masks that no two can share a parent: each of exactly the
/// largest weight a shared parent may have, so any union of two is too
/// wide, and masks wider than that, which are their own parents.
fn unshareable_masks(d: usize, occupied: usize) -> Vec<AttrMask> {
    let cap = (occupied / PARENT_SHARE).ilog2() as usize;
    assert!(cap < d, "a {d}-bit table with {occupied} occupied cells");
    let mut out: Vec<AttrMask> = (0..1u64 << d)
        .map(AttrMask)
        .filter(|m| m.weight() as usize == cap)
        .take(64)
        .collect();
    out.extend((cap + 1..=d).map(AttrMask::full));
    out
}

#[test]
fn the_lattice_matches_per_target_sums_and_the_fold() {
    for (d, seed) in [(3, 31), (8, 32), (12, 33), (16, 34)] {
        let counts = integer_counts(d, seed);
        let masks = lattice_masks(d, seed);
        assert_lattice(&counts, &masks);
        // At d = 3 a handful of occupied cells leaves no room to share.
        let shared = parents(&masks, occupied_cells(&counts).unwrap().len());
        assert!(
            d == 3 || shared.masks.len() < masks.len(),
            "d = {d}: some targets share a parent"
        );
    }
    // Empty and single-cell tables: a cap of 0 or 1 cell, nothing shares
    // beyond the empty mask.
    for d in [3, 8, 12] {
        let mut counts = vec![0.0; 1 << d];
        assert_lattice(&counts, &lattice_masks(d, 40 + d as u64));
        counts[(1 << d) - 2] = 5.0;
        assert_lattice(&counts, &lattice_masks(d, 50 + d as u64));
    }
}

#[test]
fn targets_that_cannot_share_are_each_their_own_parent() {
    for (d, seed) in [(8, 61), (12, 62), (16, 63)] {
        let counts = integer_counts(d, seed);
        let occupied = occupied_cells(&counts).unwrap().len();
        let masks = unshareable_masks(d, occupied);
        assert_lattice(&counts, &masks);
        let grouped = parents(&masks, occupied);
        assert_eq!(grouped.masks, masks);
    }
}

#[test]
fn totals_of_2_53_take_the_lattice_exactly() {
    for d in [8, 12] {
        let mut counts = integer_counts(d, 70 + d as u64);
        let rest: f64 = counts.iter().sum();
        counts[(1 << d) - 1] = TWO_53 - rest;
        assert_eq!(counts.iter().sum::<f64>(), TWO_53);
        assert_lattice(&counts, &lattice_masks(d, 80 + d as u64));
    }
}

#[test]
fn adult_attribute_marginals_match_per_target_sums_and_the_fold() {
    // Multi-bit attributes: every target spans whole attributes.
    let schema = dp_data::adult_schema();
    let records = dp_data::synthesize_adult(3000, 90);
    let table = ContingencyTable::from_records(&schema, &records).unwrap();
    let mut masks = Workload::all_k_way(&schema, 1)
        .unwrap()
        .marginals()
        .to_vec();
    let pairs = Workload::all_k_way(&schema, 2).unwrap();
    masks.extend(pairs.marginals().iter().step_by(4));
    masks.extend(&Workload::all_k_way(&schema, 3).unwrap().marginals()[..4]);
    assert_lattice(table.counts(), &masks);
}

#[test]
fn byte_tables_index_like_compress_cell() {
    let mut rng = StdRng::seed_from_u64(100);
    for _ in 0..2000 {
        // Masks of every density, up to all 64 bits.
        let mask = AttrMask(rng.gen::<u64>() & rng.gen::<u64>() >> rng.gen_range(0..64));
        let index = CellCompressor::new(mask);
        for _ in 0..16 {
            let cell = rng.gen::<u64>();
            assert_eq!(
                index.compress(cell),
                mask.compress_cell(cell & mask.0),
                "mask {:#x}, cell {cell:#x}",
                mask.0
            );
        }
    }
    for mask in [AttrMask::EMPTY, AttrMask(u64::MAX), AttrMask::full(63)] {
        let index = CellCompressor::new(mask);
        for cell in [0, 1, u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef] {
            assert_eq!(index.compress(cell), mask.compress_cell(cell & mask.0));
        }
    }
}

/// `Q` and `F` observations of seeded lattice masks against per-target
/// sums: the `Q` observations are the targets' marginals in order, the `F`
/// ones the coefficients filled from each target's marginal.
#[test]
fn bound_observations_equal_per_target_sums() {
    let d = 12;
    let counts = integer_counts(d, 110);
    let cells = occupied_cells(&counts).unwrap();
    let table = ContingencyTable::from_counts(counts);
    let masks: Vec<AttrMask> = lattice_masks(d, 111)
        .into_iter()
        .filter(|m| m.weight() <= 4)
        .collect();
    let workload = Workload::new(d, masks).unwrap();
    let bind = |strategy| {
        let plan = PlanBuilder::marginals(workload.clone(), strategy)
            .compile()
            .unwrap();
        Session::bind(Arc::new(plan), &table).unwrap()
    };
    let per_target: Vec<Vec<f64>> = workload
        .marginals()
        .iter()
        .map(|&alpha| sum_occupied(&cells, alpha))
        .collect();
    assert_eq!(
        bits(bind(StrategyKind::Workload).observations()),
        bits(&per_target.concat())
    );

    let space = CoefficientSpace::from_marginals(d, workload.marginals());
    let op = ObservationOperator::new(&space, workload.marginals()).unwrap();
    let mut coeffs = vec![0.0; space.len()];
    let mut scratch = Vec::new();
    for (i, cells) in per_target.iter().enumerate() {
        for (p, c) in op.coefficients(i, cells, &mut scratch) {
            coeffs[p] = c;
        }
    }
    assert_eq!(
        bits(bind(StrategyKind::Fourier).observations()),
        bits(&coeffs)
    );
}
