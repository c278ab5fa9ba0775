//! Bit-identity oracle for exact marginals of count data: the sum over a
//! table's occupied cells must give the bytes of the dense `marginalize`
//! fold for every mask weight, and every vector whose partial sums could
//! round (`-0.0`, fractions, NaN, a total above 2^53) must take the fold.
//! Marginal binds observe through this sum, so it also checks that `Q` and
//! `F` observations equal the fold-built ones.

use datacube_dp::prelude::*;
use dp_core::fourier::CoefficientSpace;
use dp_core::table::{marginalize, occupied_cells, sum_occupied};
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
    for (m, &alpha) in table.marginals(masks).iter().zip(masks) {
        let fold = bits(&marginalize(counts, d, alpha));
        assert_eq!(bits(m.values()), fold, "marginals, mask {:#b}", alpha.0);
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
        let mut coeffs = vec![0.0; space.len()];
        for &alpha in workload.marginals() {
            let m = MarginalTable::new(alpha, marginalize(&counts, d, alpha));
            space.fill_from_marginal(&mut coeffs, &m).unwrap();
        }
        assert_eq!(
            bits(bind(StrategyKind::Fourier).observations()),
            bits(&coeffs)
        );
    }
}
