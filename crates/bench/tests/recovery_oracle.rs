//! Byte-identity oracle for the in-place range recovery: the Haar
//! transforms, the tree transpose, the endpoint-only range answers and
//! whole W+/H+ releases must equal, bit for bit, the allocating kernels of
//! `dp_bench::reference` — on every power-of-two domain up to 2^12, on
//! values that include `-0.0`, subnormals, ±∞ and NaN, and on range sets
//! with `lo = 0`, `hi = n`, shared endpoints and duplicates.

use dp_bench::reference;
use dp_core::prelude::*;
use dp_core::range::tree_gls;
use dp_linalg::{haar_level, HierarchicalOperator, LinearOperator};
use dp_mech::noise::{noise_variance, perturb_observations_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The domain sizes every kernel is checked on: 2^0 … 2^12.
fn domains() -> impl Iterator<Item = usize> {
    (0..=12).map(|k| 1usize << k)
}

/// Seeded values: mostly finite and of mixed sign, with `-0.0` and
/// subnormals throughout; with `specials`, also the odd ±∞ and NaN. Seed 0
/// starts with a `-0.0` cell.
fn values(len: usize, seed: u64, specials: bool) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f64> = (0..len)
        .map(|_| {
            let r = rng.gen::<u64>();
            match r % 64 {
                0 => -0.0,
                1 => f64::from_bits(r >> 13),
                2 => -f64::from_bits(r >> 13),
                3 if specials && r % 512 == 3 => f64::INFINITY,
                4 if specials && r % 512 == 4 => f64::NEG_INFINITY,
                5 if specials && r % 512 == 5 => f64::NAN,
                _ => (rng.gen::<f64>() - 0.5) * 1e3,
            }
        })
        .collect();
    if seed == 0 && len > 0 {
        v[0] = -0.0;
    }
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every value set of one domain: finite ones and ones with specials.
fn cases(len: usize) -> impl Iterator<Item = (u64, Vec<f64>)> {
    (0..4u64).map(move |seed| (seed, values(len, seed, seed >= 2)))
}

#[test]
fn haar_transforms_match_the_reference_bits() {
    // One work buffer for every size, starting with stale contents: what
    // it holds on entry must not matter.
    let mut half = vec![f64::NAN, -1.0, 7.5];
    for n in domains() {
        for (seed, x0) in cases(n) {
            let mut got = x0.clone();
            let mut want = x0.clone();
            dp_linalg::haar_forward(&mut got, &mut half);
            reference::haar_forward(&mut want);
            assert_eq!(bits(&got), bits(&want), "haar_forward n={n} seed={seed}");

            let mut got = x0.clone();
            let mut want = x0;
            dp_linalg::haar_inverse(&mut got, &mut half);
            reference::haar_inverse(&mut want);
            assert_eq!(bits(&got), bits(&want), "haar_inverse n={n} seed={seed}");
        }
    }
}

#[test]
fn tree_transpose_matches_the_reference_bits() {
    for n in domains() {
        let tree = HierarchicalOperator::new(n);
        let weights = [0.25, 3.0, 1.0 / 3.0];
        for (seed, y) in cases(2 * n - 1) {
            let mut got = vec![f64::NAN; n];
            tree.apply_transpose_into(&y, &mut got);
            let want = reference::tree_transpose(n, &y);
            assert_eq!(bits(&got), bits(&want), "transpose n={n} seed={seed}");

            // The fused row map equals weighting first, then transposing.
            let weight = |i: usize| weights[i % weights.len()];
            let mut got = vec![f64::NAN; n];
            tree.transpose_rows_into(&y, |i, v| v * weight(i), &mut got);
            let weighted: Vec<f64> = y.iter().enumerate().map(|(i, v)| v * weight(i)).collect();
            let want = reference::tree_transpose(n, &weighted);
            assert_eq!(bits(&got), bits(&want), "weighted n={n} seed={seed}");
        }
    }
}

/// Ranges over `[0, n)`: the whole domain, the first and last cells, a
/// chain sharing endpoints, duplicates, and seeded intervals.
fn range_set(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut ranges = vec![(0, n), (0, 1), (n - 1, n), (0, n)];
    let mid = n / 2;
    if mid > 0 {
        ranges.extend([(0, mid), (mid, n), (mid, n), (0, mid)]);
    }
    for _ in 0..24 {
        let lo = rng.gen_range(0..n);
        let hi = rng.gen_range(lo + 1..=n);
        ranges.push((lo, hi));
        ranges.push((lo, hi));
        if hi < n {
            ranges.push((hi, n));
        }
    }
    ranges
}

#[test]
fn endpoint_answers_match_the_prefix_vector_bits() {
    for n in domains() {
        for (seed, hist) in cases(n) {
            // Seeded ranges, and every prefix: one range per endpoint.
            for workload in [
                RangeWorkload::new(n, range_set(n, seed)).unwrap(),
                RangeWorkload::all_prefixes(n).unwrap(),
            ] {
                let got = workload.true_answers(&hist).unwrap();
                let want = reference::prefix_answers(workload.ranges(), &hist);
                assert_eq!(bits(&got), bits(&want), "answers n={n} seed={seed}");
            }
        }
    }
    // The prefix starts at +0.0, so a `-0.0` first cell still sums to
    // `0.0 + -0.0 = +0.0`.
    let workload = RangeWorkload::new(2, vec![(0, 1), (0, 2)]).unwrap();
    let got = workload.true_answers(&[-0.0, -0.0]).unwrap();
    assert_eq!(bits(&got), bits(&[0.0, 0.0]));
}

/// W+ and H+ releases through `Session::release`, against the reference
/// recovery of the same noise: drawn from the same seed by the shared
/// noise stream at the release's own budgets.
#[test]
fn range_releases_match_the_reference_recovery() {
    let approx = PrivacyLevel::Approx {
        epsilon: 0.8,
        delta: 1e-6,
    };
    for n in [1usize, 2, 64, 1 << 12] {
        let hist = values(n, 11, false);
        let ranges = range_set(n, 5);
        for strategy in [RangeStrategy::Wavelet, RangeStrategy::Hierarchical] {
            for (privacy, budgeting) in [
                (PrivacyLevel::Pure { epsilon: 1.0 }, Budgeting::Optimal),
                (approx, Budgeting::Uniform),
            ] {
                let workload = RangeWorkload::new(n, ranges.clone()).unwrap();
                let plan = PlanBuilder::ranges(workload.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .compile()
                    .unwrap();
                let session = Session::bind_histogram(Arc::new(plan), &hist).unwrap();
                let tree = HierarchicalOperator::new(n);
                let rows = session.observations().len();
                let row_groups: Vec<u32> = (0..rows)
                    .map(|i| match strategy {
                        RangeStrategy::Hierarchical => tree.row_level(i) as u32,
                        _ => haar_level(i) as u32,
                    })
                    .collect();
                for seed in 1..=3u64 {
                    let release = session.release(seed).unwrap();
                    let budgets = &release.group_budgets;
                    let params = NoiseParams::compute(privacy, budgets);
                    let (mut noisy, mut seeds) = (Vec::new(), Vec::new());
                    let mut rng = StdRng::seed_from_u64(seed);
                    let observations = session.observations();
                    perturb_observations_into(
                        observations,
                        &row_groups,
                        &params,
                        &mut rng,
                        &mut noisy,
                        &mut seeds,
                    );
                    let weights: Vec<f64> = budgets
                        .iter()
                        .map(|&eta| 1.0 / noise_variance(privacy, eta))
                        .collect();
                    let want = match strategy {
                        RangeStrategy::Hierarchical => {
                            reference::tree_recovery(&workload, &noisy, &row_groups, &weights)
                        }
                        _ => reference::wavelet_recovery(&workload, &noisy),
                    };
                    let got = release.answers.ranges().unwrap();
                    let what = format!("{strategy:?} {privacy:?} {budgeting:?} n={n} seed={seed}");
                    assert_eq!(bits(got), bits(&want), "{what}");

                    // The public closed form, on caller buffers, agrees too.
                    if strategy == RangeStrategy::Hierarchical {
                        let (mut x, mut half) = (Vec::new(), Vec::new());
                        tree_gls(n, &noisy, &row_groups, &weights, &mut x, &mut half);
                        let got = workload.true_answers(&x).unwrap();
                        assert_eq!(bits(&got), bits(&want), "tree_gls {what}");
                    }
                }
            }
        }
    }
}
