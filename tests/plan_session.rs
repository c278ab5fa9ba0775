//! Integration tests for the two-phase plan/session API: determinism,
//! byte-identity with the retired single-shot paths (pinned as recorded
//! digests), batch invariance, serde round-trips and cache behavior.

use datacube_dp::prelude::*;
use dp_core::framework::{gls_recovery, output_variances};
use std::sync::Arc;

fn small_table(d: usize, seed: u64) -> ContingencyTable {
    let mut counts = vec![0.0; 1usize << d];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = ((i as u64).wrapping_mul(7919).wrapping_add(seed) % 13) as f64;
    }
    ContingencyTable::from_counts(counts)
}

fn hist(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 7) as f64).collect()
}

/// FNV-1a over a release's rendered bytes: every field the release
/// carries, as little-endian `f64` bit patterns (plus the label and the
/// marginal masks), so any single flipped bit changes the digest.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn marginal_digest(release: &SessionRelease) -> u64 {
    let mut h = Digest::new();
    h.bytes(release.label.as_bytes());
    h.floats(&[release.achieved_epsilon]);
    h.floats(&release.group_budgets);
    for (mask, cells) in release.answers.marginals().unwrap().iter() {
        h.bytes(&mask.0.to_le_bytes());
        h.floats(cells);
    }
    h.0
}

fn range_digest(answers: &[f64]) -> u64 {
    let mut h = Digest::new();
    h.floats(answers);
    h.0
}

/// Digests of the retired single-shot marginal planner's releases (seed
/// 4242, the 6-bit `small_table(6, 1)`, all 2-way marginals), recorded
/// before it was deleted, in grid order: strategy × budgeting × privacy.
const LEGACY_MARGINAL_DIGESTS: [u64; 16] = [
    0xd476e71e032a889a, // I,  uniform, pure
    0xdc2f992f74bcf13b, // I,  uniform, approx
    0xa89028537488a8e3, // I+, optimal, pure
    0x3376ae8804b97f76, // I+, optimal, approx
    0xc5c0b40a357a0036, // Q
    0x5dfeb6d7c8de133c,
    0x720063ef2f3fd506, // Q+
    0xe1947bb10e4240e1,
    0x7f1ae034c779b6f6, // F
    0xcfd6beaab4d4fbea,
    0x034673b43ec0a9e2, // F+
    0x3da7ba6665f4fa97,
    0xed8bd0f0f25448dc, // C
    0x323f4aa03868658a,
    0x0af2261af5deab25, // C+
    0x8376c7d2c08d196b,
];

/// Digests of the range releases (seed 777, all prefixes of `hist(64)`,
/// pure ε = 0.8), in grid order: strategy × (uniform, optimal).
///
/// The sketch entries were recorded from the retired single-shot range
/// planner before it was deleted. The I, H and W entries were re-recorded
/// when their recovery moved from conjugate gradients to the exact
/// closed-form GLS estimator: the old pins held CG's approximate iterate,
/// which differs from the exact answer in the last bits (≤ 1e-9
/// relative). The noise draw did not change, which the unchanged sketch
/// pins (still recovered by CG) and marginal pins show.
const LEGACY_RANGE_DIGESTS: [u64; 8] = [
    0xe5273e5b442184a0, // I
    0xe5273e5b442184a0, // I+ (one group: the same budgets)
    0x0a0f5eea9c071d4d, // H
    0xb74f9a80332cac68, // H+
    0x5bfdf37b4c295857, // W
    0xb8d3e1e1144a0e04, // W+
    0x0d5ed14ce75b4fdc, // S
    0xa4470987d15aac0d, // S+
];

#[test]
fn session_releases_are_byte_identical_to_legacy_marginal_planner() {
    let d = 6;
    let table = small_table(d, 1);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let mut expected = LEGACY_MARGINAL_DIGESTS.iter();
    for strategy in [
        StrategyKind::Identity,
        StrategyKind::Workload,
        StrategyKind::Fourier,
        StrategyKind::Cluster,
    ] {
        for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
            for privacy in [
                PrivacyLevel::Pure { epsilon: 0.5 },
                PrivacyLevel::Approx {
                    epsilon: 0.5,
                    delta: 1e-6,
                },
            ] {
                let plan = PlanBuilder::marginals(w.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .compile()
                    .unwrap();
                let session = Session::bind(Arc::new(plan), &table).unwrap();
                let release = session.release(4242).unwrap();
                // Bit-for-bit: the session must draw the exact same noise
                // and recovery the retired planner did.
                assert_eq!(
                    marginal_digest(&release),
                    *expected.next().unwrap(),
                    "{strategy:?}/{budgeting:?}/{privacy:?}"
                );
            }
        }
    }
}

/// Digests of the same range grid (seed 777, all prefixes of `hist(64)`)
/// under approximate privacy (ε = 0.8, δ = 1e-6): Gaussian noise, and
/// `H+`/`S+` recovery weights and sketch CG weights taken from the Gaussian
/// noise variance. Recorded before the noise stream moved into
/// `dp_mech::noise`.
const GAUSSIAN_RANGE_DIGESTS: [u64; 8] = [
    0xb28140a50b3f5bee, // I
    0xb28140a50b3f5bee, // I+ (one group: the same budgets)
    0x7d9bba5c64de8598, // H
    0x32391a0f8e9b2f55, // H+
    0xfaa80f5721eff799, // W
    0xf9c4e8a0bcb3cd7a, // W+
    0x84d749d7e1bc874b, // S
    0xbd4d60032368355d, // S+
];

/// Releases the all-prefixes range grid (strategy × (uniform, optimal)) at
/// `privacy` with seed 777, checks each release against its pinned digest
/// and each plan's predicted per-query variances against the dense GLS
/// oracle, whose row variances come from `row_variance(η)`.
fn check_range_grid(privacy: PrivacyLevel, pinned: &[u64; 8], row_variance: fn(f64) -> f64) {
    let n = 64;
    let w = RangeWorkload::all_prefixes(n).unwrap();
    let h = hist(n);
    let mut expected = pinned.iter();
    for strategy in [
        RangeStrategy::Identity,
        RangeStrategy::Hierarchical,
        RangeStrategy::Wavelet,
        RangeStrategy::Sketch {
            repetitions: 8,
            buckets: 64,
            seed: 7,
        },
    ] {
        for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
            let plan = Arc::new(
                PlanBuilder::ranges(w.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .compile()
                    .unwrap(),
            );
            let session = Session::bind_histogram(Arc::clone(&plan), &h).unwrap();
            let release = session.release(777).unwrap();
            assert_eq!(
                range_digest(release.answers.ranges().unwrap()),
                *expected.next().unwrap(),
                "{strategy:?}/{budgeting:?}/{privacy:?}"
            );
            // The matrix-free per-query variance predictions must agree
            // with the dense oracle's exact GLS output variances.
            let s = dp_core::range::strategy_matrix(strategy, n);
            let grouping = dp_core::grouping::detect_grouping(&s).unwrap();
            let row_variances: Vec<f64> = grouping
                .assignment()
                .iter()
                .map(|&g| row_variance(plan.solution().group_budgets[g]))
                .collect();
            let r = gls_recovery(&w.query_matrix(), &s, &row_variances).unwrap();
            let oracle = output_variances(&r, &row_variances).unwrap();
            for (a, b) in plan.query_variances().iter().zip(&oracle) {
                assert!(
                    (a - b).abs() < 1e-6 * b.max(1e-12),
                    "{strategy:?}/{privacy:?}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn session_releases_are_byte_identical_to_legacy_range_plan() {
    // Theorem 2.1's per-row Laplace variance 2/η².
    check_range_grid(
        PrivacyLevel::Pure { epsilon: 0.8 },
        &LEGACY_RANGE_DIGESTS,
        |eta| 2.0 / (eta * eta),
    );
}

#[test]
fn gaussian_range_releases_are_byte_identical_to_pinned_digests() {
    // Theorem 2.2's per-row variance 2 ln(2/δ)/η², written out here so the
    // oracle does not share the library's calibration code.
    check_range_grid(
        PrivacyLevel::Approx {
            epsilon: 0.8,
            delta: 1e-6,
        },
        &GAUSSIAN_RANGE_DIGESTS,
        |eta| 2.0 * (2.0 / 1e-6_f64).ln() / (eta * eta),
    );
}

#[test]
fn batch_output_is_independent_of_batch_size_and_thread_count() {
    let d = 6;
    let table = small_table(d, 3);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w, StrategyKind::Fourier)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
        .compile()
        .unwrap();
    let session = Session::bind(Arc::new(plan), &table).unwrap();

    let flat = |r: &SessionRelease| r.answers.marginals().unwrap().cells().to_vec();

    // The full batch, a prefix batch, a shuffled batch and singles must all
    // produce the same bytes per seed — batch composition cannot leak into
    // the noise.
    let seeds: Vec<u64> = (100..132).collect();
    let full = session.release_batch(&seeds).unwrap();
    let prefix = session.release_batch(&seeds[..5]).unwrap();
    let mut shuffled: Vec<u64> = seeds.clone();
    shuffled.reverse();
    let reversed = session.release_batch(&shuffled).unwrap();
    for (i, &seed) in seeds.iter().enumerate() {
        let single = session.release(seed).unwrap();
        assert_eq!(flat(&full[i]), flat(&single));
        if i < 5 {
            assert_eq!(flat(&prefix[i]), flat(&single));
        }
        assert_eq!(flat(&reversed[seeds.len() - 1 - i]), flat(&single));
    }
}

proptest::proptest! {
    /// Property: for random seed lists and random ε, every batch element
    /// equals its single-shot release, and repeated batches are identical.
    #[test]
    fn proptest_batches_reproduce_single_releases(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..12),
        eps in 0.05f64..5.0,
    ) {
        let table = small_table(4, 9);
        let schema = Schema::binary(4).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        let plan = PlanBuilder::marginals(w, StrategyKind::Workload)
            .privacy(PrivacyLevel::Pure { epsilon: eps })
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        let batch_a = session.release_batch(&seeds).unwrap();
        let batch_b = session.release_batch(&seeds).unwrap();
        for ((a, b), &seed) in batch_a.iter().zip(&batch_b).zip(&seeds) {
            let single = session.release(seed).unwrap();
            let fa = a.answers.marginals().unwrap().cells();
            let fb = b.answers.marginals().unwrap().cells();
            let fs = single.answers.marginals().unwrap().cells();
            proptest::prop_assert_eq!(&fa, &fb);
            proptest::prop_assert_eq!(&fa, &fs);
        }
    }
}

#[test]
fn cached_plans_serve_byte_identical_releases() {
    let table = small_table(5, 2);
    let schema = Schema::binary(5).unwrap();
    let w = Workload::k_way_plus_half(&schema, 1).unwrap();
    let cache = PlanCache::new();
    let build = || {
        PlanBuilder::marginals(w.clone(), StrategyKind::Fourier)
            .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
            .for_schema(&schema)
    };
    let first = cache.get_or_compile(build()).unwrap();
    let second = cache.get_or_compile(build()).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 1);

    // A cached plan serves the same bytes as a freshly compiled one.
    let fresh = Arc::new(build().compile().unwrap());
    let from_cache = Session::bind(first, &table).unwrap().release(11).unwrap();
    let from_fresh = Session::bind(fresh, &table).unwrap().release(11).unwrap();
    for ((_, a), (_, b)) in from_cache
        .answers
        .marginals()
        .unwrap()
        .iter()
        .zip(from_fresh.answers.marginals().unwrap().iter())
    {
        assert_eq!(a, b);
    }
}

#[test]
fn plans_round_trip_through_serde_json_and_release_identically() {
    let table = small_table(5, 4);
    let schema = Schema::binary(5).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w, StrategyKind::Fourier)
        .privacy(PrivacyLevel::Approx {
            epsilon: 0.9,
            delta: 1e-5,
        })
        .for_schema(&schema)
        .compile()
        .unwrap();
    let doc = serde_json::to_string_pretty(&plan).unwrap();
    let shipped: Plan = serde_json::from_str(&doc).unwrap();
    assert_eq!(shipped, plan);
    assert_eq!(shipped.query_variances(), plan.query_variances());

    // The shipped plan releases the exact same bytes: budgets were carried
    // over, not re-solved, and the operator recompiles deterministically.
    let a = Session::bind(Arc::new(plan), &table)
        .unwrap()
        .release(99)
        .unwrap();
    let b = Session::bind(Arc::new(shipped), &table)
        .unwrap()
        .release(99)
        .unwrap();
    for ((_, ma), (_, mb)) in a
        .answers
        .marginals()
        .unwrap()
        .iter()
        .zip(b.answers.marginals().unwrap().iter())
    {
        assert_eq!(ma, mb);
    }

    // Range plans (including sketches, whose seed travels exactly) too.
    let rw = RangeWorkload::new(32, vec![(0, 7), (5, 20), (16, 32)]).unwrap();
    let rplan = PlanBuilder::ranges(
        rw,
        RangeStrategy::Sketch {
            repetitions: 8,
            buckets: 32,
            seed: u64::MAX - 3, // exercises the above-2^53 string path
        },
    )
    .compile()
    .unwrap();
    let rdoc = serde_json::to_string(&rplan).unwrap();
    let rshipped: Plan = serde_json::from_str(&rdoc).unwrap();
    assert_eq!(rshipped, rplan);
    let h = hist(32);
    let ra = Session::bind_histogram(Arc::new(rplan), &h)
        .unwrap()
        .release(5)
        .unwrap();
    let rb = Session::bind_histogram(Arc::new(rshipped), &h)
        .unwrap()
        .release(5)
        .unwrap();
    assert_eq!(ra.answers.ranges().unwrap(), rb.answers.ranges().unwrap());
}

#[test]
fn approximate_privacy_ranges_match_engine_accounting() {
    // Satellite: PrivacyLevel::Approx now threads through range planning.
    let w = RangeWorkload::sliding_windows(64, 8).unwrap();
    let plan = PlanBuilder::ranges(w.clone(), RangeStrategy::Hierarchical)
        .privacy(PrivacyLevel::Approx {
            epsilon: 0.6,
            delta: 1e-7,
        })
        .compile()
        .unwrap();
    assert!(plan.achieved_epsilon() <= 0.6 + 1e-9);
    assert!(
        (plan.achieved_epsilon() - 0.6).abs() < 1e-9,
        "quadratic constraint tight"
    );
    let h = hist(64);
    let session = Session::bind_histogram(Arc::new(plan), &h).unwrap();
    let releases = session.release_batch(&[1, 2, 3, 4]).unwrap();
    assert!(releases
        .iter()
        .all(|r| r.answers.ranges().unwrap().len() == w.ranges().len()));
    // Gaussian noise differs from a Laplace plan at the same ε.
    let laplace = PlanBuilder::ranges(w, RangeStrategy::Hierarchical)
        .privacy(PrivacyLevel::Pure { epsilon: 0.6 })
        .compile()
        .unwrap();
    assert_ne!(
        laplace.solution().group_budgets,
        session.plan().solution().group_budgets
    );
}
