//! Oracle tests for the compiled-strategy release path: with a seeded RNG
//! the operator-based release path (`PlanBuilder` + `Session`) must
//! match the literal dense-matrix framework (`dp_core::framework`,
//! explicit `Q`/`S`, Eq.-(7) GLS) applied to the *identical* noisy
//! observations — for marginal and range workloads — and the fast
//! Walsh–Hadamard transform must be an involution.

use datacube_dp::prelude::*;
use dp_core::framework::gls_recovery;
use dp_core::grouping::detect_grouping;
use dp_core::range::{strategy_matrix, RangeStrategy, RangeWorkload};
use dp_linalg::Matrix;
use dp_mech::noise::perturb_observations;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A pure-ε plan with optimal budgets, bound to `table`.
fn marginal_session(
    table: &ContingencyTable,
    w: &Workload,
    strategy: StrategyKind,
    epsilon: f64,
) -> Session {
    let plan = PlanBuilder::marginals(w.clone(), strategy)
        .budgeting(Budgeting::Optimal)
        .privacy(PrivacyLevel::Pure { epsilon })
        .compile()
        .unwrap();
    Session::bind(Arc::new(plan), table).unwrap()
}

fn random_table(d: usize, seed: u64) -> ContingencyTable {
    let mut rng = StdRng::seed_from_u64(seed);
    ContingencyTable::from_counts((0..1usize << d).map(|_| rng.gen_range(0.0..9.0)).collect())
}

/// Replays the exact noisy observation vector a `Workload`-strategy release
/// drew from `seed`, using the engine's public perturbation contract.
fn replay_workload_noise(
    table: &ContingencyTable,
    w: &Workload,
    group_budgets: &[f64],
    seed: u64,
) -> Vec<f64> {
    let exact: Vec<f64> = w
        .true_answers(table)
        .iter()
        .flat_map(|m| m.values().to_vec())
        .collect();
    let mut row_groups = Vec::with_capacity(exact.len());
    for (g, alpha) in w.marginals().iter().enumerate() {
        row_groups.extend(std::iter::repeat_n(g as u32, alpha.cell_count()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    perturb_observations(
        &exact,
        &row_groups,
        group_budgets,
        PrivacyLevel::Pure { epsilon: 1.0 },
        &mut rng,
    )
}

#[test]
fn marginal_planner_matches_dense_gls_oracle_with_seeded_rng() {
    // Release through the unified planner, then recompute the answers with
    // the dense Eq.-(7) GLS applied to the identical noisy observations.
    let d = 4;
    let table = random_table(d, 1);
    let w = Workload::new(
        d,
        vec![AttrMask(0b0011), AttrMask(0b0110), AttrMask(0b1001)],
    )
    .unwrap();
    let seed = 20130402;

    let session = marginal_session(&table, &w, StrategyKind::Workload, 1.0);
    let release = session.release(seed).unwrap();
    let fast: Vec<f64> = release
        .answers
        .marginals()
        .unwrap()
        .iter()
        .flat_map(|m| m.values().to_vec())
        .collect();

    // Identical noisy z, replayed from the same seed and the returned
    // budgets.
    let noisy = replay_workload_noise(&table, &w, &release.group_budgets, seed);

    // Dense oracle: S = Q is rank-deficient over the full domain, so
    // augment with a huge-variance identity block (negligible influence).
    let n = 1usize << d;
    let q = w.query_matrix();
    let mut rows: Vec<Vec<f64>> = (0..q.rows()).map(|i| q.row(i).to_vec()).collect();
    for i in 0..n {
        let mut r = vec![0.0; n];
        r[i] = 1.0;
        rows.push(r);
    }
    let s_aug = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
    let mut vars_aug: Vec<f64> = Vec::new();
    for (g, alpha) in w.marginals().iter().enumerate() {
        let eta = release.group_budgets[g];
        vars_aug.extend(std::iter::repeat_n(2.0 / (eta * eta), alpha.cell_count()));
    }
    vars_aug.extend(std::iter::repeat_n(1e9, n));
    let r_gls = gls_recovery(&q, &s_aug, &vars_aug).unwrap();
    let mut z_aug = noisy.clone();
    z_aug.extend(std::iter::repeat_n(0.0, n));
    let oracle = r_gls.matvec(&z_aug).unwrap();

    assert_eq!(fast.len(), oracle.len());
    for (a, b) in fast.iter().zip(&oracle) {
        assert!((a - b).abs() < 1e-3, "unified path {a} vs dense oracle {b}");
    }
}

#[test]
fn marginal_releases_are_bitwise_deterministic_per_seed() {
    let d = 6;
    let table = random_table(d, 2);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    for strategy in [
        StrategyKind::Identity,
        StrategyKind::Workload,
        StrategyKind::Fourier,
        StrategyKind::Cluster,
    ] {
        let session = marginal_session(&table, &w, strategy, 0.5);
        let a = session.release(99).unwrap();
        let b = session.release(99).unwrap();
        let pairs = a.answers.marginals().unwrap().iter();
        for (ma, mb) in pairs.zip(b.answers.marginals().unwrap()) {
            // Bit-for-bit: the parallel noise path must not depend on
            // scheduling.
            assert_eq!(ma.values(), mb.values(), "{strategy:?}");
        }
        assert_eq!(a.group_budgets, b.group_budgets);
    }
}

#[test]
fn range_planner_matches_dense_gls_oracle_with_seeded_rng() {
    // The CG-based range recovery must match the dense GLS recovery matrix
    // applied to the identical noisy observations.
    let n = 32;
    let w = RangeWorkload::all_prefixes(n).unwrap();
    let hist: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
    for strategy in [
        RangeStrategy::Identity,
        RangeStrategy::Hierarchical,
        RangeStrategy::Wavelet,
    ] {
        let plan = PlanBuilder::ranges(w.clone(), strategy)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .compile()
            .unwrap();
        let group_budgets = plan.solution().group_budgets.clone();
        let seed = 7_654_321;
        let session = Session::bind_histogram(Arc::new(plan), &hist).unwrap();
        let release = session.release(seed).unwrap();
        let fast = release.answers.ranges().unwrap();

        // Replay the identical noisy z through the dense strategy matrix,
        // its detected grouping and the plan's group budgets.
        let s = strategy_matrix(strategy, n);
        let grouping = detect_grouping(&s).unwrap();
        let z = s.matvec(&hist).unwrap();
        let row_groups: Vec<u32> = grouping.assignment().iter().map(|&g| g as u32).collect();
        let mut replay_rng = StdRng::seed_from_u64(seed);
        let noisy = perturb_observations(
            &z,
            &row_groups,
            &group_budgets,
            PrivacyLevel::Pure { epsilon: 1.0 },
            &mut replay_rng,
        );

        // Dense oracle: the GLS-optimal R for the plan's row variances,
        // Theorem 2.1's Laplace variance 2/η².
        let row_variances: Vec<f64> = grouping
            .assignment()
            .iter()
            .map(|&g| 2.0 / (group_budgets[g] * group_budgets[g]))
            .collect();
        let r = gls_recovery(&w.query_matrix(), &s, &row_variances).unwrap();
        let oracle = r.matvec(&noisy).unwrap();
        for (a, b) in fast.iter().zip(&oracle) {
            assert!(
                (a - b).abs() < 1e-5,
                "{strategy:?}: unified {a} vs dense oracle {b}"
            );
        }
    }
}

proptest::proptest! {
    /// `fwht_normalized` is an involution on random vectors up to d = 12.
    #[test]
    fn fwht_normalized_is_involution_up_to_d12(
        d in 1usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << d;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let mut x = x0.clone();
        dp_linalg::fwht_normalized(&mut x);
        dp_linalg::fwht_normalized(&mut x);
        for (a, b) in x.iter().zip(&x0) {
            proptest::prop_assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "involution broke at d={}: {} vs {}", d, a, b
            );
        }
    }

    /// Parseval over random vectors: the orthonormal WHT preserves energy.
    #[test]
    fn fwht_normalized_preserves_energy(
        d in 1usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << d;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let e0: f64 = x0.iter().map(|v| v * v).sum();
        let mut x = x0;
        dp_linalg::fwht_normalized(&mut x);
        let e1: f64 = x.iter().map(|v| v * v).sum();
        proptest::prop_assert!((e0 - e1).abs() < 1e-8 * e0.max(1.0));
    }
}
