//! Demonstrates that a d = 16 release over all 2-way marginals exercises
//! the multi-threaded paths (rayon) and never materializes a dense
//! `2^d × 2^d` matrix — the whole release fits comfortably in memory and
//! completes in well under a second, which a 4-billion-entry matrix could
//! not.

use datacube_dp::prelude::*;
use std::sync::Arc;

fn nltcs_16bit_table() -> (Schema, ContingencyTable) {
    let schema = dp_data::nltcs_schema();
    assert_eq!(schema.domain_bits(), 16);
    let records = dp_data::synthesize_nltcs(21_576, 7);
    let table = ContingencyTable::from_records(&schema, &records).unwrap();
    (schema, table)
}

#[test]
fn d16_two_way_release_runs_on_multiple_threads() {
    let (schema, table) = nltcs_16bit_table();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    assert_eq!(w.len(), 120);

    // `worker_tasks` is a diagnostic counter of the vendored rayon shim: it
    // counts chunks run on pool worker threads rather than the calling
    // thread. On a multi-core machine a d = 16 release must fan out
    // (per-marginal folds, chunked noising of the 65 536-cell observation
    // vector).
    let before = rayon::worker_tasks();
    for strategy in [StrategyKind::Identity, StrategyKind::Fourier] {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        // A small batch exercises the seed fan-out on top of the per-release
        // chunked noising.
        let releases = session.release_batch(&[42, 43]).unwrap();
        for release in releases {
            assert_eq!(release.answers.marginals().unwrap().len(), w.len());
            assert!(release.achieved_epsilon <= 1.0 + 1e-9);
        }
    }
    if rayon::current_num_threads() > 1 {
        let on_workers = rayon::worker_tasks() - before;
        assert!(
            on_workers > 0,
            "expected the d = 16 release to run chunks on pool workers, got {on_workers}"
        );
    }
}

#[test]
fn cluster_plan_is_invariant_to_parallel_search_and_thread_count() {
    // The optimized cluster search fans its candidate evaluation out with
    // rayon but combines via a deterministic (Δ, i, j) min-reduction, so a
    // parallel compile must produce exactly the plan a serial compile does
    // — same clustering, budgets and released bytes.
    let (schema, table) = nltcs_16bit_table();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let compile = |config: ClusterConfig| {
        PlanBuilder::marginals(w.clone(), StrategyKind::Cluster)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .cluster_config(config)
            .compile()
            .unwrap()
    };
    let parallel = compile(ClusterConfig::FAST);
    let serial = compile(ClusterConfig::FAST.serial());
    assert_eq!(parallel.clustering().unwrap(), serial.clustering().unwrap());
    assert_eq!(parallel.solution(), serial.solution());
    let a = Session::bind(Arc::new(parallel), &table)
        .unwrap()
        .release(9)
        .unwrap();
    let b = Session::bind(Arc::new(serial), &table)
        .unwrap()
        .release(9)
        .unwrap();
    for (x, y) in a
        .answers
        .marginals()
        .unwrap()
        .iter()
        .zip(b.answers.marginals().unwrap())
    {
        assert_eq!(x.values(), y.values());
    }
}

#[test]
fn d16_fourier_release_is_accurate_at_loose_epsilon() {
    // End-to-end sanity on the big domain: a loose ε must give answers
    // close to the exact marginals (no dense-matrix path could even run
    // here if one existed by accident).
    let (schema, table) = nltcs_16bit_table();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w.clone(), StrategyKind::Fourier)
        .privacy(PrivacyLevel::Pure { epsilon: 1e6 })
        .compile()
        .unwrap();
    let session = Session::bind(Arc::new(plan), &table).unwrap();
    let answers = session
        .release(3)
        .unwrap()
        .answers
        .into_marginals()
        .unwrap();
    let exact = w.true_answers(&table);
    for (noisy, exact) in answers.iter().zip(&exact) {
        for (a, b) in noisy.values().iter().zip(exact.values()) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }
}
