//! Demonstrates that a d = 16 release over all 2-way marginals exercises
//! the multi-threaded paths (rayon) and never materializes a dense
//! `2^d × 2^d` matrix — the whole release fits comfortably in memory and
//! completes in well under a second, which a 4-billion-entry matrix could
//! not.

use datacube_dp::prelude::*;
use dp_core::cluster::{greedy_cluster_reference, CentroidSearch};
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
    // thread. On a multi-core machine a d = 16 Identity release must fan
    // out (per-marginal folds of the 65 536-cell noisy vector, chunked
    // noising of it), far above the grain-size floor that keeps the
    // Fourier release's 120 four-cell recoveries on the calling thread.
    for strategy in [StrategyKind::Identity, StrategyKind::Fourier] {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        // Two seeds are fewer than the shim splits a call for, so the
        // batch runs its releases in turn and any fan-out is their own.
        let before = rayon::worker_tasks();
        let releases = session.release_batch(&[42, 43]).unwrap();
        let on_workers = rayon::worker_tasks() - before;
        for release in releases {
            assert_eq!(release.answers.marginals().unwrap().len(), w.len());
            assert!(release.achieved_epsilon <= 1.0 + 1e-9);
        }
        if strategy == StrategyKind::Identity && rayon::current_num_threads() > 1 {
            assert!(
                on_workers > 0,
                "expected the d = 16 Identity release to run chunks on pool workers, \
                 got {on_workers}"
            );
        }
    }
}

#[test]
fn cluster_plan_is_invariant_to_parallel_search_and_thread_count() {
    // The cluster search fans its candidate evaluation out with rayon but
    // combines via a deterministic (Δ, i, j) min-reduction, so the plan's
    // clustering must be exactly the one the serial reference walk finds,
    // at any thread count (CI also runs this on one core).
    let (schema, table) = nltcs_16bit_table();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w.clone(), StrategyKind::Cluster)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
        .compile()
        .unwrap();
    let reference = greedy_cluster_reference(&w, CentroidSearch::Union);
    assert_eq!(plan.clustering().unwrap(), &reference);
    let release = Session::bind(Arc::new(plan), &table)
        .unwrap()
        .release(9)
        .unwrap();
    assert_eq!(release.answers.marginals().unwrap().len(), w.len());
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
    for ((_, noisy), (_, exact)) in answers.iter().zip(exact.iter()) {
        for (a, b) in noisy.iter().zip(exact) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }
}
