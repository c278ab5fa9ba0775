//! A marginal release whose recovery is too small to repay waking a pool
//! worker runs on the calling thread: NLTCS Q1 and Q2 `F+` releases run no
//! chunk on a rayon pool worker, and their wire bytes are the ones pinned
//! before the grain-size floor existed.
//!
//! This file is its own test binary with a single test, because
//! `rayon::worker_tasks()` counts pool-worker chunks process-wide: no other
//! test may fan out while it runs.

use datacube_dp::prelude::*;
use datacube_dp::service::protocol;
use std::sync::Arc;

/// The seed the CLI passes to the synthetic dataset generators.
const DATA_SEED: u64 = 20130401;

/// FNV-1a of the wire release documents (`protocol::write_release`) of
/// the NLTCS `all_k_way(k)` `F+` plan at pure ε = 0.5, per `(k, seed)`,
/// recorded before the floor existed.
const PINNED: [(usize, u64, u64); 4] = [
    (1, 9, 0xfb9f0764edcae10b),
    (1, 42, 0xa0a76355c3c20c6f),
    (2, 9, 0xe0a7c4aca0461bd4),
    (2, 42, 0x8e9fb7c3ea929526),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn small_fourier_releases_run_on_the_calling_thread() {
    let schema = dp_data::nltcs_schema();
    let records = dp_data::synthesize_nltcs(dp_data::nltcs::NLTCS_RECORDS, DATA_SEED);
    let table = ContingencyTable::from_records(&schema, &records).unwrap();
    for k in [1, 2] {
        let plan = PlanBuilder::marginals(
            Workload::all_k_way(&schema, k).unwrap(),
            StrategyKind::Fourier,
        )
        .budgeting(Budgeting::Optimal)
        .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
        .for_schema(&schema)
        .compile()
        .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        // Many releases, so that a fan-out shows even when the caller
        // happens to claim every chunk of some of them.
        let before = rayon::worker_tasks();
        for seed in 0..48 {
            let release = session.release(seed).unwrap();
            if let Some(&(_, _, digest)) = PINNED.iter().find(|p| (p.0, p.1) == (k, seed)) {
                let mut line = String::new();
                protocol::write_release(&release, &mut line);
                assert_eq!(fnv1a(line.as_bytes()), digest, "q{k} seed {seed}");
            }
        }
        let on_workers = rayon::worker_tasks() - before;
        if rayon::current_num_threads() > 1 {
            assert_eq!(
                on_workers, 0,
                "48 q{k} F+ releases ran {on_workers} chunks on pool workers"
            );
        }
    }
}
