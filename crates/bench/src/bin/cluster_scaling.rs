//! Compile-time scaling of the cluster-strategy search: the retained
//! `O(ℓ³)` reference greedy versus the optimized incremental search, as
//! the workload size `ℓ` grows.
//!
//! Workloads are random mixtures of 2- and 3-way marginals over a 20-bit
//! domain (deterministic seed), so the merge rounds are skewed — the case
//! the incremental best-partner cache and the chunked-dynamic rayon shim
//! are built for. Every timed pair is also checked to produce the
//! identical clustering.
//!
//! Usage: `cargo run -p dp-bench --release --bin cluster_scaling`.

use dp_bench::write_jsonl;
use dp_core::cluster::{greedy_cluster, greedy_cluster_reference, CentroidSearch};
use dp_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One measured point of the scaling experiment.
#[derive(Debug, Clone, Serialize)]
struct ScalingPoint {
    /// Workload size ℓ (number of marginals).
    ell: usize,
    /// `reference` (naive rescan) or `optimized` (incremental + parallel;
    /// run under `taskset -c 0` for single-core timings).
    method: String,
    /// Wall-clock seconds for one cold search.
    seconds: f64,
    /// The clustering objective reached (identical across methods).
    objective: f64,
}

/// A deterministic random workload of `ell` distinct 2-/3-way marginals
/// over `d` bits.
fn random_workload(d: usize, ell: usize, rng: &mut StdRng) -> Workload {
    let mut seen = std::collections::HashSet::new();
    let mut masks = Vec::with_capacity(ell);
    while masks.len() < ell {
        let weight = 2 + rng.gen_range(0usize..2);
        let mut mask = 0u64;
        while mask.count_ones() < weight as u32 {
            mask |= 1u64 << rng.gen_range(0usize..d);
        }
        if seen.insert(mask) {
            masks.push(AttrMask(mask));
        }
    }
    Workload::new(d, masks).expect("random masks are in-domain and distinct")
}

fn main() {
    let d = 20;
    let mut rng = StdRng::seed_from_u64(20130402);
    let mut rows: Vec<ScalingPoint> = Vec::new();

    println!("== cluster search compile time (s), d = {d} ==");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "ell", "reference", "optimized", "speedup"
    );
    for ell in [50usize, 100, 200, 400, 800] {
        let w = random_workload(d, ell, &mut rng);

        let t0 = Instant::now();
        let reference = greedy_cluster_reference(&w, CentroidSearch::Union);
        let t_ref = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let fast = greedy_cluster(&w);
        let t_fast = t0.elapsed().as_secs_f64();

        assert_eq!(reference, fast, "optimized diverged from reference");

        println!(
            "{ell:>6} {t_ref:>12.4} {t_fast:>12.4} {:>8.1}x",
            t_ref / t_fast.max(1e-12)
        );
        for (method, seconds) in [("reference", t_ref), ("optimized", t_fast)] {
            rows.push(ScalingPoint {
                ell,
                method: method.to_string(),
                seconds,
                objective: reference.objective(),
            });
        }
    }

    match write_jsonl("cluster_scaling.jsonl", &rows) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
