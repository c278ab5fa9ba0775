//! The framework beyond marginals: range-count queries over a 1-D domain
//! with the hierarchical [14] and wavelet [23] strategies through the same
//! [`PlanBuilder`]/[`Session`] API as the marginal workloads — including
//! (ε,δ) Gaussian plans, and matrix-free planning that scales far past the
//! old dense-oracle limit.
//!
//! Run with `cargo run --release --example range_queries`.

use datacube_dp::prelude::*;
use std::sync::Arc;

fn main() {
    let n = 256;
    // A bursty histogram (e.g. event counts per time slot).
    let hist: Vec<f64> = (0..n)
        .map(|i| {
            let burst = if (64..96).contains(&i) { 40.0 } else { 0.0 };
            5.0 + burst + ((i * 31) % 7) as f64
        })
        .collect();

    let workload = RangeWorkload::all_prefixes(n).expect("power-of-two domain");
    println!(
        "domain n = {n}, workload: {} prefix ranges, ε = 1\n",
        workload.ranges().len()
    );

    println!(
        "{:>12} {:>10} {:>16} {:>16}",
        "strategy", "budgets", "total Var(y)", "mean |error|"
    );
    let exact = workload.true_answers(&hist).expect("lengths match");
    let trials = 40u64;
    for strategy in [
        RangeStrategy::Identity,
        RangeStrategy::Hierarchical,
        RangeStrategy::Wavelet,
    ] {
        for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
            if strategy == RangeStrategy::Identity && budgeting == Budgeting::Optimal {
                continue; // single group: identical to uniform
            }
            let plan = PlanBuilder::ranges(workload.clone(), strategy)
                .budgeting(budgeting)
                .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
                .compile()
                .expect("planning succeeds");
            let session =
                Session::bind_histogram(Arc::new(plan), &hist).expect("histogram matches");
            let seeds: Vec<u64> = (0..trials).map(|t| 99 + t).collect();
            let mae: f64 = session
                .release_batch(&seeds)
                .expect("release succeeds")
                .into_iter()
                .map(|r| {
                    let y = r.answers.into_ranges().expect("range plan");
                    y.iter()
                        .zip(&exact)
                        .map(|(a, b)| (a - b).abs())
                        .sum::<f64>()
                        / (y.len() as f64 * trials as f64)
                })
                .sum();
            println!(
                "{:>12} {:>10} {:>16.1} {:>16.2}",
                session.plan().label(),
                if budgeting == Budgeting::Optimal {
                    "optimal"
                } else {
                    "uniform"
                },
                session.plan().query_variances().iter().sum::<f64>(),
                mae
            );
        }
    }

    // The same plans compile under (ε,δ)-DP — the range path is no longer
    // Laplace-only.
    let gaussian = PlanBuilder::ranges(workload.clone(), RangeStrategy::Hierarchical)
        .privacy(PrivacyLevel::Approx {
            epsilon: 1.0,
            delta: 1e-6,
        })
        .compile()
        .expect("Gaussian range plans compile");
    println!(
        "\n(ε,δ) tree plan: achieved ε = {:.6} at δ = 1e-6, total Var = {:.1}",
        gaussian.achieved_epsilon(),
        gaussian.query_variances().iter().sum::<f64>()
    );

    // Matrix-free planning has no dense 2^d matrix anywhere: a 2^16 domain
    // (4-billion-entry Q·S products under the old dense planner) compiles
    // in milliseconds.
    let big = 1usize << 16;
    let big_plan = PlanBuilder::ranges(
        RangeWorkload::sliding_windows(big, 1024).expect("valid windows"),
        RangeStrategy::Wavelet,
    )
    .compile()
    .expect("matrix-free planning scales");
    println!(
        "matrix-free: planned {} sliding-window queries over n = {big} ({} budget groups)",
        big_plan.spec().num_queries(),
        big_plan.solution().group_budgets.len()
    );

    println!(
        "\nOptimal budgets shift ε toward the tree/wavelet levels that the \
         recovery leans on most — the same Step-2 optimization that powers \
         the marginal experiments, now planned without materializing Q or S."
    );
}
