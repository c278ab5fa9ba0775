//! Experiment E5 — reproduces **Table 1** of the paper: expected L1 noise
//! per marginal for releasing all k-way marginals under ε-DP, comparing
//! measured Monte-Carlo noise of each strategy against the analytic rows.
//!
//! The shape to reproduce: Fourier with non-uniform budgets improves on
//! Fourier with uniform budgets (by ~√(2^k)); base counts scale as
//! 2^{(d+k)/2} (best at large k); direct marginals as 2^k·C(d,k); and all
//! sit above the Ω(√C(d,k)) lower bound.
//!
//! Usage: `cargo run -p dp-bench --release --bin table1_bounds`.

use dp_core::analysis::*;
use dp_core::prelude::*;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    d: usize,
    k: usize,
    measured_base_counts: f64,
    measured_marginals_uniform: f64,
    measured_fourier_uniform: f64,
    measured_fourier_nonuniform: f64,
    bound_base_counts: f64,
    bound_marginals: f64,
    bound_fourier_uniform: f64,
    bound_fourier_nonuniform: f64,
    lower_bound: f64,
}

fn measured_noise(
    table: &ContingencyTable,
    workload: &Workload,
    strategy: StrategyKind,
    budgeting: Budgeting,
    trials: usize,
    seed: u64,
) -> f64 {
    let exact = workload.true_answers(table);
    let plan = PlanBuilder::marginals(workload.clone(), strategy)
        .budgeting(budgeting)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
        .compile()
        .expect("planning succeeds");
    let session = Session::bind(Arc::new(plan), table).expect("table matches");
    let seeds: Vec<u64> = (0..trials as u64).map(|t| seed + t).collect();
    let total: f64 = session
        .release_batch(&seeds)
        .expect("release succeeds")
        .into_iter()
        .map(|r| {
            let answers = r.answers.into_marginals().expect("marginal plan");
            let l1: f64 = answers
                .iter()
                .zip(&exact)
                .map(|(a, e)| a.l1_distance(e).expect("aligned"))
                .sum();
            l1 / workload.len() as f64
        })
        .sum();
    total / trials as f64
}

fn main() {
    let eps = 1.0;
    let mut rows = Vec::new();
    println!("== Table 1: expected L1 noise per k-way marginal (ε = 1) ==");
    println!(
        "{:>3} {:>2} | {:>12} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} {:>12} {:>10}",
        "d",
        "k",
        "meas I",
        "meas Q",
        "meas F",
        "meas F+",
        "bnd I",
        "bnd Q",
        "bnd F",
        "bnd F+",
        "lower"
    );
    for (d, ks) in [(12usize, vec![1usize, 2, 3]), (16, vec![1, 2])] {
        let schema = Schema::binary(d).unwrap();
        // A fixed skewed table; noise is data-independent so shape is all
        // that matters.
        let mut counts = vec![0.0; 1 << d];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ((i * 2654435761) % 17) as f64;
        }
        let table = ContingencyTable::from_counts(counts);
        for &k in &ks {
            let w = Workload::all_k_way(&schema, k).unwrap();
            let trials = 5;
            let row = Row {
                d,
                k,
                measured_base_counts: measured_noise(
                    &table,
                    &w,
                    StrategyKind::Identity,
                    Budgeting::Uniform,
                    trials,
                    1,
                ),
                measured_marginals_uniform: measured_noise(
                    &table,
                    &w,
                    StrategyKind::Workload,
                    Budgeting::Uniform,
                    trials,
                    2,
                ),
                measured_fourier_uniform: measured_noise(
                    &table,
                    &w,
                    StrategyKind::Fourier,
                    Budgeting::Uniform,
                    trials,
                    3,
                ),
                measured_fourier_nonuniform: measured_noise(
                    &table,
                    &w,
                    StrategyKind::Fourier,
                    Budgeting::Optimal,
                    trials,
                    4,
                ),
                bound_base_counts: bound_base_counts(d, k, eps),
                bound_marginals: bound_marginals(d, k, eps),
                bound_fourier_uniform: exact_fourier_uniform_noise(d, k, eps)
                    * 2f64.powi(k as i32 - 1),
                bound_fourier_nonuniform: exact_fourier_nonuniform_noise(d, k, eps)
                    * 2f64.powi(k as i32 - 1),
                lower_bound: bound_lower(d, k, eps),
            };
            println!(
                "{:>3} {:>2} | {:>12.1} {:>12.1} {:>12.1} {:>12.1} | {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10.1}",
                row.d,
                row.k,
                row.measured_base_counts,
                row.measured_marginals_uniform,
                row.measured_fourier_uniform,
                row.measured_fourier_nonuniform,
                row.bound_base_counts,
                row.bound_marginals,
                row.bound_fourier_uniform,
                row.bound_fourier_nonuniform,
                row.lower_bound,
            );
            rows.push(row);
        }
    }
    match dp_bench::write_jsonl("table1_bounds.jsonl", &rows) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
