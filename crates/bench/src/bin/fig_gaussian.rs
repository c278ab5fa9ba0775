//! Supplementary experiment — the paper states (Section 5, "Algorithms
//! Used") that "results for (ε,δ)-differential privacy are similar, and are
//! omitted". This harness produces those omitted results on NLTCS: the same
//! method comparison under the Gaussian mechanism at δ = 1e-6.
//!
//! Usage: `cargo run -p dp-bench --release --bin fig_gaussian`.

use dp_bench::{write_jsonl, WorkloadFamily};
use dp_core::metrics::average_relative_error;
use dp_core::prelude::*;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    workload: String,
    method: String,
    epsilon: f64,
    delta: f64,
    relative_error: f64,
}

fn main() {
    let delta = 1e-6;
    let schema = dp_data::nltcs_schema();
    let records = dp_data::synthesize_nltcs(dp_data::nltcs::NLTCS_RECORDS, 20130402);
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit schema");

    let mut rows = Vec::new();
    for family in [
        WorkloadFamily::K(1),
        WorkloadFamily::KStar(1),
        WorkloadFamily::K(2),
    ] {
        let workload = family.build(&schema);
        let exact = workload.true_answers(&table);
        println!(
            "\n== workload {} under ({{ε}}, {delta})-DP ==",
            family.label()
        );
        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "eps", "F", "F+", "C", "C+", "Q", "Q+"
        );
        for &eps in &[0.1f64, 0.5, 1.0] {
            print!("{eps:>5.1}");
            for (strategy, budgeting) in [
                (StrategyKind::Fourier, Budgeting::Uniform),
                (StrategyKind::Fourier, Budgeting::Optimal),
                (StrategyKind::Cluster, Budgeting::Uniform),
                (StrategyKind::Cluster, Budgeting::Optimal),
                (StrategyKind::Workload, Budgeting::Uniform),
                (StrategyKind::Workload, Budgeting::Optimal),
            ] {
                let plan = PlanBuilder::marginals(workload.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(PrivacyLevel::Approx {
                        epsilon: eps,
                        delta,
                    })
                    .compile()
                    .expect("planning succeeds");
                let session = Session::bind(Arc::new(plan), &table).expect("table matches");
                let trials = 6u64;
                let base = 31 + eps.to_bits() % 97;
                let seeds: Vec<u64> = (0..trials).map(|t| base + t).collect();
                let err: f64 = session
                    .release_batch(&seeds)
                    .expect("release succeeds")
                    .into_iter()
                    .map(|r| {
                        let answers = r.answers.into_marginals().expect("marginal plan");
                        average_relative_error(&answers, &exact).expect("aligned") / trials as f64
                    })
                    .sum();
                print!(" {err:>10.4}");
                rows.push(Row {
                    workload: family.label(),
                    method: session.plan().label(),
                    epsilon: eps,
                    delta,
                    relative_error: err,
                });
            }
            println!();
        }
    }
    match write_jsonl("fig_gaussian.jsonl", &rows) {
        Ok(p) => eprintln!("\nwrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
