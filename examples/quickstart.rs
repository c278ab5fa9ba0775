//! Quickstart: release all 2-way marginals of a small synthetic dataset
//! with ε-differential privacy through the two-phase plan/session API —
//! compile a data-independent plan once, bind the data, draw a
//! deterministic batch of releases.
//!
//! Run with `cargo run --release --example quickstart`.

use datacube_dp::prelude::*;
use dp_core::marginal::aggregate;
use std::sync::Arc;

fn main() {
    // A toy relation: 6 binary attributes, 1000 correlated records.
    let schema = Schema::binary(6).expect("6 binary attributes is a valid schema");
    let records: Vec<Vec<usize>> = (0..1000)
        .map(|i| {
            let base = (i * 7919) % 64;
            (0..6).map(|b| (base >> b) & 1).collect()
        })
        .collect();
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit the schema");

    // The query workload: every 2-way marginal (15 contingency tables).
    let workload = Workload::all_k_way(&schema, 2).expect("2-way marginals exist over 6 attrs");
    println!(
        "workload: {} marginals, {} cells, |F| = {} Fourier coefficients",
        workload.len(),
        workload.total_cells(),
        workload.fourier_support().len()
    );

    // Phase 1 — no data in sight: compile the Fourier strategy with the
    // paper's optimal non-uniform budgets at ε = 0.5. The plan carries the
    // solved budgets, the achieved ε and per-marginal variance predictions.
    let plan = PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
        .budgeting(Budgeting::Optimal)
        .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
        .for_schema(&schema)
        .compile()
        .expect("planning succeeds on a valid workload");
    println!(
        "plan {}: achieved ε = {:.6} (requested 0.5), predicted total Var = {:.1}",
        plan.label(),
        plan.achieved_epsilon(),
        plan.predicted_variance()
    );

    // Phase 2: bind the table (computes the exact observations once) and
    // draw releases — each one deterministic in its seed.
    let session = Session::bind(Arc::new(plan), &table).expect("table matches the plan's domain");
    let release = session.release(2013).expect("release succeeds");
    let answers = release.answers.marginals().expect("marginal plan");

    // Compare against the exact answers.
    let exact = workload.true_answers(&table);
    let rel = average_relative_error(answers, &exact).expect("aligned answers");
    println!("average relative error: {rel:.4}");

    // Show one released marginal next to the truth. The answers are one
    // buffer; `iter` views each marginal as `(mask, cells)`.
    let views: Vec<(AttrMask, &[f64])> = answers.iter().collect();
    let (mask, cells) = views[0];
    println!("\nmarginal over attributes {mask} (noisy vs exact):");
    let (_, truths) = exact.iter().next().expect("the workload is not empty");
    for (noisy, truth) in cells.iter().zip(truths) {
        println!("  {noisy:>10.2}  vs  {truth:>8.1}");
    }

    // The released marginals are mutually consistent: aggregating any two
    // to their common sub-marginal agrees.
    let ((mask_a, cells_a), (mask_b, cells_b)) = (views[0], views[1]);
    let common = mask_a.intersect(mask_b);
    let a = aggregate(mask_a, cells_a, common).expect("intersection is dominated");
    let b = aggregate(mask_b, cells_b, common).expect("intersection is dominated");
    let gap: f64 = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    println!("\nconsistency check: max disagreement between overlapping marginals = {gap:.2e}");

    // Batches reuse the one solved plan and are reproducible seed-by-seed.
    let batch = session.release_batch(&[1, 2, 3]).expect("batch succeeds");
    let again = session.release(2).expect("release succeeds");
    assert_eq!(
        batch[1].answers.marginals().unwrap().cells(),
        again.answers.marginals().unwrap().cells(),
        "same (plan, data, seed) ⇒ same bytes, batched or not"
    );
    println!(
        "\nbatch of {} releases from one plan; seed 2 reproduces bit-for-bit",
        batch.len()
    );
}
