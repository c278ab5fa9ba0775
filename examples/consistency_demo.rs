//! Consistency repair (Sections 3.3 / 4.3): take mutually *inconsistent*
//! noisy marginals and project them onto the consistent set under L2
//! (weighted least squares in Fourier space), L1, and L∞, then verify the
//! paper's guarantee that consistency at most doubles the error.
//!
//! Run with `cargo run --release --example consistency_demo`.

use dp_core::consistency::{
    consistency_error_pair, is_consistent, make_consistent, ConsistencyNorm,
};
use dp_core::fourier::{CoefficientSpace, ObservationOperator};
use dp_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let d = 5;
    let schema = Schema::binary(d).expect("valid schema");
    let mut rng = StdRng::seed_from_u64(123);
    let counts: Vec<f64> = (0..1 << d).map(|_| rng.gen_range(0.0..30.0)).collect();
    let table = ContingencyTable::from_counts(counts);
    let workload = Workload::all_k_way(&schema, 2).expect("2-way workload");
    let exact = workload.true_answers(&table);

    // Simulate the "noise marginals independently" strategy without any
    // recovery step: the result is inconsistent.
    let mut noisy = exact.clone();
    for v in noisy.cells_mut() {
        *v += rng.gen_range(-6.0..6.0);
    }
    println!(
        "noisy marginals consistent? {}",
        is_consistent(&noisy, 1e-6)
    );

    // L2 repair via the Fourier-space GLS (diagonal normal equations).
    let space = CoefficientSpace::from_marginals(d, workload.marginals());
    let op = ObservationOperator::new(&space, workload.marginals()).expect("support covers");
    let coeffs = op
        .gls_solve(noisy.cells(), &vec![1.0; workload.len()])
        .expect("solvable");
    let l2 = op.apply(&coeffs);

    // L1 and L∞ repairs via the simplex LP over the same m coefficients.
    let l1 = make_consistent(d, &noisy, ConsistencyNorm::L1).expect("LP solvable");
    let linf = make_consistent(d, &noisy, ConsistencyNorm::LInf).expect("LP solvable");

    println!(
        "\n{:>8} {:>12} {:>14} {:>14} {:>12}",
        "norm", "consistent?", "err(noisy)", "err(repaired)", "ratio"
    );
    for (name, repaired, norm) in [
        ("L2", &l2, ConsistencyNorm::L1),
        ("L1", &l1, ConsistencyNorm::L1),
        ("L∞", &linf, ConsistencyNorm::LInf),
    ] {
        let (before, after) = consistency_error_pair(&exact, &noisy, repaired, norm);
        println!(
            "{:>8} {:>12} {:>14.2} {:>14.2} {:>12.3}",
            name,
            is_consistent(repaired, 1e-6),
            before,
            after,
            after / before
        );
    }
    println!("\nPer Section 3.3, every ratio above is guaranteed ≤ 2 — and in");
    println!("practice the projection usually *reduces* the error (ratio < 1),");
    println!("because averaging overlapping marginals cancels independent noise.");

    // Contrast: releases served through the plan/session API recover in a
    // single coefficient space, so they are consistent *by construction* —
    // no repair step needed.
    let plan = PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
        .compile()
        .expect("planning succeeds");
    let session = Session::bind(Arc::new(plan), &table).expect("table matches");
    let release = session.release(123).expect("release succeeds");
    println!(
        "\nplan/session release consistent by construction? {}",
        is_consistent(release.answers.marginals().expect("marginal plan"), 1e-6)
    );
}
