//! Criterion micro-benchmarks for the performance-critical kernels:
//! the fast Walsh–Hadamard transform, marginalization folds, the
//! closed-form budget optimizer, the diagonal GLS solve, the greedy
//! clustering search, and one end-to-end release per strategy.
//!
//! Run with `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_core::fourier::{CoefficientSpace, ObservationOperator};
use dp_core::prelude::*;
use dp_opt::budget::{optimal_group_budgets, GroupSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn bench_wht(c: &mut Criterion) {
    let mut group = c.benchmark_group("wht");
    for d in [10usize, 14, 18] {
        let n = 1usize << d;
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                dp_linalg::fwht_normalized(&mut v);
                black_box(v)
            })
        });
    }
    group.finish();
}

fn bench_marginalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("marginalize");
    for d in [12usize, 16, 20] {
        let n = 1usize << d;
        let counts: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let table = ContingencyTable::from_counts(counts);
        let alpha = AttrMask::from_bits(&[0, d / 2, d - 1]);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(table.marginal(alpha)))
        });
    }
    group.finish();
}

fn bench_budget_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("budgets");
    for g in [8usize, 64, 1024] {
        let specs: Vec<GroupSpec> = (0..g)
            .map(|i| GroupSpec {
                c: 1.0 + (i % 5) as f64 * 0.1,
                s: 1.0 + (i % 17) as f64,
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, _| {
            b.iter(|| black_box(optimal_group_budgets(&specs, 1.0).unwrap()))
        });
    }
    group.finish();
}

fn bench_gls_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("gls_solve");
    for d in [10usize, 14, 16] {
        let schema = Schema::binary(d).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        let space = CoefficientSpace::from_marginals(d, w.marginals());
        let op = ObservationOperator::new(&space, w.marginals()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let cells: Vec<f64> = (0..op.num_cells()).map(|_| rng.gen::<f64>()).collect();
        let weights = vec![1.0; w.len()];
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(op.gls_solve(&cells, &weights).unwrap()))
        });
    }
    group.finish();
}

fn bench_cluster(c: &mut Criterion) {
    // Optimized (incremental + pruned + parallel) vs the retained naive
    // reference, same clustering out of both.
    let mut group = c.benchmark_group("greedy_cluster");
    for n_attr in [8usize, 12, 16] {
        let schema = Schema::binary(n_attr).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        group.bench_with_input(BenchmarkId::new("optimized", n_attr), &n_attr, |b, _| {
            b.iter(|| black_box(dp_core::cluster::greedy_cluster(&w)))
        });
        group.bench_with_input(BenchmarkId::new("reference", n_attr), &n_attr, |b, _| {
            b.iter(|| {
                black_box(dp_core::cluster::greedy_cluster_reference(
                    &w,
                    dp_core::cluster::CentroidSearch::Union,
                ))
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("release_nltcs_q2");
    group.sample_size(10);
    let schema = dp_data::nltcs_schema();
    let records = dp_data::synthesize_nltcs(21_576, 7);
    let table = ContingencyTable::from_records(&schema, &records).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    for strategy in [
        StrategyKind::Fourier,
        StrategyKind::Workload,
        StrategyKind::Cluster,
        StrategyKind::Identity,
    ] {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, _| {
                let mut seed = 3u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    black_box(session.release(seed).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wht,
    bench_marginalize,
    bench_budget_optimizer,
    bench_gls_solve,
    bench_cluster,
    bench_end_to_end
);
criterion_main!(benches);
