//! The performance benchmark of the workspace: every measured row of
//! `BENCH_baseline.json` outside `fig6_runtime` comes from this binary, in
//! one row schema (`section`, `metric`, `value`, `unit`, `nproc`). Its
//! sections, each with the one condition `--check` gates it on:
//!
//! | section | measures | `--check` condition |
//! |---|---|---|
//! | `noising` | cells noised/s, the fused pass vs a per-value reference | floor 0.75× (parity) |
//! | `wht` | effective GB/s, the lane/blocked butterfly vs a scalar one | floor 1.05× |
//! | `release` | `release_batch` releases/s and one release of a Fourier Q2 plan; one NLTCS Q2 release per strategy `F+`/`Q+`/`C+`/`I+`, and its heap allocations, with those of one NLTCS Q1 `F+` release; the diagonal `ObservationOperator::gls_solve` | counts: no chunk of a single release on a pool worker; a single NLTCS Q1 `F+` release (16 targets) and Q2 `F+` release (120 targets) allocate the same number of heap blocks, at most 4 |
//! | `range` | a W+ and an H+ release vs one CG solve; the recovery alone vs `dp_bench::reference`, with minor faults | floor 5× |
//! | `json` | the shim's `f64` writer and `write_release` vs `format!` and a `Value` tree | identity, asserted on every run |
//! | `bind` | a marginal `Session::bind` vs the dense fold, best of 15 alternated; the noisy-vector fold | floor 1.5× |
//! | `plan` | 32 NLTCS Q2 `F+` releases from cold plans vs one cached plan and one batch; one 1024-group budget solve | count: 32 budget solves cold, 1 cached |
//! | `cluster` | the reference greedy cluster search vs the optimized one, per workload size ℓ | floor 2.5× at the largest ℓ |
//! | `stream` | per-update rebind vs `Session::ingest` in a continual-release loop, per family, strategy and domain | floor per strategy and domain: update path 3× in smoke runs, whole loop 10× at 2^16+ in full runs |
//!
//! Every optimized/reference pair is also checked for **identity** on the
//! measured inputs before timing (the same bytes, the same clustering, the
//! same final counts), so this binary doubles as a regression gate on the
//! "not a single output byte changes" contract.
//!
//! Usage:
//! `cargo run -p dp-bench --release --bin hot_path [-- --smoke] [-- --check]`
//!
//! * `--smoke`: small sizes and few repetitions — for CI.
//! * `--check`: exit non-zero if any condition above fails.
//!
//! Marginal plans take the builder's defaults: optimal budgets at pure
//! ε = 1. Rows go to `bench_results/hot_path.jsonl`.

use dp_bench::Dataset;
use dp_core::cluster::{greedy_cluster, greedy_cluster_reference, CentroidSearch};
use dp_core::fourier::{CoefficientSpace, ObservationOperator};
use dp_core::prelude::*;
use dp_core::serde_impls::u64_value;
use dp_linalg::LinearOperator;
use dp_mech::noise::{noise_variance, perturb_observations_into, NoiseParams, NOISE_CHUNK};
use dp_mech::{sample_gaussian, sample_laplace};
use dp_opt::budget::{optimal_group_budgets, GroupSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The system allocator, counting every block it hands out (`alloc`,
/// `alloc_zeroed` and `realloc` calls, all threads) for the release
/// section's allocation count.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic add, which neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most heap blocks a single NLTCS `F+` release may allocate: the
/// answer buffer, the budgets, and the recovery's one list of block
/// slices, with one to spare.
const RELEASE_ALLOCATIONS_MAX: u64 = 4;

/// Heap blocks allocated, process-wide, while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// One measured metric.
#[derive(Debug, Clone, Serialize)]
struct HotPathRow {
    /// Benchmark section (see the module docs).
    section: String,
    /// Metric name within the section.
    metric: String,
    /// Measured value.
    value: f64,
    /// Unit of `value`.
    unit: String,
    /// Cores available to the process.
    nproc: usize,
}

fn row(section: &str, metric: &str, value: f64, unit: &str) -> HotPathRow {
    HotPathRow {
        section: section.into(),
        metric: metric.into(),
        value,
        unit: unit.into(),
        nproc: dp_bench::nproc(),
    }
}

/// Best-of-`reps` wall-clock seconds for `f` (after one warm-up call).
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall-clock seconds for `a` and for `b` (after one warm-up
/// call of each), timed in alternation, so a burst of contention from other
/// processes slows both arms of a ratio rather than only the one timed
/// during it.
fn time_best_pair<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// The pure-DP level of the Laplace noising and range benchmarks.
const LAPLACE: PrivacyLevel = PrivacyLevel::Pure { epsilon: 1.0 };

/// The approximate-DP level of the Gaussian noising benchmark.
const GAUSSIAN: PrivacyLevel = PrivacyLevel::Approx {
    epsilon: 1.0,
    delta: 1e-6,
};

/// Laplace noise at budget `η`: scale `1/η` (Theorem 2.1).
fn laplace_draw(rng: &mut StdRng, eta: f64) -> f64 {
    sample_laplace(rng, 1.0 / eta)
}

/// Gaussian noise at budget `η`: variance `2 ln(2/δ)/η²` (Theorem 2.2).
fn gaussian_draw(rng: &mut StdRng, eta: f64) -> f64 {
    sample_gaussian(rng, noise_variance(GAUSSIAN, eta).sqrt())
}

/// The pre-optimization perturbation, preserved as the reference: clone the
/// observations, then per value gather the budget, re-derive the
/// sampler's parameter, and draw one sample with `draw`. Chunk seeding is
/// identical to the engine's, so outputs must match the fused path
/// byte-for-byte.
fn perturb_reference<D: Fn(&mut StdRng, f64) -> f64>(
    observations: &[f64],
    row_groups: &[u32],
    group_budgets: &[f64],
    draw: D,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut noisy = observations.to_vec();
    let chunks = noisy.len().div_ceil(NOISE_CHUNK).max(1);
    let seeds: Vec<u64> = (0..chunks).map(|_| rng.gen::<u64>()).collect();
    for (c, chunk) in noisy.chunks_mut(NOISE_CHUNK).enumerate() {
        let mut sub = StdRng::seed_from_u64(seeds[c]);
        let base = c * NOISE_CHUNK;
        for (i, v) in chunk.iter_mut().enumerate() {
            let eta = group_budgets[row_groups[base + i] as usize];
            if eta > 0.0 {
                *v += draw(&mut sub, eta);
            } else {
                *v = 0.0;
            }
        }
    }
    noisy
}

/// The pre-lane scalar WHT butterfly, preserved as the reference.
fn fwht_scalar_reference(data: &mut [f64]) {
    let n = data.len();
    let mut h = 1;
    while h < n {
        for chunk in data.chunks_exact_mut(h * 2) {
            let (a, b) = chunk.split_at_mut(h);
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                let u = *x;
                let v = *y;
                *x = u + v;
                *y = u - v;
            }
        }
        h *= 2;
    }
}

/// Measures fused vs reference noising for one mechanism; returns the
/// throughput ratio and appends rows.
fn bench_noising<D: Fn(&mut StdRng, f64) -> f64 + Copy>(
    label: &str,
    privacy: PrivacyLevel,
    draw: D,
    cells: usize,
    reps: usize,
    rows: &mut Vec<HotPathRow>,
) -> f64 {
    // Long consecutive runs of equal group id, as marginal strategies
    // produce; group 3 is withheld (zero budget).
    let groups = 64usize;
    let run = cells.div_ceil(groups);
    let row_groups: Vec<u32> = (0..cells).map(|i| (i / run) as u32).collect();
    let group_budgets: Vec<f64> = (0..groups)
        .map(|g| if g == 3 { 0.0 } else { 0.2 + 0.03 * g as f64 })
        .collect();
    let observations: Vec<f64> = (0..cells).map(|i| (i % 97) as f64).collect();
    let params = NoiseParams::compute(privacy, &group_budgets);

    // Byte-identity gate before any timing.
    let mut fused = Vec::new();
    let mut seeds = Vec::new();
    let mut rng = StdRng::seed_from_u64(42);
    perturb_observations_into(
        &observations,
        &row_groups,
        &params,
        &mut rng,
        &mut fused,
        &mut seeds,
    );
    let mut rng = StdRng::seed_from_u64(42);
    let reference = perturb_reference(&observations, &row_groups, &group_budgets, draw, &mut rng);
    assert_eq!(
        fused, reference,
        "{label}: fused noising diverged from the per-value reference"
    );

    let (mut ref_seed, mut fused_seed) = (0u64, 1u64 << 32);
    let (t_ref, t_fused) = time_best_pair(
        reps,
        || {
            ref_seed += 1;
            let mut rng = StdRng::seed_from_u64(ref_seed);
            let out = perturb_reference(&observations, &row_groups, &group_budgets, draw, &mut rng);
            std::hint::black_box(&out);
        },
        || {
            fused_seed += 1;
            let mut rng = StdRng::seed_from_u64(fused_seed);
            perturb_observations_into(
                &observations,
                &row_groups,
                &params,
                &mut rng,
                &mut fused,
                &mut seeds,
            );
            std::hint::black_box(&fused);
        },
    );

    let cells_per_sec = cells as f64 / t_fused;
    let ratio = t_ref / t_fused;
    println!(
        "{label:>22}: fused {:.2}M cells/s, reference {:.2}M cells/s, speedup {ratio:.2}×",
        cells_per_sec / 1e6,
        cells as f64 / t_ref / 1e6,
    );
    rows.push(row(
        "noising",
        &format!("{label}_fused"),
        cells_per_sec,
        "cells/s",
    ));
    rows.push(row(
        "noising",
        &format!("{label}_reference"),
        cells as f64 / t_ref,
        "cells/s",
    ));
    rows.push(row("noising", &format!("{label}_speedup"), ratio, "x"));
    ratio
}

/// Minor page faults of the whole process so far, all threads, from
/// `getrusage(RUSAGE_SELF)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn minor_faults() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`
    /// counters of which `ru_minflt` is the fifth.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the platform
    // layout, and `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then(|| usage.counters[4] as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn minor_faults() -> Option<u64> {
    None
}

/// Mean minor faults per call of `f` over `calls` calls.
fn faults_per_call<F: FnMut()>(calls: u64, mut f: F) -> Option<f64> {
    let before = minor_faults()?;
    for _ in 0..calls {
        f();
    }
    Some((minor_faults()? - before) as f64 / calls as f64)
}

/// Times one `Session::release` of a range plan against one
/// conjugate-gradient GLS solve on the same operator, weights and (noisy)
/// observations — the recovery every range release ran before the closed
/// form. Then times the recovery alone (library kernels on reused buffers
/// against `dp_bench::reference`, after checking they give the same bits)
/// and counts minor faults per release and per reference recovery.
/// Returns `cg / release`.
fn bench_range(strategy: RangeStrategy, n: usize, reps: usize, rows: &mut Vec<HotPathRow>) -> f64 {
    let ranges: Vec<(usize, usize)> = (0..256)
        .map(|k| {
            let lo = (k * 7919) % n;
            (lo, lo + 1 + (k * 104_729) % (n - lo))
        })
        .collect();
    let workload = RangeWorkload::new(n, ranges).expect("ranges are in bounds");
    let plan = PlanBuilder::ranges(workload.clone(), strategy)
        .budgeting(Budgeting::Optimal)
        .privacy(LAPLACE)
        .compile()
        .expect("range plan compiles");
    let hist: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
    let budgets = plan.solution().group_budgets.clone();
    let label = plan.label().to_string();
    let session = Session::bind_histogram(Arc::new(plan), &hist).expect("histogram matches");

    // The CG arm's inputs: the plan's row groups and inverse-variance
    // weights, and the bound observations plus Laplace noise at the
    // group budgets.
    let operator = dp_core::range::strategy_operator(strategy, n);
    let tree = dp_linalg::HierarchicalOperator::new(n);
    let row_groups: Vec<usize> = (0..operator.rows())
        .map(|i| match strategy {
            RangeStrategy::Hierarchical => tree.row_level(i),
            _ => dp_linalg::haar_level(i),
        })
        .collect();
    let weights: Vec<f64> = row_groups
        .iter()
        .map(|&g| 1.0 / noise_variance(LAPLACE, budgets[g]))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let noisy: Vec<f64> = session
        .observations()
        .iter()
        .zip(&row_groups)
        .map(|(&z, &g)| z + laplace_draw(&mut rng, budgets[g]))
        .collect();

    let mut seed = 0u64;
    let t_release = time_best(reps, || {
        seed += 1;
        std::hint::black_box(session.release(seed).expect("release succeeds"));
    });
    let t_cg = time_best(reps, || {
        let x = dp_linalg::gls_normal_solve(
            &operator,
            &weights,
            &noisy,
            dp_linalg::CgOptions::default(),
        )
        .expect("CG converges");
        std::hint::black_box(x);
    });
    let ratio = t_cg / t_release;
    println!(
        "{label:>22}: release {:.3} ms, CG solve alone {:.3} ms, ratio {ratio:.1}×",
        t_release * 1e3,
        t_cg * 1e3,
    );
    let key = match strategy {
        RangeStrategy::Hierarchical => "tree_optimal",
        _ => "wavelet_optimal",
    };
    rows.push(row(
        "range",
        &format!("{key}_release"),
        t_release * 1e3,
        "ms",
    ));
    rows.push(row("range", &format!("{key}_cg_solve"), t_cg * 1e3, "ms"));
    rows.push(row("range", &format!("{key}_cg_over_release"), ratio, "x"));

    let groups: Vec<u32> = row_groups.iter().map(|&g| g as u32).collect();
    let group_weights: Vec<f64> = budgets
        .iter()
        .map(|&eta| 1.0 / noise_variance(LAPLACE, eta))
        .collect();
    let (mut x, mut half) = (Vec::new(), Vec::new());
    let mut recover = || {
        match strategy {
            RangeStrategy::Hierarchical => {
                dp_core::range::tree_gls(n, &noisy, &groups, &group_weights, &mut x, &mut half)
            }
            _ => {
                x.clear();
                x.extend_from_slice(&noisy);
                dp_linalg::haar_inverse(&mut x, &mut half);
            }
        }
        workload.true_answers(&x).expect("domain matches")
    };
    let reference = || match strategy {
        RangeStrategy::Hierarchical => {
            dp_bench::reference::tree_recovery(&workload, &noisy, &groups, &group_weights)
        }
        _ => dp_bench::reference::wavelet_recovery(&workload, &noisy),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&recover()),
        bits(&reference()),
        "{label} recovery diverged from the reference"
    );
    let (t_recover, t_reference) = time_best_pair(
        reps,
        || {
            std::hint::black_box(recover());
        },
        || {
            std::hint::black_box(reference());
        },
    );
    let calls = 32;
    let release_faults = faults_per_call(calls, || {
        seed += 1;
        std::hint::black_box(session.release(seed).expect("release succeeds"));
    });
    let reference_faults = faults_per_call(calls, || {
        std::hint::black_box(reference());
    });
    println!(
        "{label:>22}: recovery {:.0} µs, reference {:.0} µs; minor faults per release {}, \
         per reference recovery {}",
        t_recover * 1e6,
        t_reference * 1e6,
        release_faults.map_or("n/a".into(), |f| format!("{f:.1}")),
        reference_faults.map_or("n/a".into(), |f| format!("{f:.1}")),
    );
    rows.push(row(
        "range",
        &format!("{key}_recovery_us"),
        t_recover * 1e6,
        "us",
    ));
    rows.push(row(
        "range",
        &format!("{key}_recovery_reference_us"),
        t_reference * 1e6,
        "us",
    ));
    if let (Some(release), Some(reference)) = (release_faults, reference_faults) {
        rows.push(row(
            "range",
            &format!("{key}_release_minor_faults"),
            release,
            "count",
        ));
        rows.push(row(
            "range",
            &format!("{key}_recovery_reference_minor_faults"),
            reference,
            "count",
        ));
    }
    ratio
}

/// Nanoseconds per number for `serde_json::write_f64` and for
/// `format!("{x}")` over `count` seeded Laplace-noised counts (a Q2 `F+`
/// reply holds about 650), after checking that both write the same bytes.
fn bench_f64_write(count: usize, reps: usize, rows: &mut Vec<HotPathRow>) {
    use std::fmt::Write as _;
    let mut rng = StdRng::seed_from_u64(23);
    let numbers: Vec<f64> = (0..count)
        .map(|i| ((i * 37) % 2000) as f64 + laplace_draw(&mut rng, 0.05))
        .collect();
    for &x in &numbers {
        let mut out = String::new();
        serde_json::write_f64(x, &mut out);
        assert_eq!(out, format!("{x}"), "the f64 writer diverged from Display");
    }

    let passes = 200;
    let mut out = String::new();
    let t_write = time_best(reps, || {
        for _ in 0..passes {
            out.clear();
            for &x in std::hint::black_box(&numbers) {
                serde_json::write_f64(x, &mut out);
            }
            std::hint::black_box(&out);
        }
    });
    let t_format = time_best(reps, || {
        for _ in 0..passes {
            out.clear();
            for &x in std::hint::black_box(&numbers) {
                write!(out, "{x}").expect("writing to a String cannot fail");
            }
            std::hint::black_box(&out);
        }
    });
    let per_number = |t: f64| t * 1e9 / (passes * count) as f64;
    let ratio = t_format / t_write;
    println!(
        "{:>22}: writer {:.1} ns, format! {:.1} ns, speedup {ratio:.2}×",
        "f64",
        per_number(t_write),
        per_number(t_format),
    );
    rows.push(row("json", "f64_write_ns", per_number(t_write), "ns"));
    rows.push(row("json", "f64_format_ns", per_number(t_format), "ns"));
    rows.push(row("json", "f64_write_speedup", ratio, "x"));
}

/// One release document as a `Value` tree, the way the service built
/// every reply before it wrote them directly: preserved as the reference
/// for `dp_service::protocol::write_release`.
fn release_tree_reference(release: &SessionRelease) -> Value {
    let mut fields = vec![
        ("seed".into(), u64_value(release.seed)),
        ("label".into(), Value::String(release.label.to_string())),
        (
            "achieved_epsilon".into(),
            Value::Number(release.achieved_epsilon),
        ),
        (
            "predicted_variance".into(),
            Value::Number(release.predicted_variance),
        ),
        (
            "group_budgets".into(),
            release.group_budgets.serialize_value(),
        ),
    ];
    match &release.answers {
        Answers::Marginals(marginals) => {
            let tables = marginals.iter().map(|(mask, cells)| {
                Value::Object(vec![
                    ("attributes".into(), mask.serialize_value()),
                    ("cells".into(), cells.serialize_value()),
                ])
            });
            fields.push(("answers".into(), Value::Array(tables.collect())));
        }
        Answers::Ranges(counts) => fields.push(("ranges".into(), counts.serialize_value())),
    }
    Value::Object(fields)
}

/// Microseconds per release document for `write_release` against building
/// the reference tree and rendering it, each into a fresh `String`, after
/// checking that both write the same bytes for every release.
fn bench_release_write(releases: &[SessionRelease], reps: usize, rows: &mut Vec<HotPathRow>) {
    use dp_service::protocol::write_release;
    let written = |r: &SessionRelease| {
        let mut out = String::new();
        write_release(r, &mut out);
        out
    };
    let tree = |r: &SessionRelease| serde_json::value_to_string(&release_tree_reference(r));
    for r in releases {
        assert_eq!(written(r), tree(r), "write_release diverged from the tree");
    }
    let t_write = time_best(reps, || {
        for r in std::hint::black_box(releases) {
            std::hint::black_box(written(r));
        }
    });
    let t_tree = time_best(reps, || {
        for r in std::hint::black_box(releases) {
            std::hint::black_box(tree(r));
        }
    });
    let per_release = |t: f64| t * 1e6 / releases.len() as f64;
    let ratio = t_tree / t_write;
    println!(
        "{:>22}: writer {:.1} µs, tree + render {:.1} µs, speedup {ratio:.2}×",
        "release document",
        per_release(t_write),
        per_release(t_tree),
    );
    rows.push(row("json", "release_write_us", per_release(t_write), "us"));
    rows.push(row("json", "release_tree_us", per_release(t_tree), "us"));
    rows.push(row("json", "release_write_speedup", ratio, "x"));
}

/// The dense marginal bind, kept as the reference: copy the table's
/// counts, fold them down to each target marginal with
/// `table::marginalize` (fanned out across cores), then fill the Fourier
/// coefficients from the folds through the targets' block map, the
/// inverse `ObservationOperator::coefficients` the bind itself runs.
fn fourier_bind_reference(counts: &[f64], targets: &ObservationOperator) -> Vec<f64> {
    use rayon::prelude::*;
    let counts = counts.to_vec();
    let d = targets.domain_bits();
    let folds: Vec<Vec<f64>> = targets
        .masks()
        .par_iter()
        .map(|&alpha| dp_core::table::marginalize(&counts, d, alpha))
        .collect();
    let mut coeffs = vec![0.0; targets.num_coeffs()];
    let mut scratch = Vec::new();
    for (i, cells) in folds.iter().enumerate() {
        for (p, c) in targets.coefficients(i, cells, &mut scratch) {
            coeffs[p] = c;
        }
    }
    coeffs
}

/// Alternated repetitions of the bind pair, in smoke and full runs alike:
/// at the smoke runs' 3, one pinned run in ten read below the gate's floor.
const BIND_REPS: usize = 15;

/// Times `Session::bind` of the NLTCS Q2 `F+` plan against the dense-fold
/// reference, after checking that both observe the same bytes. Returns
/// `reference / bind`.
fn bench_bind(nltcs: &Dataset, reps: usize, rows: &mut Vec<HotPathRow>) -> f64 {
    let workload = Workload::all_k_way(&nltcs.schema, 2).expect("Q2 builds");
    let plan = Arc::new(
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
            .for_schema(&nltcs.schema)
            .compile()
            .expect("plan compiles"),
    );
    let table = &nltcs.table;
    let space = CoefficientSpace::from_marginals(table.dims(), workload.marginals());
    let targets = ObservationOperator::new(&space, workload.marginals()).expect("targets lie in F");
    let bound = Session::bind(Arc::clone(&plan), table).expect("table matches plan");
    let reference = fourier_bind_reference(table.counts(), &targets);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(bound.observations()),
        bits(&reference),
        "the occupied-cell bind diverged from the dense fold"
    );

    let (t_bind, t_ref) = time_best_pair(
        reps,
        || {
            std::hint::black_box(Session::bind(Arc::clone(&plan), table).expect("bind succeeds"));
        },
        || {
            std::hint::black_box(fourier_bind_reference(table.counts(), &targets));
        },
    );
    let ratio = t_ref / t_bind;
    println!(
        "{:>22}: bind {:.2} ms, dense fold {:.2} ms, speedup {ratio:.1}×",
        "nltcs Q2 F+",
        t_bind * 1e3,
        t_ref * 1e3,
    );
    rows.push(row("bind", "nltcs_q2_fourier_ms", t_bind * 1e3, "ms"));
    rows.push(row(
        "bind",
        "nltcs_q2_fourier_dense_fold_ms",
        t_ref * 1e3,
        "ms",
    ));
    rows.push(row("bind", "nltcs_q2_fourier_speedup", ratio, "x"));
    ratio
}

/// Microseconds and heap allocations of one `Session::release` of NLTCS
/// Q2 under each of the four marginal strategies, optimal budgets, and the
/// allocations of one NLTCS Q1 `F+` release; each count is taken after
/// warm-up releases have filled the scratch pools. Returns the `F+` counts
/// (Q1, Q2).
fn bench_nltcs_releases(nltcs: &Dataset, reps: usize, rows: &mut Vec<HotPathRow>) -> (u64, u64) {
    let mut fourier = (0, 0);
    for (k, strategy) in [
        (1, StrategyKind::Fourier),
        (2, StrategyKind::Fourier),
        (2, StrategyKind::Workload),
        (2, StrategyKind::Cluster),
        (2, StrategyKind::Identity),
    ] {
        let workload = Workload::all_k_way(&nltcs.schema, k).expect("Qk builds");
        let plan = PlanBuilder::marginals(workload, strategy)
            .for_schema(&nltcs.schema)
            .compile()
            .expect("plan compiles");
        let session = Session::bind(Arc::new(plan), &nltcs.table).expect("table matches plan");
        let mut seed = 0u64;
        let t = time_best(reps, || {
            seed += 1;
            std::hint::black_box(session.release(seed).expect("release succeeds"));
        });
        let allocs = allocations(|| session.release(seed + 1).expect("release succeeds"));
        let label = session.plan().label();
        println!(
            "{:>22}: {:.1} µs, {allocs} allocations",
            format!("nltcs Q{k} {label}"),
            t * 1e6
        );
        if k == 2 {
            rows.push(row(
                "release",
                &format!("nltcs_q2_{label}_us"),
                t * 1e6,
                "us",
            ));
        }
        rows.push(row(
            "release",
            &format!("nltcs_q{k}_{label}_allocations"),
            allocs as f64,
            "count",
        ));
        match (k, strategy) {
            (1, StrategyKind::Fourier) => fourier.0 = allocs,
            (2, StrategyKind::Fourier) => fourier.1 = allocs,
            _ => {}
        }
    }
    fourier
}

/// Microseconds of one diagonal `ObservationOperator::gls_solve` for all
/// 2-way marginals over `d` binary attributes.
fn bench_gls_solve(d: usize, reps: usize, rows: &mut Vec<HotPathRow>) {
    let schema = Schema::binary(d).expect("binary schema builds");
    let workload = Workload::all_k_way(&schema, 2).expect("Q2 builds");
    let space = CoefficientSpace::from_marginals(d, workload.marginals());
    let op = ObservationOperator::new(&space, workload.marginals()).expect("targets lie in F");
    let mut rng = StdRng::seed_from_u64(2);
    let cells: Vec<f64> = (0..op.num_cells()).map(|_| rng.gen::<f64>()).collect();
    let weights = vec![1.0; workload.len()];
    let t = time_best(reps, || {
        std::hint::black_box(op.gls_solve(&cells, &weights).expect("shapes match"));
    });
    println!("{:>22}: {:.1} µs", format!("gls_solve d = {d}"), t * 1e6);
    rows.push(row("release", &format!("gls_solve_d{d}_us"), t * 1e6, "us"));
}

/// Microseconds of one `table::marginalize` of a noisy `2^d`-cell vector
/// (the fold every `I` recovery runs) down to a 3-way marginal.
fn bench_fold(d: usize, reps: usize, rows: &mut Vec<HotPathRow>) {
    let mut rng = StdRng::seed_from_u64(5);
    let noisy: Vec<f64> = (0..1usize << d)
        .map(|i| (i % 7) as f64 + laplace_draw(&mut rng, 1.0))
        .collect();
    let alpha = AttrMask::from_bits(&[0, d / 2, d - 1]);
    let t = time_best(reps, || {
        std::hint::black_box(dp_core::table::marginalize(&noisy, d, alpha));
    });
    println!("{:>22}: {:.1} µs", format!("noisy fold d = {d}"), t * 1e6);
    rows.push(row("bind", &format!("noisy_fold_d{d}_us"), t * 1e6, "us"));
}

/// Times `k` NLTCS Q2 `F+` releases served from cold plans (compile, budget
/// solve and bind per release) against one plan out of a fresh `PlanCache`
/// asked `k` times, bound once and released as one batch, and counts the
/// Step-2 budget solves of one pass of each; then times one closed-form
/// solve over 1024 groups. Returns the solve counts (cold, cached).
fn bench_plan(nltcs: &Dataset, k: usize, reps: usize, rows: &mut Vec<HotPathRow>) -> (u64, u64) {
    let workload = Workload::all_k_way(&nltcs.schema, 2).expect("Q2 builds");
    let build = || {
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier).for_schema(&nltcs.schema)
    };
    let seeds: Vec<u64> = (0..k as u64).collect();
    let cold = || {
        for &seed in &seeds {
            let plan = build().compile().expect("plan compiles");
            let session = Session::bind(Arc::new(plan), &nltcs.table).expect("table matches");
            std::hint::black_box(session.release(seed).expect("release succeeds"));
        }
    };
    let cached = || {
        let cache = PlanCache::new();
        let mut plan = cache.get_or_compile(build()).expect("plan compiles");
        for _ in 1..k {
            plan = cache.get_or_compile(build()).expect("cache hit");
        }
        let session = Session::bind(plan, &nltcs.table).expect("table matches");
        std::hint::black_box(session.release_batch(&seeds).expect("batch succeeds"));
    };
    let solves = |arm: &dyn Fn()| {
        let before = dp_opt::budget::solve_count();
        arm();
        dp_opt::budget::solve_count() - before
    };
    let (cold_solves, cached_solves) = (solves(&cold), solves(&cached));
    let (t_cold, t_cached) = time_best_pair(reps, cold, cached);
    println!(
        "{:>22}: cold {:.1} ms ({cold_solves} budget solves), cached {:.1} ms \
         ({cached_solves}), speedup {:.1}×",
        format!("{k} releases"),
        t_cold * 1e3,
        t_cached * 1e3,
        t_cold / t_cached,
    );
    rows.push(row("plan", "cold_ms", t_cold * 1e3, "ms"));
    rows.push(row("plan", "cached_ms", t_cached * 1e3, "ms"));
    rows.push(row("plan", "cached_speedup", t_cold / t_cached, "x"));
    rows.push(row(
        "plan",
        "cold_budget_solves",
        cold_solves as f64,
        "count",
    ));
    rows.push(row(
        "plan",
        "cached_budget_solves",
        cached_solves as f64,
        "count",
    ));

    let groups: Vec<GroupSpec> = (0..1024)
        .map(|i| GroupSpec {
            c: 1.0 + (i % 5) as f64 * 0.1,
            s: 1.0 + (i % 17) as f64,
        })
        .collect();
    let t_solve = time_best(100 * reps, || {
        std::hint::black_box(optimal_group_budgets(&groups, 1.0).expect("groups are valid"));
    });
    println!("{:>22}: {:.1} µs", "1024-group solve", t_solve * 1e6);
    rows.push(row("plan", "budget_solve_1024_us", t_solve * 1e6, "us"));
    (cold_solves, cached_solves)
}

/// A deterministic random workload of `ell` distinct 2-/3-way marginals
/// over `d` bits, so the merge rounds of a cluster search are skewed.
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

/// Times the retained `O(ℓ³)` reference greedy cluster search against the
/// optimized one (incremental, pruned, fanned out) on random workloads of
/// each size `ℓ` over 20 bits, after checking both find the identical
/// clustering. Returns `reference / optimized` at the last `ℓ`.
fn bench_cluster(ells: &[usize], reps: usize, rows: &mut Vec<HotPathRow>) -> f64 {
    let mut rng = StdRng::seed_from_u64(20130402);
    let mut ratio = f64::NAN;
    for &ell in ells {
        let workload = random_workload(20, ell, &mut rng);
        assert_eq!(
            greedy_cluster_reference(&workload, CentroidSearch::Union),
            greedy_cluster(&workload),
            "ℓ = {ell}: the optimized search diverged from the reference"
        );
        let (t_ref, t_opt) = time_best_pair(
            reps,
            || {
                std::hint::black_box(greedy_cluster_reference(&workload, CentroidSearch::Union));
            },
            || {
                std::hint::black_box(greedy_cluster(&workload));
            },
        );
        ratio = t_ref / t_opt;
        println!(
            "{:>22}: optimized {:.2} ms, reference {:.2} ms, speedup {ratio:.1}×",
            format!("ℓ = {ell}"),
            t_opt * 1e3,
            t_ref * 1e3,
        );
        rows.push(row(
            "cluster",
            &format!("ell{ell}_optimized_ms"),
            t_opt * 1e3,
            "ms",
        ));
        rows.push(row(
            "cluster",
            &format!("ell{ell}_reference_ms"),
            t_ref * 1e3,
            "ms",
        ));
        rows.push(row("cluster", &format!("ell{ell}_speedup"), ratio, "x"));
    }
    ratio
}

/// A deterministic cell stream (splitmix64) over `n` cells.
fn cell_stream(n: usize, mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % n as u64
    }
}

/// A fresh full bind of `counts` under the plan: the rebind arm's update.
fn bind_fresh(plan: &Arc<Plan>, counts: &[f64]) -> Session {
    match plan.spec() {
        WorkloadSpec::Marginals { .. } => Session::bind(
            Arc::clone(plan),
            &ContingencyTable::from_counts(counts.to_vec()),
        )
        .expect("bind over a fresh table"),
        WorkloadSpec::Ranges { .. } => {
            Session::bind_histogram(Arc::clone(plan), counts).expect("bind over a fresh histogram")
        }
    }
}

/// Runs both arms of a continual-release loop over `n` cells: records
/// arrive one at a time and the session stays current, with one release
/// per epoch of `updates` arrivals. The rebind arm applies each arrival to
/// the raw counts and binds afresh; the ingest arm makes it one
/// `Session::ingest`. Both see the same record stream and release seeds,
/// and must end on the same counts. Returns the speedups of the whole loop
/// and of the update path alone (releases excluded), `rebind / ingest`.
fn bench_stream(
    family: &str,
    plan: Arc<Plan>,
    n: usize,
    epochs: usize,
    updates: usize,
    rows: &mut Vec<HotPathRow>,
) -> (f64, f64) {
    let mut next = cell_stream(n, 7);
    let mut counts = vec![0.0; n];
    let mut rebind_updates = 0.0;
    let start = Instant::now();
    let mut session = bind_fresh(&plan, &counts);
    for epoch in 0..epochs {
        let t0 = Instant::now();
        for _ in 0..updates {
            counts[next() as usize] += 1.0;
            session = bind_fresh(&plan, &counts);
        }
        rebind_updates += t0.elapsed().as_secs_f64();
        std::hint::black_box(session.release(epoch as u64).expect("release"));
    }
    let t_rebind = start.elapsed().as_secs_f64();

    let mut next = cell_stream(n, 7);
    let mut ingest_updates = 0.0;
    let start = Instant::now();
    let mut stream = Session::empty(Arc::clone(&plan)).expect("empty stream");
    for epoch in 0..epochs {
        let t0 = Instant::now();
        for _ in 0..updates {
            stream.ingest(next()).expect("ingest");
        }
        ingest_updates += t0.elapsed().as_secs_f64();
        std::hint::black_box(stream.release(epoch as u64).expect("release"));
    }
    let t_ingest = start.elapsed().as_secs_f64();
    assert_eq!(
        stream.counts(),
        counts.as_slice(),
        "both arms saw the same record stream"
    );

    let per_update = |t: f64| t / (epochs * updates) as f64 * 1e6;
    let ratio = t_rebind / t_ingest;
    let update_ratio = rebind_updates / ingest_updates;
    let key = format!("{family}_{}_2^{}", plan.label(), n.trailing_zeros());
    println!(
        "{key:>22}: rebind {:.2} ms ({:.2} µs/update), ingest {:.3} ms ({:.3} µs/update), \
         loop speedup {ratio:.1}×, update speedup {update_ratio:.1}×",
        t_rebind * 1e3,
        per_update(rebind_updates),
        t_ingest * 1e3,
        per_update(ingest_updates),
    );
    rows.push(row("stream", &format!("{key}_loop_speedup"), ratio, "x"));
    rows.push(row(
        "stream",
        &format!("{key}_rebind_update_us"),
        per_update(rebind_updates),
        "us",
    ));
    rows.push(row(
        "stream",
        &format!("{key}_ingest_update_us"),
        per_update(ingest_updates),
        "us",
    ));
    rows.push(row(
        "stream",
        &format!("{key}_update_speedup"),
        update_ratio,
        "x",
    ));
    (ratio, update_ratio)
}

/// A marginal Fourier Q1 plan over `bits` binary attributes.
fn marginal_plan(bits: usize) -> Arc<Plan> {
    let schema = Schema::binary(bits).expect("binary schema");
    let workload = Workload::all_k_way(&schema, 1).expect("Q1 workload");
    Arc::new(
        PlanBuilder::marginals(workload, StrategyKind::Fourier)
            .compile()
            .expect("marginal plan compiles"),
    )
}

/// A range plan over `n` cells with a fixed 128-query workload, so the
/// recovery cost does not grow with the query count.
fn range_plan(n: usize, strategy: RangeStrategy) -> Arc<Plan> {
    let mut next = cell_stream(n, 3);
    let ranges: Vec<(usize, usize)> = (0..128)
        .map(|_| {
            let lo = next() as usize;
            let hi = (lo + 1 + next() as usize % (n / 4)).min(n);
            (lo, hi)
        })
        .collect();
    let workload = RangeWorkload::new(n, ranges).expect("range workload");
    Arc::new(
        PlanBuilder::ranges(workload, strategy)
            .compile()
            .expect("range plan compiles"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let mut rows: Vec<HotPathRow> = Vec::new();
    let nltcs = Dataset::nltcs();

    // ── 1. Cells-noised per second ─────────────────────────────────────
    let cells = if smoke { 1 << 16 } else { 1 << 21 };
    let reps = if smoke { 3 } else { 5 };
    println!("== noising ({cells} cells, best of {reps}) ==");
    let laplace_ratio = bench_noising("laplace", LAPLACE, laplace_draw, cells, reps, &mut rows);
    let gaussian_ratio = bench_noising("gaussian", GAUSSIAN, gaussian_draw, cells, reps, &mut rows);

    // ── 2. WHT effective bandwidth ─────────────────────────────────────
    let n: usize = if smoke { 1 << 20 } else { 1 << 22 };
    let d = n.trailing_zeros() as f64;
    let wht_reps = 30;
    println!("== wht (n = 2^{d}, best of {wht_reps}) ==");
    let x0: Vec<f64> = (0..n).map(|i| ((i * 31) % 257) as f64 - 128.0).collect();
    let mut opt = x0.clone();
    dp_linalg::fwht(&mut opt);
    let mut reference = x0.clone();
    fwht_scalar_reference(&mut reference);
    assert_eq!(opt, reference, "fwht diverged from the scalar reference");

    let (t_opt, t_ref) = time_best_pair(
        wht_reps,
        || {
            opt.copy_from_slice(&x0);
            dp_linalg::fwht(&mut opt);
            std::hint::black_box(&opt);
        },
        || {
            reference.copy_from_slice(&x0);
            fwht_scalar_reference(&mut reference);
            std::hint::black_box(&reference);
        },
    );
    // Effective traffic: 8 bytes × n elements × log2(n) butterfly stages.
    let bytes = 8.0 * n as f64 * d;
    let wht_ratio = t_ref / t_opt;
    println!(
        "{:>22}: optimized {:.2} GB/s, reference {:.2} GB/s, speedup {wht_ratio:.2}×",
        "butterfly",
        bytes / t_opt / 1e9,
        bytes / t_ref / 1e9,
    );
    rows.push(row("wht", "optimized", bytes / t_opt / 1e9, "GB/s"));
    rows.push(row("wht", "reference", bytes / t_ref / 1e9, "GB/s"));
    rows.push(row("wht", "speedup", wht_ratio, "x"));

    // ── 3. End-to-end releases per second ──────────────────────────────
    let (schema_bits, batch) = if smoke { (10usize, 8usize) } else { (16, 64) };
    let schema = Schema::binary(schema_bits).expect("binary schema builds");
    let workload = Workload::all_k_way(&schema, 2).expect("Q2 builds");
    let plan = PlanBuilder::marginals(workload, StrategyKind::Fourier)
        .for_schema(&schema)
        .compile()
        .expect("plan compiles");
    let counts: Vec<f64> = (0..1usize << schema_bits)
        .map(|i| (i % 11) as f64)
        .collect();
    let table = ContingencyTable::from_counts(counts);
    let session = Session::bind(Arc::new(plan), &table).expect("table matches plan");
    let seeds: Vec<u64> = (0..batch as u64).collect();
    let t_batch = time_best(reps, || {
        let out = session.release_batch(&seeds).expect("batch succeeds");
        std::hint::black_box(&out);
    });
    let releases_per_sec = batch as f64 / t_batch;
    println!("== release (d = {schema_bits}, Fourier Q2, batch of {batch}) ==");
    println!("{:>22}: {releases_per_sec:.1} releases/s", "release_batch");
    rows.push(row(
        "release",
        "fourier_q2_batch",
        releases_per_sec,
        "releases/s",
    ));
    // One release of the same plan: its recovery (one four-cell block WHT
    // per target) is below dp-core's grain-size floor, so it must run on
    // the calling thread. Timed over many single releases, since each
    // takes only about ten microseconds.
    let single_reps = 100 * reps;
    let before = rayon::worker_tasks();
    let t_single = time_best(single_reps, || {
        std::hint::black_box(session.release(7).expect("release succeeds"));
    });
    let single_on_workers = rayon::worker_tasks() - before;
    println!(
        "{:>22}: {:.1} µs (best of {single_reps}), {single_on_workers} chunks on pool workers",
        "release",
        t_single * 1e6
    );
    rows.push(row("release", "fourier_q2_single_us", t_single * 1e6, "us"));
    bench_gls_solve(schema_bits, single_reps, &mut rows);
    let release_allocations = bench_nltcs_releases(&nltcs, reps, &mut rows);

    // ── 4. Range release vs one CG solve ───────────────────────────────
    let n = 1usize << 16;
    println!("== range (n = 2^16, 256 ranges, best of {reps}) ==");
    let range_ratios = [
        bench_range(RangeStrategy::Wavelet, n, reps, &mut rows),
        bench_range(RangeStrategy::Hierarchical, n, reps, &mut rows),
    ];

    // ── 5. JSON f64 writer vs format! ──────────────────────────────────
    let numbers = 650;
    println!("== json ({numbers} noisy counts, best of {reps}) ==");
    bench_f64_write(numbers, reps, &mut rows);
    let documents: Vec<u64> = (0..64).collect();
    let releases = session.release_batch(&documents).expect("batch succeeds");
    println!("== json (d = {schema_bits} Fourier Q2 release, 64 seeds, best of {reps}) ==");
    bench_release_write(&releases, reps, &mut rows);

    // ── 6. Marginal bind vs the dense fold ─────────────────────────────
    println!("== bind (NLTCS Q2 F+, best of {BIND_REPS}) ==");
    let bind_ratio = bench_bind(&nltcs, BIND_REPS, &mut rows);
    bench_fold(if smoke { 12 } else { 20 }, reps, &mut rows);

    // ── 7. Cold plans vs one cached plan ───────────────────────────────
    let k = 32;
    println!("== plan (NLTCS Q2 F+, {k} releases, best of {reps}) ==");
    let (cold_solves, cached_solves) = bench_plan(&nltcs, k, reps, &mut rows);

    // ── 8. Cluster search: reference vs optimized ──────────────────────
    let ells: &[usize] = if smoke {
        &[50, 100, 200]
    } else {
        &[50, 100, 200, 400, 800]
    };
    println!("== cluster (random 2-/3-way workloads over 20 bits, best of {reps}) ==");
    let cluster_ratio = bench_cluster(ells, reps, &mut rows);

    // ── 9. Continual release: rebind vs ingest per update ──────────────
    // Arrivals per release are per family: a marginal rebind costs
    // O(n·(d+1)), so a small epoch already shows the gap (and a large one
    // would take hours at 2^20); a range release amortizes an O(n)
    // closed-form recovery, so the realistic regime, thousands of
    // arrivals between releases, is what puts the update path on the
    // critical path.
    let (bits, epochs): (&[usize], usize) = if smoke {
        (&[12], 1)
    } else {
        (&[12, 14, 16, 18, 20], 2)
    };
    let (marginal_updates, range_updates) = if smoke { (8, 8) } else { (48, 4096) };
    println!(
        "== stream ({marginal_updates} marginal, {range_updates} range arrivals per release, \
         {epochs} releases) =="
    );
    // Smoke epochs are too short for the update path to dominate a
    // loop, so smoke runs gate the update speedup and full runs the loop's.
    let mut stream_ratios = Vec::new();
    for &b in bits {
        let n = 1usize << b;
        let plans = [
            ("marginal", marginal_plan(b), marginal_updates),
            (
                "range",
                range_plan(n, RangeStrategy::Hierarchical),
                range_updates,
            ),
            (
                "range",
                range_plan(n, RangeStrategy::Wavelet),
                range_updates,
            ),
        ];
        for (family, plan, updates) in plans {
            let label = format!("{family} {} at 2^{b}", plan.label());
            let (looped, update) = bench_stream(family, plan, n, epochs, updates, &mut rows);
            stream_ratios.push((label, n, if smoke { update } else { looped }));
        }
    }

    match dp_bench::write_jsonl("hot_path.jsonl", &rows) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }

    if check {
        // Conservative thresholds — the point is catching real regressions
        // (a path falling back to per-value dispatch, or the WHT losing its
        // cache blocking), not flaking on noisy single-core CI runners.
        //
        // The noising gates are *parity* gates, not speedup gates: both
        // mechanisms are math-bound (ln/sqrt/cos dominate each sample) and
        // LLVM already hoists the loop-invariant parameter derivation out of
        // the per-value reference, so the fused pass measures ~1.0× on one
        // core. Its payoff is structural — zero per-release allocation and
        // per-run batched sampling — and the byte-identity asserts above are
        // the hard guarantee. A drop below 0.75× means someone reintroduced
        // real per-value work (the observed contention jitter on a shared
        // single-core runner is ±15%).
        //
        // The WHT gate is a genuine speedup floor, timed at 2^20 even in
        // smoke runs: at 2^16 the 512 KiB array fits in cache, blocking
        // barely shows, and the gate flaked (0.75–1.45× on two cores).
        // Best of 10 alternated timings at 2^20 did not separate the two
        // either: the kernel read down to 1.05× pinned to one core, and a
        // copy whose `fwht` is the scalar reference read up to 1.05–1.06×.
        // Best of 30 does: in ten alternated smoke runs each, the lane
        // kernel with cache blocking read 1.37–2.62× on two cores and
        // 1.26–1.68× pinned, and the scalar copy 0.97–1.01× and
        // 0.97–1.02×, failing every run. (2^21 separated no better.)
        //
        // The range gate is a floor on the closed-form recovery: a whole
        // W+ or H+ release must beat one CG solve of the same normal
        // equations by 5× (measured 10–34× on two cores). A release that
        // fell back to CG would measure below 1×.
        //
        // The bind gate is a floor on the occupied-cell sum. Its dense
        // fold uses the library's `table::marginalize`, which folds
        // without copying its input. Timed as best of 3 alternated reps,
        // one pinned smoke run in ten read 1.44×; best of 15 (`BIND_REPS`)
        // read 1.69–2.12× on two cores and 2.11–2.61× pinned, passing ten
        // alternated smoke runs each, while a copy whose bind always takes
        // the fold read 0.88–0.99× and 0.97–1.01×, failing every run.
        //
        // The single-release gates are counts, not timings. A Q2 `F+`
        // release is below the grain-size floor, so no chunk of it may run
        // on a pool worker (waking one costs more than the recovery). And
        // a release writes its answers into one buffer, so its heap
        // allocations do not grow with the number of targets: 3 for NLTCS
        // Q1 and Q2 `F+` alike (the answers, the budgets, the list of
        // block slices), where one vector per target made them 21 and 125.
        // A copy that allocates one vector per target in the recovery read
        // 19 and 123 and failed every run.
        //
        // The plan gate is a count too: `k` cold plans solve the budgets
        // `k` times, and one cached plan serves the whole batch from one
        // solve (a cache that compiles every request reads `k` for both).
        //
        // The cluster gate is a floor on the optimized search at the
        // largest ℓ of the run (200 in smoke runs): 6.5–9.8× the reference
        // on two cores and 6.6–11.5× pinned to one core (ten alternated
        // smoke runs each, with the search's grain floor). A
        // `greedy_cluster` that runs the reference search reads 0.98–1.05×
        // and fails (six runs).
        //
        // The stream gate is a floor per strategy and domain. Smoke epochs
        // (8 arrivals per release at 2^12) leave the loop dominated by its
        // one release, so smoke runs gate the update path alone: ingest
        // measured 9.8–17.9× (W+), 32–60× (F+) and 73–122× (H+) faster
        // than a rebind over the same ten-and-ten runs. Full runs keep the
        // continual-release acceptance: the whole loop 10× faster at 2^16
        // and above. An ingest arm that also rebinds per update reads
        // 0.90–1.04× and fails (six runs).
        let wht_floor = 1.05;
        let range_floor = 5.0;
        let bind_floor = 1.5;
        let cluster_floor = 2.5;
        let (stream_gate, stream_floor, stream_from) = if smoke {
            ("update", 3.0, 1 << 12)
        } else {
            ("loop", 10.0, 1 << 16)
        };
        let mut failures = Vec::new();
        let mut floor = |what: &str, ratio: f64, floor: f64| {
            if ratio < floor {
                failures.push(format!("{what} {ratio:.2}× < {floor}×"));
            }
        };
        floor("laplace noising ratio", laplace_ratio, 0.75);
        floor("gaussian noising ratio", gaussian_ratio, 0.75);
        floor("WHT speedup", wht_ratio, wht_floor);
        for (label, ratio) in ["W+", "H+"].iter().zip(range_ratios) {
            floor(
                &format!("{label} release over one CG solve"),
                ratio,
                range_floor,
            );
        }
        floor(
            "NLTCS Q2 F+ bind over the dense fold",
            bind_ratio,
            bind_floor,
        );
        let largest = ells[ells.len() - 1];
        floor(
            &format!("cluster search speedup at ℓ = {largest}"),
            cluster_ratio,
            cluster_floor,
        );
        for (label, n, ratio) in &stream_ratios {
            if *n >= stream_from {
                floor(
                    &format!("{label}: stream {stream_gate} speedup"),
                    *ratio,
                    stream_floor,
                );
            }
        }
        let (q1_allocations, q2_allocations) = release_allocations;
        if q1_allocations != q2_allocations || q2_allocations > RELEASE_ALLOCATIONS_MAX {
            failures.push(format!(
                "single NLTCS F+ releases allocated {q1_allocations} heap blocks (Q1, 16 \
                 targets) and {q2_allocations} (Q2, 120 targets): expected the same count, \
                 at most {RELEASE_ALLOCATIONS_MAX}, whatever the number of targets"
            ));
        }
        if single_on_workers > 0 {
            failures.push(format!(
                "{single_on_workers} chunks of single Q2 F+ releases ran on pool workers \
                 (expected 0: the release is below the grain-size floor)"
            ));
        }
        if (cold_solves, cached_solves) != (k as u64, 1) {
            failures.push(format!(
                "{cold_solves} budget solves for {k} cold plans and {cached_solves} for one \
                 cached plan (expected {k} and 1)"
            ));
        }
        for failure in &failures {
            eprintln!("CHECK FAILED: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("all hot-path thresholds passed");
    }
}
