//! Release hot-path throughput gauge: cells-noised/sec for the fused
//! perturbation pass versus a per-value reference, WHT effective bandwidth
//! for the lane/blocked kernel versus a scalar reference, end-to-end
//! releases/sec through `Session::release_batch` and the time of one
//! `Session::release` of the same plan, whole range releases
//! (closed-form GLS recovery) against one conjugate-gradient solve of the
//! same normal equations, the W+ and H+ recovery alone against the
//! allocating kernels of `dp_bench::reference` (with minor page faults per
//! release from `getrusage`), the JSON shim's `f64` writer against
//! `format!("{x}")` on noisy counts, and a marginal `Session::bind`
//! (observations summed from occupied cells) against the dense fold.
//!
//! Every optimized/reference pair is also checked for **byte identity** on
//! the measured inputs before timing, so this binary doubles as a
//! regression gate on the "not a single output byte changes" contract.
//!
//! Usage:
//! `cargo run -p dp-bench --release --bin hot_path [-- --smoke] [-- --check]`
//!
//! * `--smoke`: small sizes and few repetitions — for CI.
//! * `--check`: exit non-zero if a throughput ratio falls below its
//!   (deliberately conservative, noise-tolerant) threshold, or if a single
//!   release ran any chunk on a rayon pool worker.
//!
//! Every row carries `nproc`, the core count it was measured on.

use dp_core::fourier::CoefficientSpace;
use dp_core::prelude::*;
use dp_core::serde_impls::u64_value;
use dp_linalg::LinearOperator;
use dp_mech::noise::{noise_variance, perturb_observations_into, NoiseParams, NOISE_CHUNK};
use dp_mech::{sample_gaussian, sample_laplace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

/// One measured metric.
#[derive(Debug, Clone, Serialize)]
struct HotPathRow {
    /// Benchmark section: `noising`, `wht`, `release`, `range`, `json` or
    /// `bind`.
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
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
    let label = plan.label();
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
        ("label".into(), Value::String(release.label.clone())),
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
        Answers::Marginals(tables) => fields.push(("answers".into(), tables.serialize_value())),
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
/// coefficients from the folds.
fn fourier_bind_reference(
    counts: &[f64],
    space: &CoefficientSpace,
    targets: &[AttrMask],
) -> Vec<f64> {
    use rayon::prelude::*;
    let counts = counts.to_vec();
    let d = space.domain_bits();
    let folds: Vec<MarginalTable> = targets
        .par_iter()
        .map(|&alpha| MarginalTable::new(alpha, dp_core::table::marginalize(&counts, d, alpha)))
        .collect();
    let mut coeffs = vec![0.0; space.len()];
    let mut scratch = Vec::new();
    for m in &folds {
        space
            .fill_from_marginal_with(&mut coeffs, m, &mut scratch)
            .expect("targets lie in the support");
    }
    coeffs
}

/// Times `Session::bind` of the NLTCS Q2 `F+` plan against the dense-fold
/// reference, after checking that both observe the same bytes. Returns
/// `reference / bind`.
fn bench_bind(reps: usize, rows: &mut Vec<HotPathRow>) -> f64 {
    let nltcs = dp_bench::Dataset::nltcs();
    let workload = Workload::all_k_way(&nltcs.schema, 2).expect("Q2 builds");
    let plan = Arc::new(
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .for_schema(&nltcs.schema)
            .compile()
            .expect("plan compiles"),
    );
    let table = &nltcs.table;
    let space = CoefficientSpace::from_marginals(table.dims(), workload.marginals());
    let bound = Session::bind(Arc::clone(&plan), table).expect("table matches plan");
    let reference = fourier_bind_reference(table.counts(), &space, workload.marginals());
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
            std::hint::black_box(fourier_bind_reference(
                table.counts(),
                &space,
                workload.marginals(),
            ));
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let mut rows: Vec<HotPathRow> = Vec::new();

    // ── 1. Cells-noised per second ─────────────────────────────────────
    let cells = if smoke { 1 << 16 } else { 1 << 21 };
    let reps = if smoke { 3 } else { 5 };
    println!("== noising ({cells} cells, best of {reps}) ==");
    let laplace_ratio = bench_noising("laplace", LAPLACE, laplace_draw, cells, reps, &mut rows);
    let gaussian_ratio = bench_noising("gaussian", GAUSSIAN, gaussian_draw, cells, reps, &mut rows);

    // ── 2. WHT effective bandwidth ─────────────────────────────────────
    let n: usize = if smoke { 1 << 20 } else { 1 << 22 };
    let d = n.trailing_zeros() as f64;
    let wht_reps = 10;
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
        .budgeting(Budgeting::Optimal)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
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
    println!("== bind (NLTCS Q2 F+, best of {reps}) ==");
    let bind_ratio = bench_bind(reps, &mut rows);

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
        // At 2^20, best of 10 alternated timings, the lane kernel with
        // cache blocking reads 1.99–2.69× on two cores (ten runs) and
        // 1.35–1.56× pinned to one core (four runs); a copy whose `fwht`
        // is the scalar reference reads 0.94–1.04× and 0.98–1.05× and
        // fails. 1.05× catches a lost optimization without flaking.
        //
        // The range gate is a floor on the closed-form recovery: a whole
        // W+ or H+ release must beat one CG solve of the same normal
        // equations by 5× (measured 10–34× on two cores). A release that
        // fell back to CG would measure below 1×.
        //
        // The bind gate is a floor on the occupied-cell sum. Its dense
        // fold uses the library's `table::marginalize`, which folds
        // without copying its input, so NLTCS Q2 F+ binds 1.6–2.3× faster
        // than the fold at smoke size (20 runs on two cores, alternated
        // timing) and 1.43–2.14× at full size (ten runs). A bind that fell
        // back to the fold measures 0.9–1.0×.
        //
        // The single-release gate is a count, not a timing: a Q2 `F+`
        // release is below the grain-size floor, so no chunk of it may run
        // on a pool worker (waking one costs more than the recovery).
        let wht_floor = 1.05;
        let range_floor = 5.0;
        let bind_floor = 1.5;
        let mut failed = false;
        if gaussian_ratio < 0.75 {
            eprintln!("CHECK FAILED: gaussian noising ratio {gaussian_ratio:.2}× < 0.75×");
            failed = true;
        }
        if laplace_ratio < 0.75 {
            eprintln!("CHECK FAILED: laplace noising ratio {laplace_ratio:.2}× < 0.75×");
            failed = true;
        }
        if wht_ratio < wht_floor {
            eprintln!("CHECK FAILED: WHT speedup {wht_ratio:.2}× < {wht_floor}×");
            failed = true;
        }
        for (label, ratio) in ["W+", "H+"].iter().zip(range_ratios) {
            if ratio < range_floor {
                eprintln!(
                    "CHECK FAILED: {label} release only {ratio:.1}× faster than one CG solve \
                     (< {range_floor}×)"
                );
                failed = true;
            }
        }
        if bind_ratio < bind_floor {
            eprintln!(
                "CHECK FAILED: NLTCS Q2 F+ bind only {bind_ratio:.1}× faster than the dense fold \
                 (< {bind_floor}×)"
            );
            failed = true;
        }
        if single_on_workers > 0 {
            eprintln!(
                "CHECK FAILED: {single_on_workers} chunks of single Q2 F+ releases ran on pool \
                 workers (expected 0: the release is below the grain-size floor)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("all hot-path thresholds passed");
    }
}
