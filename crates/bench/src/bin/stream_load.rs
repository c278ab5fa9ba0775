//! Streaming-session benchmark: O(Δ) ingest+re-release against the full
//! rebind+re-release baseline, across domain sizes 2^12..2^20.
//!
//! Usage: `cargo run -p dp-bench --release --bin stream_load [-- --smoke]`
//!
//! The measured loop models the continual-release scenario: records arrive
//! one at a time and the session must stay current (queryable at any
//! moment), with one noisy release drawn per epoch of `Δ` updates (`Δ` is
//! per family — see `main` for the rationale). The
//! baseline arm is what today's API forces — apply the delta to the raw
//! counts, then a full `bind()` (re-observe over the whole domain) per
//! update; the streaming arm replaces each rebind with one
//! `Session::ingest` (O(|strategy support|), closed-form marginal
//! /Fourier columns, O(log n) Haar coefficients for ranges). Both arms
//! draw identical releases from identical observations, so the headline
//! speedup isolates exactly the update path that `ingest` replaces.

use dp_core::prelude::*;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// One measured (strategy, domain) configuration.
#[derive(Debug, Clone, Serialize)]
pub struct StreamLoadPoint {
    /// `"marginal"` or `"range"`.
    pub family: String,
    /// Strategy label.
    pub strategy: String,
    /// Domain size `n` (2^bits cells).
    pub domain: usize,
    /// Release epochs measured.
    pub epochs: usize,
    /// Record-level updates applied per epoch (each kept current:
    /// rebind per update in the baseline, ingest per update streaming).
    pub updates_per_epoch: usize,
    /// Baseline wall-clock seconds (rebind per update + releases).
    pub rebind_seconds: f64,
    /// Streaming wall-clock seconds (ingest per update + releases).
    pub ingest_seconds: f64,
    /// Whole-loop speedup: `rebind_seconds / ingest_seconds`.
    pub loop_speedup: f64,
    /// Mean microseconds per update, baseline arm (one full bind).
    pub rebind_update_us: f64,
    /// Mean microseconds per update, streaming arm (one ingest).
    pub ingest_update_us: f64,
    /// Update-path speedup alone (bind vs ingest, releases excluded).
    pub update_speedup: f64,
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

/// A fresh full bind of `counts` under the plan — the baseline update.
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

/// Runs both arms of the continual-release loop for one plan.
fn measure(
    family: &str,
    plan: Arc<Plan>,
    n: usize,
    epochs: usize,
    updates: usize,
) -> StreamLoadPoint {
    // Baseline arm: each record-level delta lands in the raw counts and
    // the session is refreshed with a full bind so it stays queryable.
    let mut next = cell_stream(n, 7);
    let mut counts = vec![0.0; n];
    let mut update_secs = 0.0;
    let rebind_start = Instant::now();
    let mut session = bind_fresh(&plan, &counts);
    for epoch in 0..epochs {
        let t0 = Instant::now();
        for _ in 0..updates {
            counts[next() as usize] += 1.0;
            session = bind_fresh(&plan, &counts);
        }
        update_secs += t0.elapsed().as_secs_f64();
        std::hint::black_box(session.release(epoch as u64).expect("release"));
    }
    let rebind_seconds = rebind_start.elapsed().as_secs_f64();
    let rebind_update_us = update_secs / (epochs * updates) as f64 * 1e6;
    let rebind_counts = counts;

    // Streaming arm: identical deltas, identical release seeds; every
    // rebind becomes one O(Δ) ingest.
    let mut next = cell_stream(n, 7);
    let mut update_secs = 0.0;
    let ingest_start = Instant::now();
    let mut stream = Session::empty(Arc::clone(&plan)).expect("empty stream");
    for epoch in 0..epochs {
        let t0 = Instant::now();
        for _ in 0..updates {
            stream.ingest(next()).expect("ingest");
        }
        update_secs += t0.elapsed().as_secs_f64();
        std::hint::black_box(stream.release(epoch as u64).expect("release"));
    }
    let ingest_seconds = ingest_start.elapsed().as_secs_f64();
    let ingest_update_us = update_secs / (epochs * updates) as f64 * 1e6;
    assert_eq!(
        stream.counts(),
        rebind_counts.as_slice(),
        "both arms saw the same record stream"
    );

    let point = StreamLoadPoint {
        family: family.into(),
        strategy: plan.label(),
        domain: n,
        epochs,
        updates_per_epoch: updates,
        rebind_seconds,
        ingest_seconds,
        loop_speedup: rebind_seconds / ingest_seconds,
        rebind_update_us,
        ingest_update_us,
        update_speedup: rebind_update_us / ingest_update_us,
    };
    println!(
        "{:>8} {:>24} {:>9} {:>11.4} {:>11.4} {:>9.1}x {:>12.2} {:>12.3} {:>9.1}x",
        point.family,
        point.strategy,
        point.domain,
        point.rebind_seconds,
        point.ingest_seconds,
        point.loop_speedup,
        point.rebind_update_us,
        point.ingest_update_us,
        point.update_speedup,
    );
    point
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

/// A range plan over `n` cells with a fixed 128-query dyadic workload
/// (query count held constant so recovery cost does not scale with `n`).
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
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let bits: &[usize] = if smoke { &[12] } else { &[12, 14, 16, 18, 20] };
    let epochs = if smoke { 1 } else { 2 };
    // Δ is per family: a marginal rebind costs O(n·(d+1)) per update, so a
    // small epoch already exposes the gap (and a large one would take hours
    // at 2^20); a range release amortizes an O(n) closed-form recovery, so
    // the realistic regime — thousands of arrivals between releases — is
    // what puts the update path on the critical path.
    let marginal_updates = if smoke { 8 } else { 48 };
    let range_updates = if smoke { 8 } else { 4096 };

    println!(
        "== stream load: Δ record updates/epoch kept current ({marginal_updates} marginal, \
         {range_updates} range), 1 release/epoch ({epochs} epochs) ==",
    );
    println!(
        "{:>8} {:>24} {:>9} {:>11} {:>11} {:>10} {:>12} {:>12} {:>10}",
        "family",
        "strategy",
        "domain",
        "rebind s",
        "ingest s",
        "loop",
        "rebind us",
        "ingest us",
        "update"
    );
    let mut points = Vec::new();
    for &b in bits {
        let n = 1usize << b;
        points.push(measure(
            "marginal",
            marginal_plan(b),
            n,
            epochs,
            marginal_updates,
        ));
        for strategy in [RangeStrategy::Hierarchical, RangeStrategy::Wavelet] {
            points.push(measure(
                "range",
                range_plan(n, strategy),
                n,
                epochs,
                range_updates,
            ));
        }
    }

    // Acceptance: ingest+re-release ≥ 10× rebind+re-release at 2^16+ for
    // at least one marginal and one range strategy.
    if !smoke {
        for family in ["marginal", "range"] {
            let best = points
                .iter()
                .filter(|p| p.family == family && p.domain >= 1 << 16)
                .map(|p| p.loop_speedup)
                .fold(0.0f64, f64::max);
            assert!(
                best >= 10.0,
                "{family}: best loop speedup at 2^16+ is {best:.1}x < 10x"
            );
        }
    }

    match dp_bench::write_jsonl("stream_load.jsonl", &points) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
