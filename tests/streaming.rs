//! Property tests for streamed [`Session`]s: delta-maintained observations
//! must track a fresh `observe()` within float accumulation across random
//! edit scripts for **every** strategy kind, match it bitwise immediately
//! after `rebase()`, and the sliding window must equal binding the window's
//! surviving records directly.

use datacube_dp::prelude::*;
use std::sync::{Arc, OnceLock};

const D: usize = 5;
const N: usize = 1 << D;

fn marginal_plans() -> &'static Vec<Arc<Plan>> {
    static PLANS: OnceLock<Vec<Arc<Plan>>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let schema = Schema::binary(D).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ]
        .iter()
        .map(|&s| Arc::new(PlanBuilder::marginals(w.clone(), s).compile().unwrap()))
        .collect()
    })
}

fn range_plans() -> &'static Vec<Arc<Plan>> {
    static PLANS: OnceLock<Vec<Arc<Plan>>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let w = RangeWorkload::all_prefixes(N).unwrap();
        [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
            RangeStrategy::Sketch {
                repetitions: 8,
                buckets: N,
                seed: 7,
            },
        ]
        .iter()
        .map(|&s| Arc::new(PlanBuilder::ranges(w.clone(), s).compile().unwrap()))
        .collect()
    })
}

/// Opens a streaming session over empty data for either workload family.
fn open_empty(plan: &Arc<Plan>) -> Session {
    Session::empty(Arc::clone(plan)).unwrap()
}

/// A fresh full-observe of `counts` under the plan, via a brand-new
/// session's bind path.
fn fresh_observations(plan: &Arc<Plan>, counts: &[f64]) -> Vec<f64> {
    let fresh = match plan.spec() {
        WorkloadSpec::Marginals { .. } => Session::bind(
            Arc::clone(plan),
            &ContingencyTable::from_counts(counts.to_vec()),
        )
        .unwrap(),
        WorkloadSpec::Ranges { .. } => Session::bind_histogram(Arc::clone(plan), counts).unwrap(),
    };
    fresh.observations().to_vec()
}

/// Applies a random edit script (ingest with occasional valid retracts) to
/// the session and to a model count vector; the two must agree.
fn apply_script(stream: &mut Session, model: &mut [f64], script: &[(u64, u64)]) {
    for &(cell, op) in script {
        let cell = cell % N as u64;
        if op % 3 == 0 && model[cell as usize] > 0.0 {
            stream.retract(cell).unwrap();
            model[cell as usize] -= 1.0;
        } else {
            stream.ingest(cell).unwrap();
            model[cell as usize] += 1.0;
        }
    }
}

fn assert_close(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: observation lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < 1e-9,
            "{label}: observation {i} diverged: {x} vs {y}"
        );
    }
}

proptest::proptest! {
    /// Delta maintenance tracks a fresh observe within 1e-9 for every
    /// marginal and range strategy, and matches it bitwise after rebase().
    #[test]
    fn deltas_match_fresh_observe_for_every_strategy(
        script in proptest::collection::vec((0u64..N as u64, 0u64..8), 1..120),
    ) {
        for plan in marginal_plans().iter().chain(range_plans()) {
            let mut stream = open_empty(plan);
            let mut model = vec![0.0; N];
            apply_script(&mut stream, &mut model, &script);
            assert_eq!(stream.counts(), model.as_slice());
            let fresh = fresh_observations(plan, &model);
            assert_close(stream.observations(), &fresh, plan.label());
            // rebase(): exact, bitwise agreement with the fresh bind.
            stream.rebase().unwrap();
            assert_eq!(
                stream.observations(),
                fresh.as_slice(),
                "{}: rebase must restore bitwise equality",
                plan.label()
            );
        }
    }

    /// After expiry, a windowed session equals a session bound directly to
    /// the records of the surviving buckets.
    #[test]
    fn window_expiry_equals_direct_bind(
        buckets in proptest::collection::vec(
            proptest::collection::vec(0u64..N as u64, 0..6),
            1..8,
        ),
        capacity in 1usize..4,
    ) {
        for plan in marginal_plans().iter().chain(range_plans()) {
            let mut stream = open_empty(plan).with_window(capacity);
            for bucket in &buckets {
                for &cell in bucket {
                    stream.ingest(cell).unwrap();
                }
                stream.advance().unwrap();
            }
            // After the final advance the current bucket is empty, so the
            // session holds exactly the last `capacity` completed buckets.
            let live = buckets.iter().rev().take(capacity).rev().flatten();
            let mut direct = vec![0.0; N];
            for &cell in live {
                direct[cell as usize] += 1.0;
            }
            assert_eq!(stream.counts(), direct.as_slice(), "{}", plan.label());
            let fresh = fresh_observations(plan, &direct);
            assert_close(stream.observations(), &fresh, plan.label());
        }
    }
}

/// Seeds aside, a streamed-to session and a directly bound session produce
/// byte-identical releases once the observations agree bitwise.
#[test]
fn rebased_stream_releases_are_byte_identical_to_direct_bind() {
    for plan in marginal_plans().iter().chain(range_plans()) {
        let mut stream = open_empty(plan);
        for cell in [1u64, 3, 3, 17, 30, 8, 8, 8] {
            stream.ingest(cell).unwrap();
        }
        stream.retract(3).unwrap();
        stream.rebase().unwrap();
        let counts = stream.counts().to_vec();
        let direct = match plan.spec() {
            WorkloadSpec::Marginals { .. } => {
                Session::bind(Arc::clone(plan), &ContingencyTable::from_counts(counts)).unwrap()
            }
            WorkloadSpec::Ranges { .. } => {
                Session::bind_histogram(Arc::clone(plan), &counts).unwrap()
            }
        };
        for seed in [0u64, 9, 42] {
            let a = stream.release(seed).unwrap();
            let b = direct.release(seed).unwrap();
            match (&a.answers, &b.answers) {
                (Answers::Marginals(ma), Answers::Marginals(mb)) => {
                    for ((_, x), (_, y)) in ma.iter().zip(mb.iter()) {
                        assert_eq!(x, y);
                    }
                }
                (Answers::Ranges(ra), Answers::Ranges(rb)) => assert_eq!(ra, rb),
                _ => panic!("mismatched answer kinds"),
            }
        }
    }
}
