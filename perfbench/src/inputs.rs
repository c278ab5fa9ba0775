//! Seeded inputs and the plans each workload serves. One `--seed` drives
//! everything: records, histogram, range endpoints, and (through
//! [`stream`]) the release seeds, ingest cells and request ids the
//! connections draw.

use dp_core::api::{PlanBuilder, WorkloadSpec};
use dp_core::prelude::*;
use dp_core::range::{RangeStrategy, RangeWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ε charged per release; tenants get far more than a run can spend.
pub const RELEASE_EPSILON: f64 = 0.5;
pub const TENANT_EPSILON: f64 = 1e12;

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Synthetic NLTCS records (16 binary attributes, 2^16 cells).
    pub records: usize,
    /// log2 of the range histogram's domain.
    pub domain_log2: u32,
    /// Seeded ranges in the range workload.
    pub ranges: usize,
    /// Keyed releases per pipelined window on `durable_stream`.
    pub window: usize,
    /// Ingests per `release_current` on `durable_stream`.
    pub ingest_burst: usize,
    /// Set-ups per run, at least; more follow until they add up to
    /// `setup_total_s` (at most 40). `setup_s` is their median.
    pub setups: usize,
    pub setup_total_s: f64,
    /// Requests replayed through the layer functions in a traced run
    /// (`range_engine` replays a quarter as many: each costs ~0.1 s).
    pub replay: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        records: 21_574,
        domain_log2: 16,
        ranges: 256,
        window: 32,
        ingest_burst: 64,
        setups: 5,
        setup_total_s: 1.0,
        replay: 32,
    };
    pub const TINY: Scale = Scale {
        records: 2_000,
        domain_log2: 10,
        ranges: 16,
        window: 4,
        ingest_burst: 8,
        setups: 2,
        setup_total_s: 0.0,
        replay: 4,
    };
}

/// An RNG for one named input stream of a seed.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// The datasets every workload draws from.
pub struct Inputs {
    pub table: ContingencyTable,
    pub hist: Vec<f64>,
    pub ranges: RangeWorkload,
}

impl Inputs {
    pub fn generate(seed: u64, scale: Scale) -> Inputs {
        let schema = dp_data::nltcs_schema();
        let records = dp_data::synthesize_nltcs(scale.records, seed);
        let table =
            ContingencyTable::from_records(&schema, &records).expect("NLTCS records fit schema");
        let n = 1usize << scale.domain_log2;
        let mut rng = stream(seed, 1);
        // A bumpy histogram: a few seeded peaks over a uniform floor.
        let peaks: Vec<(f64, f64)> = (0..8)
            .map(|_| {
                (
                    rng.gen_range(0..n) as f64,
                    rng.gen_range(1..n / 8 + 2) as f64,
                )
            })
            .collect();
        let hist = (0..n)
            .map(|i| {
                let bump: f64 = peaks
                    .iter()
                    .map(|&(c, w)| 200.0 * (-((i as f64 - c) / w).powi(2)).exp())
                    .sum();
                (bump + rng.gen_range(0..20) as f64).floor()
            })
            .collect();
        let mut rng = stream(seed, 2);
        let ranges = (0..scale.ranges)
            .map(|_| {
                let lo = rng.gen_range(0..n);
                (lo, rng.gen_range(lo + 1..n + 1))
            })
            .collect();
        Inputs {
            table,
            hist,
            ranges: RangeWorkload::new(n, ranges).expect("seeded ranges are in bounds"),
        }
    }

    /// NLTCS all-`k`-way marginals under the Fourier strategy.
    pub fn marginals(k: usize) -> WorkloadSpec {
        let workload =
            Workload::all_k_way(&dp_data::nltcs_schema(), k).expect("NLTCS k-way workload");
        WorkloadSpec::Marginals {
            workload,
            strategy: StrategyKind::Fourier,
            cluster: ClusterConfig::default(),
        }
    }

    pub fn range_spec(&self, strategy: RangeStrategy) -> WorkloadSpec {
        WorkloadSpec::Ranges {
            workload: self.ranges.clone(),
            strategy,
        }
    }
}

pub fn privacy() -> PrivacyLevel {
    PrivacyLevel::Pure {
        epsilon: RELEASE_EPSILON,
    }
}

/// The builder the service compiles for `spec` on `register_compile`.
pub fn builder(spec: WorkloadSpec) -> PlanBuilder {
    PlanBuilder::new(spec)
        .budgeting(Budgeting::Optimal)
        .privacy(privacy())
        .neighboring(Neighboring::AddRemove)
}
