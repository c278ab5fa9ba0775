//! Shared experiment harness for reproducing the paper's figures and
//! tables. The `repro` binary regenerates all of them and checks the
//! paper's claims on every run; this library holds the common machinery:
//! the datasets, method/workload enumeration, the accuracy and runtime
//! sweeps, the claim ledger, and table/JSONL output.

pub mod reference;

use dp_core::cluster::{greedy_cluster_reference, CentroidSearch};
use dp_core::consistency::is_consistent;
use dp_core::metrics::average_relative_error;
use dp_core::prelude::*;
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One dataset of the experiments: the real file when it is present,
/// otherwise its seeded synthetic stand-in.
pub struct Dataset {
    /// Name used in rows and logs (`adult`, `nltcs`).
    pub name: &'static str,
    /// The attribute schema.
    pub schema: Schema,
    /// The contingency table of the records.
    pub table: ContingencyTable,
}

impl Dataset {
    /// Adult (Figure 4): `data/adult.data`, else the stand-in of seed 20130401.
    pub fn adult() -> Dataset {
        let path = Path::new("data/adult.data");
        let loaded = dp_data::csv::adult_records_or_synthetic(path, 20130401);
        Dataset::new("adult", dp_data::adult_schema(), loaded)
    }

    /// NLTCS (Figures 5 and 6): `data/nltcs.csv`, else the stand-in of
    /// seed 20130402.
    pub fn nltcs() -> Dataset {
        let path = Path::new("data/nltcs.csv");
        let loaded = dp_data::csv::nltcs_records_or_synthetic(path, 20130402);
        Dataset::new("nltcs", dp_data::nltcs_schema(), loaded)
    }

    fn new(
        name: &'static str,
        schema: Schema,
        loaded: Result<(Vec<Vec<usize>>, bool), dp_data::DataError>,
    ) -> Dataset {
        let (records, real) = loaded.expect("dataset file parses");
        let source = if real {
            "real file"
        } else {
            "synthetic stand-in"
        };
        eprintln!("{name}: {} records ({source})", records.len());
        let table = ContingencyTable::from_records(&schema, &records).expect("records fit schema");
        Dataset {
            name,
            schema,
            table,
        }
    }
}

/// The paper's claims as checked by one run: how many held, and a message
/// naming the section and the value of each that did not.
#[derive(Debug, Default)]
pub struct Checks {
    section: &'static str,
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Names the section the following claims belong to.
    pub fn section(&mut self, name: &'static str) {
        self.section = name;
    }

    /// Records one claim; `failure` describes it, with the offending value,
    /// when it does not hold.
    pub fn claim(&mut self, holds: bool, failure: impl FnOnce() -> String) {
        if holds {
            self.passed += 1;
        } else {
            self.failures
                .push(format!("[{}] {}", self.section, failure()));
        }
    }

    /// Number of claims that held.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// The claims that failed, in the order they were checked.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Step 2's optimality claim for one plan: at the plan's privacy level the
/// optimal budgets never predict more total variance than uniform ones.
pub fn check_budgets(plan: &Plan, checks: &mut Checks) {
    // A failed re-solve predicts NaN, which fails the claim.
    let predicted = |b| {
        plan.resolved_at(plan.privacy(), b)
            .map_or(f64::NAN, |p| p.predicted_variance())
    };
    let (optimal, uniform) = (predicted(Budgeting::Optimal), predicted(Budgeting::Uniform));
    checks.claim(optimal <= uniform * (1.0 + 1e-9), || {
        format!(
            "{}: optimal budgets predict {optimal}, uniform {uniform}",
            plan.label()
        )
    });
}

/// The seven methods of the paper's experiments (Section 5, "Algorithms
/// Used"): four strategies, each with uniform and (where different)
/// optimal non-uniform budgets.
pub const METHODS: [(StrategyKind, Budgeting); 7] = [
    (StrategyKind::Fourier, Budgeting::Uniform),
    (StrategyKind::Fourier, Budgeting::Optimal),
    (StrategyKind::Cluster, Budgeting::Uniform),
    (StrategyKind::Cluster, Budgeting::Optimal),
    (StrategyKind::Workload, Budgeting::Uniform),
    (StrategyKind::Workload, Budgeting::Optimal),
    (StrategyKind::Identity, Budgeting::Uniform),
];

/// The ε grid of Figures 4 and 5.
pub const EPSILONS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The six workload families of the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadFamily {
    /// `Q_k` — all k-way marginals.
    K(usize),
    /// `Q*_k` — all k-way plus half the (k+1)-way marginals.
    KStar(usize),
    /// `Q^a_k` — all k-way plus the (k+1)-way marginals containing attr 0.
    KAttr(usize),
}

impl WorkloadFamily {
    /// The six families in the paper's figure order.
    pub const ALL: [WorkloadFamily; 6] = [
        WorkloadFamily::K(1),
        WorkloadFamily::KStar(1),
        WorkloadFamily::KAttr(1),
        WorkloadFamily::K(2),
        WorkloadFamily::KStar(2),
        WorkloadFamily::KAttr(2),
    ];

    /// Figure label, e.g. `Q1*`.
    pub fn label(self) -> String {
        match self {
            WorkloadFamily::K(k) => format!("Q{k}"),
            WorkloadFamily::KStar(k) => format!("Q{k}*"),
            WorkloadFamily::KAttr(k) => format!("Q{k}a"),
        }
    }

    /// Materializes the workload over a schema.
    pub fn build(self, schema: &Schema) -> Workload {
        match self {
            WorkloadFamily::K(k) => Workload::all_k_way(schema, k),
            WorkloadFamily::KStar(k) => Workload::k_way_plus_half(schema, k),
            WorkloadFamily::KAttr(k) => Workload::k_way_plus_attr(schema, k, 0),
        }
        .expect("experiment workloads are valid for both schemas")
    }
}

/// One measured point of an accuracy experiment.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyPoint {
    /// Dataset name (`adult`, `nltcs`).
    pub dataset: String,
    /// Workload label (`Q1`, `Q2*`, …).
    pub workload: String,
    /// Method label (`F`, `F+`, `C`, `C+`, `Q`, `Q+`, `I`).
    pub method: String,
    /// Privacy parameter ε.
    pub epsilon: f64,
    /// Mean relative error over trials (the paper's metric).
    pub relative_error: f64,
    /// Number of Monte-Carlo trials averaged.
    pub trials: usize,
}

/// One measured point of the runtime experiment (Figure 6).
#[derive(Debug, Clone, Serialize)]
pub struct RuntimePoint {
    /// Workload label.
    pub workload: String,
    /// Method label (strategy only — budgets don't affect runtime shape).
    pub method: String,
    /// End-to-end seconds: planning + one release.
    pub seconds: f64,
    /// Cores available to the process.
    pub nproc: usize,
}

/// Cores available to the process, as every benchmark row records it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the accuracy sweep for one dataset: every workload family × method
/// × ε, averaging `trials.0` releases (`trials.1` for the Identity strategy,
/// whose per-trial cost is `O(N)`). `privacy` gives the level at each ε:
/// `Pure` for Laplace noise, `Approx` for Gaussian. Every plan is checked by
/// [`check_budgets`], and every release for mutual consistency of its
/// marginals (Section 4).
pub fn accuracy_sweep(
    data: &Dataset,
    families: &[WorkloadFamily],
    epsilons: &[f64],
    privacy: impl Fn(f64) -> PrivacyLevel,
    (trials, identity_trials): (usize, usize),
    seed: u64,
    checks: &mut Checks,
) -> Vec<AccuracyPoint> {
    let dataset = data.name;
    let tolerance = 1e-9 * data.table.total().max(1.0);
    let mut out = Vec::new();
    for &family in families {
        let workload = family.build(&data.schema);
        let exact = workload.true_answers(&data.table);
        eprintln!(
            "[{dataset}] workload {} ({} marginals, {} cells)",
            family.label(),
            workload.len(),
            workload.total_cells()
        );
        for &(strategy, budgeting) in &METHODS {
            let Some(&first_eps) = epsilons.first() else {
                continue;
            };
            let n_trials = if strategy == StrategyKind::Identity {
                identity_trials
            } else {
                trials
            };
            // Compile the strategy once per method; each further ε only
            // re-solves the budgets over the shared compiled operator.
            let base_plan = PlanBuilder::marginals(workload.clone(), strategy)
                .budgeting(budgeting)
                .privacy(privacy(first_eps))
                .for_schema(&data.schema)
                .compile()
                .expect("experiment strategies plan successfully");
            let base_plan = Arc::new(base_plan);
            for (e_idx, &eps) in epsilons.iter().enumerate() {
                let plan = if e_idx == 0 {
                    Arc::clone(&base_plan)
                } else {
                    Arc::new(
                        base_plan
                            .resolved_at(privacy(eps), budgeting)
                            .expect("re-solving a compiled plan at a positive ε succeeds"),
                    )
                };
                check_budgets(&plan, checks);
                let at = format!("{dataset} {} {} ε={eps}", family.label(), plan.label());
                // Each method draws from its own seed stream.
                let base = seed ^ dp_core::fnv1a64(plan.label().bytes().map(u64::from));
                let session = Session::bind(plan, &data.table).expect("plan matches the table");
                let seeds: Vec<u64> = (0..n_trials)
                    .map(|t| base.wrapping_add((e_idx * 10_000 + t) as u64))
                    .collect();
                let err_sum: f64 = session
                    .release_batch(&seeds)
                    .expect("release cannot fail after successful planning")
                    .into_iter()
                    .map(|r| {
                        let answers = r
                            .answers
                            .into_marginals()
                            .expect("marginal plans answer marginals");
                        checks.claim(is_consistent(&answers, tolerance), || {
                            format!("{at} seed {}: marginals are inconsistent", r.seed)
                        });
                        average_relative_error(&answers, &exact)
                            .expect("answers and exact are aligned")
                    })
                    .sum();
                out.push(AccuracyPoint {
                    dataset: dataset.to_string(),
                    workload: family.label(),
                    method: session.plan().label().to_string(),
                    epsilon: eps,
                    relative_error: err_sum / n_trials as f64,
                    trials: n_trials,
                });
            }
            eprintln!("  {} done", base_plan.label());
        }
    }
    out
}

/// The five method lines of the Figure-6 runtime experiment: the four
/// strategies, plus `C(ref)` (marked `true`), which first runs the
/// paper-faithful exponential candidate walk of Ding et al. \[6\]
/// ([`greedy_cluster_reference`] over
/// [`CentroidSearch::AllDominatingCuboids`]), the search the paper's
/// Figure 6 actually measures, and then does what `C` does.
pub const RUNTIME_METHODS: [(&str, StrategyKind, bool); 5] = [
    ("F", StrategyKind::Fourier, false),
    ("C", StrategyKind::Cluster, false),
    ("C(ref)", StrategyKind::Cluster, true),
    ("Q", StrategyKind::Workload, false),
    ("I", StrategyKind::Identity, false),
];

/// Runs the runtime experiment: wall-clock for a cold plan compile (the
/// cluster search happens inside `PlanBuilder::compile`) + bind + one
/// release, per method per workload family, with `C(ref)`'s reference
/// walk timed in front. Checks every plan with [`check_budgets`], and that
/// the reference walk finds the plan's clustering.
pub fn runtime_sweep(
    data: &Dataset,
    families: &[WorkloadFamily],
    seed: u64,
    checks: &mut Checks,
) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for &family in families {
        let workload = family.build(&data.schema);
        for &(label, strategy, reference) in &RUNTIME_METHODS {
            let start = Instant::now();
            let walked = reference
                .then(|| greedy_cluster_reference(&workload, CentroidSearch::AllDominatingCuboids));
            let plan = PlanBuilder::marginals(workload.clone(), strategy)
                .budgeting(Budgeting::Optimal)
                .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
                .compile()
                .expect("experiment strategies plan successfully");
            let session =
                Session::bind(Arc::new(plan), &data.table).expect("plan matches the table");
            let _release = session.release(seed).expect("release succeeds");
            out.push(RuntimePoint {
                workload: family.label(),
                method: label.to_string(),
                seconds: start.elapsed().as_secs_f64(),
                nproc: nproc(),
            });
            eprintln!(
                "  [fig6] {} {}: {:.4}s",
                family.label(),
                label,
                out.last().expect("just pushed").seconds
            );
            check_budgets(session.plan(), checks);
            if let Some(walked) = walked {
                checks.claim(session.plan().clustering() == Some(&walked), || {
                    format!(
                        "{} {label}: the reference walk and the plan cluster differently",
                        family.label()
                    )
                });
            }
        }
    }
    out
}

/// Renders accuracy points as the paper-style series: one block per
/// workload, methods as columns, ε as rows.
pub fn render_accuracy_table(points: &[AccuracyPoint]) -> String {
    use std::collections::BTreeSet;
    let mut s = String::new();
    let workloads: Vec<String> = {
        let mut seen = BTreeSet::new();
        points
            .iter()
            .filter(|p| seen.insert(p.workload.clone()))
            .map(|p| p.workload.clone())
            .collect()
    };
    let methods = ["F", "F+", "C", "C+", "Q", "Q+", "I"];
    for w in &workloads {
        s.push_str(&format!("\n== workload {w} — relative error ==\n"));
        s.push_str(&format!("{:>5}", "eps"));
        for m in methods {
            s.push_str(&format!("{m:>12}"));
        }
        s.push('\n');
        let mut epsilons: Vec<f64> = points
            .iter()
            .filter(|p| &p.workload == w)
            .map(|p| p.epsilon)
            .collect();
        epsilons.sort_by(|a, b| a.partial_cmp(b).expect("finite epsilons"));
        epsilons.dedup();
        for eps in epsilons {
            s.push_str(&format!("{eps:>5.1}"));
            for m in methods {
                let v = points
                    .iter()
                    .find(|p| &p.workload == w && p.method == m && p.epsilon == eps)
                    .map(|p| p.relative_error);
                match v {
                    Some(v) => s.push_str(&format!("{v:>12.4}")),
                    None => s.push_str(&format!("{:>12}", "-")),
                }
            }
            s.push('\n');
        }
    }
    s
}

/// Renders rows under `title`, one JSON object per line.
pub fn render_rows<T: Serialize>(title: &str, rows: &[T]) -> String {
    format!("\n== {title} ==\n{}", jsonl(rows))
}

/// Writes any serializable slice as a JSON-lines file under
/// `bench_results/`, returning the path.
pub fn write_jsonl<T: Serialize>(name: &str, rows: &[T]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, jsonl(rows))?;
    Ok(path)
}

/// One JSON object per row, each ending in a newline.
fn jsonl<T: Serialize>(rows: &[T]) -> String {
    let mut body = String::new();
    for r in rows {
        body.push_str(&serde_json::to_string(r).expect("rows serialize"));
        body.push('\n');
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_for_both_schemas() {
        let adult = dp_data::adult_schema();
        let nltcs = dp_data::nltcs_schema();
        for f in WorkloadFamily::ALL {
            assert!(!f.build(&adult).is_empty());
            assert!(!f.build(&nltcs).is_empty());
        }
        assert_eq!(WorkloadFamily::K(2).label(), "Q2");
        assert_eq!(WorkloadFamily::KStar(1).label(), "Q1*");
        assert_eq!(WorkloadFamily::KAttr(2).label(), "Q2a");
    }

    /// A small synthetic dataset over `Schema::binary(6)`.
    fn tiny(records: usize) -> Dataset {
        let schema = Schema::binary(6).unwrap();
        let recs: Vec<Vec<usize>> = (0..records)
            .map(|i| (0..6).map(|b| (i >> b) & 1).collect())
            .collect();
        let table = ContingencyTable::from_records(&schema, &recs).unwrap();
        Dataset {
            name: "tiny",
            schema,
            table,
        }
    }

    #[test]
    fn tiny_sweep_produces_all_points() {
        // A minimal smoke sweep over a small synthetic table, under Laplace
        // and under Gaussian noise.
        let data = tiny(200);
        let levels: [fn(f64) -> PrivacyLevel; 2] = [
            |epsilon| PrivacyLevel::Pure { epsilon },
            |epsilon| PrivacyLevel::Approx {
                epsilon,
                delta: 1e-6,
            },
        ];
        for privacy in levels {
            let mut checks = Checks::default();
            let points = accuracy_sweep(
                &data,
                &[WorkloadFamily::K(1)],
                &[0.5, 1.0],
                privacy,
                (2, 1),
                7,
                &mut checks,
            );
            // 7 methods × 2 epsilons.
            assert_eq!(points.len(), 14);
            assert!(points.iter().all(|p| p.relative_error.is_finite()));
            assert!(checks.failures().is_empty(), "{:?}", checks.failures());
            // One Step-2 claim per plan, one consistency claim per release
            // (per ε: 6 methods × 2 trials, plus 1 identity trial).
            assert_eq!(checks.passed(), 14 + 2 * (6 * 2 + 1));
            let rendered = render_accuracy_table(&points);
            assert!(rendered.contains("Q1"));
            assert!(rendered.contains("F+"));
        }
    }

    #[test]
    fn runtime_sweep_smoke() {
        let data = tiny(50);
        let mut checks = Checks::default();
        let rows = runtime_sweep(&data, &[WorkloadFamily::K(1)], 3, &mut checks);
        assert_eq!(rows.len(), RUNTIME_METHODS.len());
        assert!(rows.iter().all(|r| r.seconds >= 0.0));
        // The reference walk and the plan's search find the same
        // clustering.
        assert!(rows.iter().any(|r| r.method == "C"));
        assert!(rows.iter().any(|r| r.method == "C(ref)"));
        assert!(checks.failures().is_empty(), "{:?}", checks.failures());
        assert_eq!(checks.passed(), RUNTIME_METHODS.len() + 1);
    }

    #[test]
    fn checks_name_the_section_of_each_failure() {
        let mut checks = Checks::default();
        checks.section("table1_bounds");
        checks.claim(true, || unreachable!());
        checks.claim(false, || "F+ 3.5 ≥ F 3.0".to_string());
        assert_eq!(checks.passed(), 1);
        assert_eq!(checks.failures(), ["[table1_bounds] F+ 3.5 ≥ F 3.0"]);
    }
}
