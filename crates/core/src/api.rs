//! The unified two-phase release API: **plan once, release many**.
//!
//! Everything the paper's pipeline does before data arrives is
//! data-independent — choosing a strategy, deriving its group structure,
//! solving the Step-2 budget allocation, predicting per-query variances.
//! This module makes that split explicit:
//!
//! 1. [`PlanBuilder`] holds a plan's inputs — a [`WorkloadSpec`] (marginal
//!    *or* range workloads behind one enum), the budgeting mode, the
//!    privacy level, the neighbouring convention and the schema tag — and
//!    is the plan's identity: the [`Plan`] it compiles keeps it, and its
//!    cache key and [`Plan::fingerprint`] are computed from it alone.
//!    Compiling yields the strategy operator, solved noise budgets,
//!    achieved ε and per-query variance predictions. No table or histogram
//!    is consulted. Plans are serde-serializable (see
//!    [`crate::serde_impls`]) so they can be shipped between processes.
//! 2. [`Session`] binds a plan to concrete data (a [`ContingencyTable`] or
//!    a histogram), computing the exact observations `z = S·x` once, and
//!    serves releases: [`Session::release`] for one, or
//!    [`Session::release_batch`] to fan a whole batch of seeds out with
//!    rayon. Every release is deterministic in its seed. A marginal
//!    release's answers are one [`MarginalSet`]: every cell in one buffer,
//!    in workload order, with the plan's mask list shared rather than
//!    copied — the layout of [`crate::workload::Workload::true_answers`],
//!    which the metrics and consistency functions take. The same session
//!    type also maintains its observations under streamed record-level
//!    deltas ([`Session::ingest`]), optionally over a sliding window.
//! 3. [`PlanCache`] memoizes compiled plans keyed by their builder's
//!    inputs (schema fingerprint, workload, strategy, budgeting, privacy,
//!    neighbouring), so a service handling repeated requests performs the
//!    budget solve (and the cluster search, coefficient-space construction,
//!    …) exactly once per distinct request shape.
//!
//! ```
//! use dp_core::api::{PlanBuilder, Session};
//! use dp_core::prelude::*;
//! use std::sync::Arc;
//!
//! let schema = Schema::binary(4).unwrap();
//! let workload = Workload::all_k_way(&schema, 2).unwrap();
//! // Phase 1: compile a data-independent plan at ε = 1.
//! let plan = PlanBuilder::marginals(workload, StrategyKind::Fourier)
//!     .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
//!     .compile()
//!     .unwrap();
//! // Phase 2: bind data and serve a deterministic batch of releases.
//! let records = vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]];
//! let table = ContingencyTable::from_records(&schema, &records).unwrap();
//! let session = Session::bind(Arc::new(plan), &table).unwrap();
//! let releases = session.release_batch(&[1, 2, 3]).unwrap();
//! assert_eq!(releases.len(), 3);
//! ```

use crate::marginal::MarginalSet;
use crate::range::{RangeStrategy, RangeWorkload};
use crate::release::StrategyKind;
use crate::schema::Schema;
use crate::strategy::{release_budgets, solve_budgets, Budgeting, Compiled};
use crate::table::ContingencyTable;
use crate::workload::Workload;
use crate::{
    cluster::{ClusterConfig, Clustering},
    fnv1a64, CoreError,
};
use dp_mech::noise::{mechanism_factor, noise_variance};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_opt::budget::{objective_value, BudgetSolution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a plan releases: a marginal workload over a contingency table, or a
/// range-count workload over a 1-D histogram — the two workload families of
/// the paper, behind one type.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Marginal tables of a `d`-bit contingency table (Sections 4–5).
    Marginals {
        /// The marginal queries to answer.
        workload: Workload,
        /// The strategy matrix family (Step 1).
        strategy: StrategyKind,
        /// A fieldless placeholder (see [`ClusterConfig`]): every cluster
        /// plan runs the one search.
        cluster: ClusterConfig,
    },
    /// Interval counts over a power-of-two 1-D domain (Section 3.1's
    /// groupable range strategies).
    Ranges {
        /// The interval queries to answer.
        workload: RangeWorkload,
        /// The strategy matrix family (Step 1).
        strategy: RangeStrategy,
    },
}

impl WorkloadSpec {
    /// Number of queries the plan answers (marginals or ranges).
    pub fn num_queries(&self) -> usize {
        match self {
            WorkloadSpec::Marginals { workload, .. } => workload.len(),
            WorkloadSpec::Ranges { workload, .. } => workload.ranges().len(),
        }
    }

    /// Short method label matching the paper's figure legends (`"F"`,
    /// `"H"`, …) without the budgeting suffix.
    pub fn strategy_label(&self) -> &'static str {
        match self {
            WorkloadSpec::Marginals { strategy, .. } => strategy.label(),
            WorkloadSpec::Ranges { strategy, .. } => strategy.label(),
        }
    }

    /// Size of the data vector `x` a plan for this spec binds to: `2^d`
    /// contingency cells, or the range domain `n`.
    pub(crate) fn domain_size(&self) -> usize {
        match self {
            WorkloadSpec::Marginals { workload, .. } => 1usize << workload.domain_bits(),
            WorkloadSpec::Ranges { workload, .. } => workload.domain(),
        }
    }

    /// Canonical `u64` encoding of the spec, the basis of plan-cache keys
    /// and [`Plan::fingerprint`].
    fn key_words(&self, out: &mut Vec<u64>) {
        match self {
            WorkloadSpec::Marginals {
                workload, strategy, ..
            } => {
                out.push(1);
                out.push(workload.domain_bits() as u64);
                out.push(match strategy {
                    StrategyKind::Identity => 0,
                    StrategyKind::Workload => 1,
                    StrategyKind::Fourier => 2,
                    StrategyKind::Cluster => 3,
                });
                // Two zero words where the cluster search and its
                // reference switch were once encoded: they keep every plan
                // id, and the session ids journaled in existing WALs.
                out.extend([0, 0]);
                out.extend(workload.marginals().iter().map(|m| m.0));
            }
            WorkloadSpec::Ranges { workload, strategy } => {
                out.push(2);
                out.push(workload.domain() as u64);
                match strategy {
                    RangeStrategy::Identity => out.push(0),
                    RangeStrategy::Hierarchical => out.push(1),
                    RangeStrategy::Wavelet => out.push(2),
                    RangeStrategy::Sketch {
                        repetitions,
                        buckets,
                        seed,
                    } => out.extend([3, *repetitions as u64, *buckets as u64, *seed]),
                }
                for &(lo, hi) in workload.ranges() {
                    out.extend([lo as u64, hi as u64]);
                }
            }
        }
    }
}

/// A stable fingerprint of a schema (attribute names + cardinalities),
/// for keying cached plans by the relation they were compiled against.
/// Two schemas that encode to the same bit layout but describe different
/// relations fingerprint differently.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    // 0xff terminates each name.
    fnv1a64(schema.attributes().iter().flat_map(|a| {
        a.name
            .bytes()
            .map(u64::from)
            .chain([0xff, a.cardinality as u64])
    }))
}

/// A plan's inputs, and the builder of the data-independent [`Plan`] they
/// determine: the workload spec, the budgeting mode, the privacy level, the
/// neighbouring convention and the schema tag. A plan is a pure function of
/// them, so they are its identity: they key the [`PlanCache`] and
/// [`Plan::fingerprint`], a [`Plan`] keeps its builder, and one wire
/// encoder writes them for plan documents and `compile` requests alike
/// (see [`crate::serde_impls`]). Defaults: optimal budgets, pure ε-DP at
/// ε = 1, add/remove-one neighbours (the paper's experimental
/// configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBuilder {
    pub(crate) spec: WorkloadSpec,
    pub(crate) budgeting: Budgeting,
    pub(crate) privacy: PrivacyLevel,
    pub(crate) neighboring: Neighboring,
    pub(crate) schema_tag: u64,
}

impl PlanBuilder {
    /// Starts a plan for a marginal workload.
    pub fn marginals(workload: Workload, strategy: StrategyKind) -> PlanBuilder {
        PlanBuilder::new(WorkloadSpec::Marginals {
            workload,
            strategy,
            cluster: ClusterConfig,
        })
    }

    /// Starts a plan for a range workload.
    pub fn ranges(workload: RangeWorkload, strategy: RangeStrategy) -> PlanBuilder {
        PlanBuilder::new(WorkloadSpec::Ranges { workload, strategy })
    }

    /// Starts a plan from an explicit [`WorkloadSpec`].
    pub fn new(spec: WorkloadSpec) -> PlanBuilder {
        PlanBuilder {
            spec,
            budgeting: Budgeting::Optimal,
            privacy: PrivacyLevel::Pure { epsilon: 1.0 },
            neighboring: Neighboring::AddRemove,
            schema_tag: 0,
        }
    }

    /// Sets the budget-allocation mode (default: the paper's optimal
    /// non-uniform allocation).
    pub fn budgeting(mut self, budgeting: Budgeting) -> PlanBuilder {
        self.budgeting = budgeting;
        self
    }

    /// Sets the privacy guarantee (default: pure ε-DP at ε = 1). Both pure
    /// and approximate levels are supported for marginal *and* range
    /// workloads.
    pub fn privacy(mut self, privacy: PrivacyLevel) -> PlanBuilder {
        self.privacy = privacy;
        self
    }

    /// Sets the neighbouring-database convention (default: add/remove-one;
    /// `Replace` halves every budget per Proposition 3.1).
    pub fn neighboring(mut self, neighboring: Neighboring) -> PlanBuilder {
        self.neighboring = neighboring;
        self
    }

    /// Tags the plan with the fingerprint of the schema it will serve, so
    /// [`PlanCache`] keys distinguish identical bit-level workloads over
    /// different relations.
    pub fn for_schema(mut self, schema: &Schema) -> PlanBuilder {
        self.schema_tag = schema_fingerprint(schema);
        self
    }

    /// The cache key of the plan this builder would compile: the `u64`
    /// encoding of (schema tag, spec, budgeting, privacy, neighbouring).
    fn key(&self) -> PlanKey {
        let mut words = vec![self.schema_tag];
        self.spec.key_words(&mut words);
        words.push(match self.budgeting {
            Budgeting::Uniform => 0,
            Budgeting::Optimal => 1,
        });
        match self.privacy {
            PrivacyLevel::Pure { epsilon } => words.extend([0, epsilon.to_bits()]),
            PrivacyLevel::Approx { epsilon, delta } => {
                words.extend([1, epsilon.to_bits(), delta.to_bits()])
            }
        }
        words.push(match self.neighboring {
            Neighboring::AddRemove => 0,
            Neighboring::Replace => 1,
        });
        PlanKey(words)
    }

    /// Compiles the plan: builds the strategy operator (including the
    /// cluster search and coefficient spaces for marginal strategies, or
    /// the closed-form level structure for range strategies), solves the
    /// Step-2 budgets, validates the achieved ε and predicts per-query
    /// variances. No data is consulted.
    pub fn compile(self) -> Result<Plan, CoreError> {
        let compiled = Compiled::build(&self.spec)?;
        let solution = solve_budgets(compiled.specs(), self.privacy, self.budgeting)?;
        Plan::finish(self, Arc::new(compiled), solution)
    }
}

/// A compiled, **data-independent** release plan: the strategy operator,
/// the solved Step-2 budgets, the achieved ε they imply, and per-query
/// variance predictions. Bind it to data with [`Session`]; cache it with
/// [`PlanCache`]; ship it between processes via serde (the receiving side
/// recompiles the operator from the spec and reuses the solved budgets).
pub struct Plan {
    /// The inputs the plan was compiled from: its identity.
    inputs: PlanBuilder,
    solution: BudgetSolution,
    achieved_epsilon: f64,
    predicted_variance: f64,
    query_variances: Vec<f64>,
    /// [`Plan::label`], shared with every release rather than formatted
    /// per release.
    label: Arc<str>,
    /// Shared so [`Plan::resolved_at`] can re-solve at another privacy
    /// level without recompiling the strategy.
    compiled: Arc<Compiled>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("label", &self.label())
            .field("queries", &self.inputs.spec.num_queries())
            .field("groups", &self.solution.group_budgets.len())
            .field("achieved_epsilon", &self.achieved_epsilon)
            .field("predicted_variance", &self.predicted_variance)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Plan {
    /// Two plans are equal when every serialized (data) part matches; the
    /// compiled operators are deterministic functions of those parts.
    fn eq(&self, other: &Plan) -> bool {
        self.inputs == other.inputs
            && self.solution == other.solution
            && self.achieved_epsilon == other.achieved_epsilon
    }
}

impl Plan {
    /// Finishes a plan from its inputs, their compiled strategy and a
    /// budget solution: validates feasibility (Proposition 3.1) and derives
    /// the variance predictions. Shared by [`PlanBuilder::compile`],
    /// [`Plan::resolved_at`] and the serde deserializer (which reuses a
    /// shipped solution instead of re-solving).
    fn finish(
        inputs: PlanBuilder,
        compiled: Arc<Compiled>,
        solution: BudgetSolution,
    ) -> Result<Plan, CoreError> {
        let (privacy, neighboring) = (inputs.privacy, inputs.neighboring);
        privacy.validate()?;
        let (budgets, achieved) =
            release_budgets(compiled.specs(), privacy, &solution, neighboring)?;
        let factor = neighboring.sensitivity_factor();
        let predicted_variance = mechanism_factor(privacy) * solution.objective * factor * factor;
        let group_sigma2: Vec<f64> = budgets
            .iter()
            .map(|&eta| {
                if eta > 0.0 {
                    noise_variance(privacy, eta)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        if matches!(inputs.spec, WorkloadSpec::Ranges { .. })
            && group_sigma2.iter().any(|v| !v.is_finite())
        {
            return Err(CoreError::Singular(
                "a strategy row received zero budget; drop unused rows first",
            ));
        }
        let query_variances = compiled.predict_query_variances(&group_sigma2)?;
        let strategy = inputs.spec.strategy_label();
        let label = match inputs.budgeting {
            Budgeting::Uniform => strategy.into(),
            Budgeting::Optimal => format!("{strategy}+").into(),
        };
        Ok(Plan {
            inputs,
            solution,
            achieved_epsilon: achieved,
            predicted_variance,
            query_variances,
            label,
            compiled,
        })
    }

    /// Rebuilds a plan from shipped (deserialized) parts: recompiles the
    /// strategy operator from the spec, then revalidates and reuses the
    /// shipped budget solution — no Step-2 solve.
    pub(crate) fn from_shipped_parts(
        inputs: PlanBuilder,
        solution: BudgetSolution,
    ) -> Result<Plan, CoreError> {
        let compiled = Compiled::build(&inputs.spec)?;
        // The shipped objective drives predicted_variance downstream, so a
        // tampered document must not smuggle optimistic accounting: it has
        // to equal `Σ_r s_r/η_r²` for the recompiled specs and shipped
        // budgets (up to rounding).
        if solution.group_budgets.len() == compiled.specs().len() {
            let expected = objective_value(compiled.specs(), &solution.group_budgets);
            if !solution.objective.is_finite()
                || (solution.objective - expected).abs() > 1e-6 * expected.abs().max(1e-12)
            {
                return Err(CoreError::InvalidPlan(
                    "shipped objective does not match the shipped budgets",
                ));
            }
        }
        Plan::finish(inputs, Arc::new(compiled), solution)
    }

    /// Re-solves this plan at another privacy level and/or budgeting mode,
    /// **reusing the compiled strategy operator** (cluster search,
    /// coefficient spaces, level structure) — the ε-sweep companion to
    /// [`PlanCache`]: one compile, many budget points.
    pub fn resolved_at(
        &self,
        privacy: PrivacyLevel,
        budgeting: Budgeting,
    ) -> Result<Plan, CoreError> {
        let solution = solve_budgets(self.compiled.specs(), privacy, budgeting)?;
        let inputs = self.inputs.clone().privacy(privacy).budgeting(budgeting);
        Plan::finish(inputs, Arc::clone(&self.compiled), solution)
    }

    /// The inputs the plan was compiled from.
    pub(crate) fn inputs(&self) -> &PlanBuilder {
        &self.inputs
    }

    /// The workload spec the plan answers.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.inputs.spec
    }

    /// The budget-allocation mode.
    pub fn budgeting(&self) -> Budgeting {
        self.inputs.budgeting
    }

    /// The privacy guarantee the plan was solved for.
    pub fn privacy(&self) -> PrivacyLevel {
        self.inputs.privacy
    }

    /// The neighbouring-database convention.
    pub fn neighboring(&self) -> Neighboring {
        self.inputs.neighboring
    }

    /// The solved per-group budgets `η_r` as produced by the Step-2
    /// optimizer, *before* the neighbouring sensitivity factor (releases
    /// divide by it).
    pub fn solution(&self) -> &BudgetSolution {
        &self.solution
    }

    /// The ε actually implied by the solved budgets (≤ the requested ε up
    /// to rounding, by the feasibility validation at compile time).
    pub fn achieved_epsilon(&self) -> f64 {
        self.achieved_epsilon
    }

    /// Predicted total output variance of the initial recovery `R₀` (the
    /// Step-2 objective times the mechanism constant). The GLS recovery of
    /// Step 3 can only improve on it.
    pub fn predicted_variance(&self) -> f64 {
        self.predicted_variance
    }

    /// Per-query variance predictions, in workload order: the initial
    /// recovery's per-marginal variances for marginal plans (they sum to
    /// [`Plan::predicted_variance`]), and the *exact* per-range GLS
    /// variances for range plans.
    pub fn query_variances(&self) -> &[f64] {
        &self.query_variances
    }

    /// The greedy clustering, when the plan uses
    /// [`StrategyKind::Cluster`].
    pub fn clustering(&self) -> Option<&Clustering> {
        self.compiled.clustering()
    }

    /// Display label matching the paper's figure legends, e.g. `"F+"` for
    /// Fourier with optimal budgets or `"H"` for the uniform-budget tree.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A stable 64-bit fingerprint of everything that identifies the plan
    /// (schema tag, workload, strategy, budgeting, privacy, neighbouring) —
    /// the hash of its [`PlanCache`] key.
    pub fn fingerprint(&self) -> u64 {
        self.inputs.key().mix()
    }
}

/// One release produced by a [`Session`]: the answers plus the privacy
/// accounting shared by every release from the same plan.
#[derive(Debug, Clone)]
pub struct SessionRelease {
    /// The seed the release was drawn from (its sole source of randomness).
    pub seed: u64,
    /// The recovered, consistent answers.
    pub answers: Answers,
    /// Per-group noise budgets `η_r` actually used (after the neighbouring
    /// factor).
    pub group_budgets: Vec<f64>,
    /// Predicted total output variance of the initial recovery `R₀`.
    pub predicted_variance: f64,
    /// Achieved ε implied by the budgets.
    pub achieved_epsilon: f64,
    /// Method label, e.g. `"F+"`, shared with the plan.
    pub label: Arc<str>,
}

/// Workload answers, one variant per workload family.
#[derive(Debug, Clone)]
pub enum Answers {
    /// Consistent noisy marginals in one buffer, workload order; the masks
    /// are the plan's, shared.
    Marginals(MarginalSet),
    /// Noisy range counts, workload order.
    Ranges(Vec<f64>),
}

impl Answers {
    /// The marginals, when this is a marginal release.
    pub fn marginals(&self) -> Option<&MarginalSet> {
        match self {
            Answers::Marginals(m) => Some(m),
            Answers::Ranges(_) => None,
        }
    }

    /// The range counts, when this is a range release.
    pub fn ranges(&self) -> Option<&[f64]> {
        match self {
            Answers::Ranges(r) => Some(r),
            Answers::Marginals(_) => None,
        }
    }

    /// Consumes the marginals, when this is a marginal release.
    pub fn into_marginals(self) -> Option<MarginalSet> {
        match self {
            Answers::Marginals(m) => Some(m),
            Answers::Ranges(_) => None,
        }
    }

    /// Consumes the range counts, when this is a range release.
    pub fn into_ranges(self) -> Option<Vec<f64>> {
        match self {
            Answers::Ranges(r) => Some(r),
            Answers::Marginals(_) => None,
        }
    }
}

/// A plan bound to concrete data — the one session type, for one-shot
/// binds and long-lived streams alike.
///
/// The exact observations `z = S·x` are computed once at bind time, after
/// which every release only draws noise and recovers — a pure function of
/// (observations, budgets, seed), so batches parallelize freely and
/// reproduce bit-for-bit. The session owns its plan through an [`Arc`], so
/// bound sessions can live in registries and move across worker threads.
///
/// The observations can also be maintained **incrementally** under
/// record-level inserts and deletes. `z = S·x` is linear in the data vector
/// `x` (the structural fact the whole paper builds on), so adding or
/// removing one tuple at cell `j` shifts the observations by the sparse
/// column `±S[·, j]`:
///
/// * marginal strategies: one entry per observed marginal (identity /
///   workload / cluster) or `|support|` signed entries of magnitude
///   `2^{−d/2}` (Fourier);
/// * range strategies: one entry (identity), one per tree level
///   (hierarchical), at most `2·log₂ n + 1` Haar coefficients (wavelet), or
///   the nonzeros of the sketch column.
///
/// [`Session::ingest`] is therefore O(|column|) — never O(2^d). A fresh
/// [`Session::bind`] of a marginal plan shares the table's counts (no
/// copy) and sums its observations from the occupied cells once per
/// parent marginal shared by several targets: one O(2^d) scan, plus
/// parents × occupied cells, plus the parents' cells read once per target
/// folded out of them. A release from a
/// streamed-to session is byte-identical to one from a session freshly
/// bound to the same data (up to float accumulation; see
/// [`Session::rebase`]).
///
/// A **sliding window** ([`Session::with_window`]) keeps a ring of
/// per-bucket delta logs: [`Session::advance`] closes the current bucket
/// and retracts the expiring one, so the session always reflects the
/// currently-filling bucket plus the last `buckets` completed buckets of
/// the stream — never anything older.
///
/// ```
/// use dp_core::api::{PlanBuilder, Session};
/// use dp_core::prelude::*;
/// use std::sync::Arc;
///
/// let schema = Schema::binary(4).unwrap();
/// let workload = Workload::all_k_way(&schema, 2).unwrap();
/// let plan = Arc::new(
///     PlanBuilder::marginals(workload, StrategyKind::Fourier)
///         .compile()
///         .unwrap(),
/// );
/// let mut stream = Session::empty(plan).unwrap();
/// stream.ingest(3).unwrap(); // O(|support|), not O(2^d)
/// stream.ingest(5).unwrap();
/// stream.retract(3).unwrap();
/// let release = stream.release(7).unwrap();
/// assert_eq!(release.seed, 7);
/// ```
pub struct Session {
    plan: Arc<Plan>,
    /// `z = S·x`, shared copy-on-write with any [`Session::snapshot`]
    /// still in use: an ingest copies the buffer instead of mutating a
    /// snapshot's view.
    observations: Arc<Vec<f64>>,
    /// The data vector `x` (contingency counts or histogram) — backs
    /// [`Session::rebase`] and the negative-count guard. Shared
    /// copy-on-write with the bound table and with snapshots.
    counts: Arc<Vec<f64>>,
    window: Option<SlidingWindow>,
}

/// The owning-session name from before the session types were merged.
pub type OwnedSession = Session;

/// The streaming-session name from before the session types were merged.
pub type StreamingSession = Session;

/// Ring of per-bucket delta logs for the sliding-window variant.
struct SlidingWindow {
    /// Oldest bucket first; the last entry is the bucket currently filling.
    buckets: std::collections::VecDeque<Vec<(u64, f64)>>,
    /// Number of buckets the window spans.
    capacity: usize,
}

impl Session {
    /// Binds a **marginal** plan to a contingency table.
    ///
    /// The table's counts are shared, not copied. The exact observations
    /// of count data cost one O(2^d) scan for the occupied cells, one pass
    /// over them per parent marginal (targets grouped into unions of at
    /// most `occupied /` [`PARENT_SHARE`](crate::table::PARENT_SHARE)
    /// cells), and one fold of each target out of its parent's cells:
    /// about `2^d + parents × occupied + Σ parent cells per target`, where
    /// summing per target cost `targets × occupied` (NLTCS Q2 `F+`: 4
    /// passes instead of 120).
    ///
    /// Fails with [`CoreError::InvalidPlan`] for range plans (use
    /// [`Session::bind_histogram`]) and with a shape error when the table's
    /// domain does not match the workload's.
    pub fn bind(plan: Arc<Plan>, table: &ContingencyTable) -> Result<Session, CoreError> {
        if let WorkloadSpec::Ranges { .. } = plan.spec() {
            return Err(CoreError::InvalidPlan(
                "range plans bind to histograms; use Session::bind_histogram",
            ));
        }
        Session::observed(plan, table.shared_counts())
    }

    /// Binds a **range** plan to a histogram over its 1-D domain.
    ///
    /// Fails with [`CoreError::InvalidPlan`] for marginal plans (use
    /// [`Session::bind`]) and with a shape error when the histogram length
    /// does not match the domain.
    pub fn bind_histogram(plan: Arc<Plan>, hist: &[f64]) -> Result<Session, CoreError> {
        if let WorkloadSpec::Marginals { .. } = plan.spec() {
            return Err(CoreError::InvalidPlan(
                "marginal plans bind to contingency tables; use Session::bind",
            ));
        }
        Session::observed(plan, Arc::new(hist.to_vec()))
    }

    /// Binds a plan to an **empty** dataset — the usual entry point for a
    /// stream that begins from nothing.
    pub fn empty(plan: Arc<Plan>) -> Result<Session, CoreError> {
        let counts = vec![0.0; plan.spec().domain_size()];
        Session::observed(plan, Arc::new(counts))
    }

    fn observed(plan: Arc<Plan>, counts: Arc<Vec<f64>>) -> Result<Session, CoreError> {
        let observations = observe_counts(&plan, &counts)?;
        Ok(Session {
            plan,
            observations: Arc::new(observations),
            counts,
            window: None,
        })
    }

    /// Converts this session into a sliding-window session spanning
    /// `buckets` buckets (e.g. 60 one-minute buckets for a one-hour
    /// window). Subsequent ingests land in the current bucket;
    /// [`Session::advance`] rotates the ring.
    pub fn with_window(mut self, buckets: usize) -> Session {
        assert!(buckets > 0, "a sliding window needs at least one bucket");
        let mut ring = std::collections::VecDeque::with_capacity(buckets + 1);
        ring.push_back(Vec::new());
        self.window = Some(SlidingWindow {
            buckets: ring,
            capacity: buckets,
        });
        self
    }

    /// The bound plan.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// The current observation vector `z = S·x` (exposed for the
    /// delta-vs-full-observe equivalence tests).
    pub fn observations(&self) -> &[f64] {
        &self.observations
    }

    /// The maintained data vector `x`.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// An O(1) release-only copy of the current state: it shares the plan,
    /// observations and counts (copy-on-write, so later ingests into
    /// `self` leave it untouched) and carries no sliding window. Its
    /// releases are byte-identical to what `self` released when the
    /// snapshot was taken — which lets a caller drop the lock guarding a
    /// live session before drawing.
    pub fn snapshot(&self) -> Session {
        Session {
            plan: Arc::clone(&self.plan),
            observations: Arc::clone(&self.observations),
            counts: Arc::clone(&self.counts),
            window: None,
        }
    }

    /// Inserts one tuple at linearized cell `cell`: `x_cell += 1`,
    /// `z += S[·, cell]`.
    pub fn ingest(&mut self, cell: u64) -> Result<(), CoreError> {
        self.ingest_count(cell, 1.0)
    }

    /// Deletes one tuple at cell `cell`, refusing to drive its count
    /// negative (retracting a tuple that was never inserted).
    pub fn retract(&mut self, cell: u64) -> Result<(), CoreError> {
        self.ingest_count(cell, -1.0)
    }

    /// Adds `delta` tuples at cell `cell` (negative `delta` retracts).
    /// O(|S[·, cell]|). A delta that is not finite, or that would make the
    /// count non-finite or negative, is refused. Errors leave the session
    /// unchanged.
    pub fn ingest_count(&mut self, cell: u64, delta: f64) -> Result<(), CoreError> {
        if cell >= self.counts.len() as u64 {
            return Err(CoreError::Shape {
                context: "streaming delta cell",
                expected: self.counts.len(),
                actual: cell as usize,
            });
        }
        let next = self.counts[cell as usize] + delta;
        if !next.is_finite() {
            return Err(CoreError::NonFiniteDelta { cell, delta });
        }
        if next < 0.0 {
            return Err(CoreError::NegativeCount { cell, count: next });
        }
        let observations = Arc::make_mut(&mut self.observations);
        self.plan.compiled.apply_delta(observations, cell, delta);
        Arc::make_mut(&mut self.counts)[cell as usize] = next;
        if let Some(w) = &mut self.window {
            w.buckets
                .back_mut()
                .expect("window always has a current bucket")
                .push((cell, delta));
        }
        Ok(())
    }

    /// Closes the current window bucket and opens a new one; once more than
    /// `buckets` buckets exist, the oldest is expired — every delta it
    /// logged is retracted, so the session thereafter reflects exactly the
    /// surviving buckets. Errors unless this is a windowed session.
    pub fn advance(&mut self) -> Result<(), CoreError> {
        let w = self.window.as_mut().ok_or(CoreError::InvalidPlan(
            "advance() needs a sliding window; build with Session::with_window",
        ))?;
        w.buckets.push_back(Vec::new());
        if w.buckets.len() > w.capacity + 1 {
            let expired = w.buckets.pop_front().expect("ring is non-empty");
            let observations = Arc::make_mut(&mut self.observations);
            let counts = Arc::make_mut(&mut self.counts);
            for (cell, delta) in expired {
                self.plan.compiled.apply_delta(observations, cell, -delta);
                // Expiry retracts exactly what an earlier ingest logged, so
                // any negativity is float round-off, not a logic error —
                // clamp instead of failing mid-rotation.
                let c = &mut counts[cell as usize];
                *c = (*c - delta).max(0.0);
            }
        }
        Ok(())
    }

    /// Re-observes `z = S·x` from the maintained counts, discarding the
    /// accumulated float drift of the delta path: immediately after
    /// `rebase()` the observations are **bitwise identical** to a fresh
    /// [`Session::bind`] of the same data. O(domain) — call it every few
    /// thousand edits, not per edit.
    pub fn rebase(&mut self) -> Result<(), CoreError> {
        self.observations = Arc::new(observe_counts(&self.plan, &self.counts)?);
        Ok(())
    }

    /// Draws one release, deterministic in `seed`: the same (plan, data,
    /// seed) triple always reproduces the same bytes, regardless of thread
    /// count or batch position. The budget solution solved at plan-compile
    /// time is reused — no Step-2 solve happens here.
    pub fn release(&self, seed: u64) -> Result<SessionRelease, CoreError> {
        release_bound(&self.plan, &self.observations, seed)
    }

    /// Draws one release per seed, fanned out with rayon. Each release
    /// seeds its own RNG, so the output is a pure function of the seed
    /// list — independent of batch size, ordering of other seeds, and
    /// thread count — and element `i` equals `self.release(seeds[i])`.
    ///
    /// Each release checks its working buffers (noisy observations,
    /// substream seeds, weights, noise parameters) out of a shared scratch
    /// pool, so a batch of K releases allocates O(workers) scratch arenas
    /// rather than O(K) — only the returned answers and budgets are freshly
    /// allocated.
    ///
    /// An empty seed list returns `Ok(vec![])`: no noise is drawn and no
    /// budget is consumed (the service layer likewise charges nothing for
    /// an empty batch).
    pub fn release_batch(&self, seeds: &[u64]) -> Result<Vec<SessionRelease>, CoreError> {
        seeds.par_iter().map(|&s| self.release(s)).collect()
    }
}

/// The one release path: pure in (plan, observations, seed), so every
/// session — bound, streamed or snapshotted — is byte-identical per seed
/// by construction.
fn release_bound(
    plan: &Plan,
    observations: &[f64],
    seed: u64,
) -> Result<SessionRelease, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (answers, group_budgets, achieved_epsilon) = plan.compiled.release(
        observations,
        plan.privacy(),
        &plan.solution,
        plan.neighboring(),
        &mut rng,
    )?;
    Ok(SessionRelease {
        seed,
        answers,
        group_budgets,
        predicted_variance: plan.predicted_variance,
        achieved_epsilon,
        label: Arc::clone(&plan.label),
    })
}

/// Full observation of a raw data vector — the bind, empty-bind and rebase
/// path of [`Session`].
fn observe_counts(plan: &Plan, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
    let expected = plan.spec().domain_size();
    if counts.len() != expected {
        return Err(CoreError::Shape {
            context: "session data vector",
            expected,
            actual: counts.len(),
        });
    }
    plan.compiled.observe(counts)
}

/// Canonical cache key: the `u64` encoding of a [`PlanBuilder`]'s inputs
/// ([`PlanBuilder::key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey(Vec<u64>);

impl PlanKey {
    /// FNV-mixes the key words into one stable `u64`.
    fn mix(&self) -> u64 {
        fnv1a64(self.0.iter().copied())
    }
}

/// A thread-safe memo of compiled plans keyed by (schema fingerprint,
/// workload, strategy, budgeting, privacy, neighbouring). Repeated requests
/// for the same shape skip strategy compilation *and* the Step-2 budget
/// solve entirely; `K` releases over one cached plan perform exactly one
/// solve (asserted by the integration tests).
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns the cached plan for the builder's key, compiling and
    /// inserting it on first request.
    pub fn get_or_compile(&self, builder: PlanBuilder) -> Result<Arc<Plan>, CoreError> {
        let key = builder.key();
        if let Some(plan) = self
            .plans
            .lock()
            .expect("plan cache lock poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock: compilation can be expensive (cluster
        // search) and must not serialize unrelated requests. A concurrent
        // duplicate compile is possible and benign — first insert wins.
        let plan = Arc::new(builder.compile()?);
        let mut map = self.plans.lock().expect("plan cache lock poisoned");
        Ok(Arc::clone(map.entry(key).or_insert(plan)))
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache lock poisoned").len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that compiled a new plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached plan (statistics are kept).
    pub fn clear(&self) {
        self.plans.lock().expect("plan cache lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> ContingencyTable {
        let mut counts = vec![0.0; 16];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ((i * 7) % 13) as f64;
        }
        ContingencyTable::from_counts(counts)
    }

    fn workload2() -> Workload {
        let schema = Schema::binary(4).unwrap();
        Workload::all_k_way(&schema, 2).unwrap()
    }

    #[test]
    fn plan_compiles_without_data_and_sessions_release() {
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            let plan = Arc::new(
                PlanBuilder::marginals(workload2(), strategy)
                    .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
                    .compile()
                    .unwrap(),
            );
            assert!(plan.achieved_epsilon() <= 1.0 + 1e-9);
            assert_eq!(plan.query_variances().len(), workload2().len());
            let table = small_table();
            let session = Session::bind(Arc::clone(&plan), &table).unwrap();
            let r = session.release(7).unwrap();
            assert_eq!(r.answers.marginals().unwrap().len(), workload2().len());
            assert_eq!(&*r.label, plan.label());
        }
    }

    #[test]
    fn marginal_query_variances_sum_to_predicted_total() {
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let plan = PlanBuilder::marginals(workload2(), strategy)
                    .budgeting(budgeting)
                    .privacy(PrivacyLevel::Pure { epsilon: 0.4 })
                    .compile()
                    .unwrap();
                let sum: f64 = plan.query_variances().iter().sum();
                assert!(
                    (sum - plan.predicted_variance()).abs()
                        < 1e-9 * plan.predicted_variance().max(1.0),
                    "{strategy:?}/{budgeting:?}: {sum} vs {}",
                    plan.predicted_variance()
                );
            }
        }
    }

    #[test]
    fn range_plans_support_approximate_privacy() {
        let w = RangeWorkload::all_prefixes(32).unwrap();
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
        ] {
            let plan = PlanBuilder::ranges(w.clone(), strategy)
                .privacy(PrivacyLevel::Approx {
                    epsilon: 0.8,
                    delta: 1e-6,
                })
                .compile()
                .unwrap();
            assert!(plan.achieved_epsilon() <= 0.8 + 1e-9);
            let hist: Vec<f64> = (0..32).map(|i| ((i * 13) % 7) as f64).collect();
            let session = Session::bind_histogram(Arc::new(plan), &hist).unwrap();
            let r = session.release(3).unwrap();
            assert_eq!(r.answers.ranges().unwrap().len(), w.ranges().len());
        }
    }

    #[test]
    fn binding_the_wrong_data_kind_is_rejected() {
        let marginal_plan = Arc::new(
            PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
                .compile()
                .unwrap(),
        );
        assert!(matches!(
            Session::bind_histogram(marginal_plan, &[0.0; 16]),
            Err(CoreError::InvalidPlan(_))
        ));
        let range_plan = Arc::new(
            PlanBuilder::ranges(
                RangeWorkload::all_prefixes(16).unwrap(),
                RangeStrategy::Wavelet,
            )
            .compile()
            .unwrap(),
        );
        assert!(matches!(
            Session::bind(Arc::clone(&range_plan), &small_table()),
            Err(CoreError::InvalidPlan(_))
        ));
        // Shape mismatches still surface as shape errors.
        assert!(matches!(
            Session::bind_histogram(range_plan, &[0.0; 8]),
            Err(CoreError::Shape { .. })
        ));
    }

    #[test]
    fn cache_hits_skip_compilation() {
        let cache = PlanCache::new();
        let build = || {
            PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
                .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
        };
        let a = cache.get_or_compile(build()).unwrap();
        let b = cache.get_or_compile(build()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // A different ε is a different plan.
        let c = cache
            .get_or_compile(build().privacy(PrivacyLevel::Pure { epsilon: 0.25 }))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_distinguishes_schemas_with_identical_bit_layouts() {
        let s1 = Schema::binary(4).unwrap();
        let s2 = Schema::new(vec![
            crate::schema::Attribute::new("age", 4).unwrap(),
            crate::schema::Attribute::new("sex", 2).unwrap(),
            crate::schema::Attribute::new("flag", 2).unwrap(),
        ])
        .unwrap();
        assert_eq!(s1.domain_bits(), s2.domain_bits());
        assert_ne!(schema_fingerprint(&s1), schema_fingerprint(&s2));
        let cache = PlanCache::new();
        let w = workload2();
        let a = cache
            .get_or_compile(
                PlanBuilder::marginals(w.clone(), StrategyKind::Fourier).for_schema(&s1),
            )
            .unwrap();
        let b = cache
            .get_or_compile(PlanBuilder::marginals(w, StrategyKind::Fourier).for_schema(&s2))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn batch_elements_equal_single_releases() {
        let plan = PlanBuilder::marginals(workload2(), StrategyKind::Workload)
            .compile()
            .unwrap();
        let table = small_table();
        let session = Session::bind(Arc::new(plan), &table).unwrap();
        let seeds = [5u64, 6, 7, 8, 9, 10, 11, 12];
        let batch = session.release_batch(&seeds).unwrap();
        for (r, &seed) in batch.iter().zip(&seeds) {
            let single = session.release(seed).unwrap();
            assert_eq!(r.seed, seed);
            let (a, b) = (r.answers.marginals().unwrap(), single.answers.marginals());
            for ((_, ma), (_, mb)) in a.iter().zip(b.unwrap().iter()) {
                assert_eq!(ma, mb);
            }
        }
    }

    #[test]
    fn resolved_at_matches_a_fresh_compile() {
        // Re-solving over the shared compiled operator must be
        // indistinguishable from compiling from scratch — same budgets,
        // same bytes per seed — while skipping the strategy build.
        let base = PlanBuilder::marginals(workload2(), StrategyKind::Cluster)
            .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
            .compile()
            .unwrap();
        let resolved = Arc::new(
            base.resolved_at(PrivacyLevel::Pure { epsilon: 0.25 }, Budgeting::Uniform)
                .unwrap(),
        );
        let fresh = Arc::new(
            PlanBuilder::marginals(workload2(), StrategyKind::Cluster)
                .budgeting(Budgeting::Uniform)
                .privacy(PrivacyLevel::Pure { epsilon: 0.25 })
                .compile()
                .unwrap(),
        );
        assert_eq!(resolved, fresh);
        assert_eq!(resolved.query_variances(), fresh.query_variances());
        let table = small_table();
        let a = Session::bind(Arc::clone(&resolved), &table)
            .unwrap()
            .release(3)
            .unwrap();
        let b = Session::bind(fresh, &table).unwrap().release(3).unwrap();
        for ((_, x), (_, y)) in a
            .answers
            .marginals()
            .unwrap()
            .iter()
            .zip(b.answers.marginals().unwrap().iter())
        {
            assert_eq!(x, y);
        }
        // The compiled operator really is shared, not rebuilt.
        assert!(Arc::ptr_eq(&base.compiled, &resolved.compiled));
    }

    #[test]
    fn snapshots_keep_their_state_while_the_session_moves_on() {
        let plan = Arc::new(
            PlanBuilder::ranges(
                RangeWorkload::all_prefixes(16).unwrap(),
                RangeStrategy::Wavelet,
            )
            .compile()
            .unwrap(),
        );
        let hist: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut session = Session::bind_histogram(Arc::clone(&plan), &hist).unwrap();
        let before = session.release(3).unwrap();
        let snapshot = session.snapshot();
        assert!(Arc::ptr_eq(&session.observations, &snapshot.observations));
        session.ingest(5).unwrap();
        // The ingest copied the shared buffer instead of writing through
        // the snapshot's view.
        assert!(!Arc::ptr_eq(&session.observations, &snapshot.observations));
        assert_eq!(snapshot.counts(), hist.as_slice());
        let batch = snapshot.release_batch(&[3, 4]).unwrap();
        assert_eq!(batch[0].answers.ranges(), before.answers.ranges());
        assert_ne!(
            session.release(3).unwrap().answers.ranges(),
            before.answers.ranges()
        );
        // A snapshot is release-only: it carries no window to advance.
        let mut windowed = Session::empty(plan).unwrap().with_window(2);
        windowed.advance().unwrap();
        assert!(matches!(
            windowed.snapshot().advance(),
            Err(CoreError::InvalidPlan(_))
        ));
    }

    #[test]
    fn empty_seed_batches_release_nothing() {
        let plan = PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
            .compile()
            .unwrap();
        let session = Session::bind(Arc::new(plan), &small_table()).unwrap();
        assert!(session.release_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn streaming_ingest_tracks_a_fresh_bind() {
        let plan = Arc::new(
            PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
                .compile()
                .unwrap(),
        );
        let mut stream = Session::empty(Arc::clone(&plan)).unwrap();
        let cells = [3u64, 5, 5, 12, 0, 15];
        for &c in &cells {
            stream.ingest(c).unwrap();
        }
        stream.retract(5).unwrap();
        let mut table = ContingencyTable::zeros(4);
        for &c in &[3u64, 5, 12, 0, 15] {
            table.add_count(c, 1.0).unwrap();
        }
        let fresh = Session::bind(Arc::clone(&plan), &table).unwrap();
        // Observations agree to float accumulation; after rebase, bitwise.
        stream.rebase().unwrap();
        let direct = plan.compiled.observe(table.counts()).unwrap();
        assert_eq!(stream.observations(), direct.as_slice());
        // ...and the releases are byte-identical.
        let a = stream.release(9).unwrap();
        let b = fresh.release(9).unwrap();
        for ((_, ma), (_, mb)) in a
            .answers
            .marginals()
            .unwrap()
            .iter()
            .zip(b.answers.marginals().unwrap().iter())
        {
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn streaming_guards_cell_range_and_negative_counts() {
        let plan = Arc::new(
            PlanBuilder::marginals(workload2(), StrategyKind::Workload)
                .compile()
                .unwrap(),
        );
        let mut stream = Session::empty(plan).unwrap();
        assert!(matches!(stream.ingest(16), Err(CoreError::Shape { .. })));
        assert!(matches!(
            stream.retract(2),
            Err(CoreError::NegativeCount { cell: 2, .. })
        ));
        // Failed edits leave the session untouched.
        assert!(stream.observations().iter().all(|&z| z == 0.0));
        assert!(matches!(stream.advance(), Err(CoreError::InvalidPlan(_))));
    }

    #[test]
    fn streaming_refuses_non_finite_deltas() {
        let plan = Arc::new(
            PlanBuilder::marginals(workload2(), StrategyKind::Workload)
                .compile()
                .unwrap(),
        );
        let mut stream = Session::empty(plan).unwrap();
        stream.ingest_count(5, 2.0).unwrap();
        let before = stream.snapshot();
        for delta in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(matches!(
                stream.ingest_count(5, delta),
                Err(CoreError::NonFiniteDelta { cell: 5, .. })
            ));
        }
        assert_eq!(stream.counts(), before.counts());
        assert_eq!(stream.observations(), before.observations());
        // A finite delta whose sum overflows is refused the same way.
        stream.ingest_count(1, f64::MAX).unwrap();
        assert!(matches!(
            stream.ingest_count(1, f64::MAX),
            Err(CoreError::NonFiniteDelta { cell: 1, .. })
        ));
        assert_eq!(stream.counts()[1], f64::MAX);
    }

    #[test]
    fn streaming_window_expiry_matches_direct_bind() {
        let plan = Arc::new(
            PlanBuilder::ranges(
                RangeWorkload::all_prefixes(16).unwrap(),
                RangeStrategy::Hierarchical,
            )
            .compile()
            .unwrap(),
        );
        let mut stream = Session::empty(Arc::clone(&plan)).unwrap().with_window(2);
        // Bucket 0 (will expire), bucket 1 and 2 (survive).
        for c in [1u64, 2, 3] {
            stream.ingest(c).unwrap();
        }
        stream.advance().unwrap();
        for c in [4u64, 4] {
            stream.ingest(c).unwrap();
        }
        stream.advance().unwrap();
        stream.ingest(9).unwrap();
        stream.advance().unwrap(); // expires bucket 0
        let mut hist = vec![0.0; 16];
        for c in [4usize, 4, 9] {
            hist[c] += 1.0;
        }
        assert_eq!(stream.counts(), hist.as_slice());
        let direct = Session::bind_histogram(plan, &hist).unwrap();
        let (a, b) = (stream.release(5).unwrap(), direct.release(5).unwrap());
        let (ra, rb) = (a.answers.ranges().unwrap(), b.answers.ranges().unwrap());
        for (x, y) in ra.iter().zip(rb) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn infeasible_privacy_is_rejected_at_compile_time() {
        assert!(PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
            .privacy(PrivacyLevel::Pure { epsilon: 0.0 })
            .compile()
            .is_err());
        assert!(PlanBuilder::marginals(workload2(), StrategyKind::Fourier)
            .privacy(PrivacyLevel::Approx {
                epsilon: 1.0,
                delta: 2.0,
            })
            .compile()
            .is_err());
    }
}
