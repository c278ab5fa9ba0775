//! `serde` implementations for the public plan and answer types, and the
//! shared wire codecs of the plan inputs.
//!
//! Written by hand (rather than derived) because every one of these types
//! guards an invariant — validated cardinality, deduplicated in-domain
//! workloads — and deserialization must re-enter through the validating
//! constructors instead of bypassing them.
//!
//! Wire format (JSON via the workspace's `serde_json`): an attribute mask
//! travels as its `u64` bit pattern. The release document (seed, label,
//! achieved ε, budgets, answers) is encoded in one place,
//! `dp_service::protocol`, where each released marginal travels as
//!
//! ```json
//! {"attributes": 3, "cells": [1.0, 0.0, 2.0, 1.0]}
//! ```
//!
//! A plan's inputs (a [`PlanBuilder`]: spec, budgeting, privacy,
//! neighbouring) have one encoder, which plan documents and the service's
//! `compile` requests share. A `compile` object is the input fields alone;
//! its decoder keeps the builder's defaults for an absent budgeting or
//! neighbouring. A [`Plan`] document follows the same fields with the
//! schema fingerprint, the solved budgets and the variance predictions, so
//! a compiled plan can be shipped between processes; it must name every
//! input, and deserialization recompiles the strategy operator from the
//! spec and re-validates the shipped budgets (see the [`Deserialize`] impl
//! for [`Plan`]). Privacy levels, budgeting modes and neighbouring
//! conventions have one codec each here ([`privacy_value`],
//! [`budgeting_value`], [`neighboring_value`] and their inverses), which
//! every other layer reuses.

use crate::api::{Plan, PlanBuilder, WorkloadSpec};
use crate::cluster::ClusterConfig;
use crate::mask::AttrMask;
use crate::range::{RangeStrategy, RangeWorkload};
use crate::release::StrategyKind;
use crate::strategy::Budgeting;
use crate::workload::Workload;
use crate::{
    schema::{Attribute, Schema},
    CoreError,
};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_opt::budget::BudgetSolution;
use serde::{DeError, Deserialize, Serialize, Value};

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    value
        .get_field(name)
        .ok_or_else(|| DeError::missing_field(name))
}

/// Serializes a `u64` exactly: as a JSON number below 2^53 (where f64 is
/// exact) and as a decimal string above. Public so protocol layers built on
/// the same `serde` shim (e.g. `dp-service`) share one wire rule for seeds
/// and fingerprints.
pub fn u64_value(v: u64) -> Value {
    if v < (1u64 << 53) {
        Value::Number(v as f64)
    } else {
        Value::String(v.to_string())
    }
}

/// Inverse of [`u64_value`].
pub fn u64_from(value: &Value, what: &str) -> Result<u64, DeError> {
    if let Some(s) = value.as_str() {
        return s
            .parse::<u64>()
            .map_err(|_| DeError::new(format!("invalid {what} {s:?}")));
    }
    let bits = value
        .as_f64()
        .ok_or_else(|| DeError::new(format!("{what} must be a number or string")))?;
    if bits < 0.0 || bits.fract() != 0.0 || bits >= (1u64 << 53) as f64 {
        return Err(DeError::new(format!("invalid {what} {bits}")));
    }
    Ok(bits as u64)
}

/// Wire encoding of a privacy level: `{"epsilon": ε}` or
/// `{"epsilon": ε, "delta": δ}`. Plan documents, service requests, the
/// budget ledger and `budget_status` replies all share it.
pub fn privacy_value(level: PrivacyLevel) -> Value {
    let mut fields = vec![("epsilon".into(), Value::Number(level.epsilon()))];
    if let PrivacyLevel::Approx { delta, .. } = level {
        fields.push(("delta".into(), Value::Number(delta)));
    }
    Value::Object(fields)
}

/// Inverse of [`privacy_value`]: a `delta` field makes the level
/// approximate.
pub fn privacy_from(value: &Value) -> Result<PrivacyLevel, DeError> {
    let epsilon = f64::deserialize_value(field(value, "epsilon")?)?;
    Ok(match value.get_field("delta") {
        Some(delta) => PrivacyLevel::Approx {
            epsilon,
            delta: f64::deserialize_value(delta)?,
        },
        None => PrivacyLevel::Pure { epsilon },
    })
}

/// Wire names of the budgeting modes.
const BUDGETING_NAMES: [(Budgeting, &str); 2] = [
    (Budgeting::Uniform, "uniform"),
    (Budgeting::Optimal, "optimal"),
];

/// Wire names of the neighbouring conventions.
const NEIGHBORING_NAMES: [(Neighboring, &str); 2] = [
    (Neighboring::AddRemove, "add_remove"),
    (Neighboring::Replace, "replace"),
];

/// Wire names of the marginal strategies.
const STRATEGY_NAMES: [(StrategyKind, &str); 4] = [
    (StrategyKind::Identity, "identity"),
    (StrategyKind::Workload, "workload"),
    (StrategyKind::Fourier, "fourier"),
    (StrategyKind::Cluster, "cluster"),
];

/// Wire names of the range strategies without parameters; a sketch is an
/// object with its parameters.
const RANGE_STRATEGY_NAMES: [(RangeStrategy, &str); 3] = [
    (RangeStrategy::Identity, "identity"),
    (RangeStrategy::Hierarchical, "hierarchical"),
    (RangeStrategy::Wavelet, "wavelet"),
];

/// The wire name of `variant` in a name table.
fn name_value<T: PartialEq>(names: &[(T, &str)], variant: T) -> Value {
    let (_, name) = names
        .iter()
        .find(|(v, _)| *v == variant)
        .expect("every variant has a wire name");
    Value::String((*name).into())
}

/// The variant a wire name stands for in a name table.
fn named<T: Copy>(names: &[(T, &str)], value: &Value, what: &str) -> Result<T, DeError> {
    let name = String::deserialize_value(value)?;
    names
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(v, _)| *v)
        .ok_or_else(|| DeError::new(format!("unknown {what} {name:?}")))
}

/// Wire encoding of a budgeting mode: its name in `BUDGETING_NAMES`.
pub fn budgeting_value(budgeting: Budgeting) -> Value {
    name_value(&BUDGETING_NAMES, budgeting)
}

/// Inverse of [`budgeting_value`].
pub fn budgeting_from(value: &Value) -> Result<Budgeting, DeError> {
    named(&BUDGETING_NAMES, value, "budgeting")
}

/// Wire encoding of a neighbouring convention: its name in
/// `NEIGHBORING_NAMES`.
pub fn neighboring_value(neighboring: Neighboring) -> Value {
    name_value(&NEIGHBORING_NAMES, neighboring)
}

/// Inverse of [`neighboring_value`].
pub fn neighboring_from(value: &Value) -> Result<Neighboring, DeError> {
    named(&NEIGHBORING_NAMES, value, "neighboring")
}

impl Serialize for AttrMask {
    fn serialize_value(&self) -> Value {
        u64_value(self.0)
    }
}

impl Deserialize for AttrMask {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        // On top of the shared u64 wire rule, masks carry the domain bound:
        // domains up to 63 bits are legal.
        let bits = u64_from(value, "attribute mask")?;
        if bits >= (1u64 << 63) {
            return Err(DeError::new(format!("invalid attribute mask {bits}")));
        }
        Ok(AttrMask(bits))
    }
}

impl Serialize for Attribute {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.serialize_value()),
            ("cardinality".into(), self.cardinality.serialize_value()),
        ])
    }
}

impl Deserialize for Attribute {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let name = String::deserialize_value(field(value, "name")?)?;
        let cardinality = usize::deserialize_value(field(value, "cardinality")?)?;
        Attribute::new(name, cardinality).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Serialize for Schema {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![(
            "attributes".into(),
            self.attributes().serialize_value(),
        )])
    }
}

impl Deserialize for Schema {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let attributes = Vec::<Attribute>::deserialize_value(field(value, "attributes")?)?;
        Schema::new(attributes).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Serialize for WorkloadSpec {
    fn serialize_value(&self) -> Value {
        match self {
            WorkloadSpec::Marginals {
                workload, strategy, ..
            } => Value::Object(vec![
                ("kind".into(), Value::String("marginals".into())),
                ("workload".into(), workload.serialize_value()),
                ("strategy".into(), name_value(&STRATEGY_NAMES, *strategy)),
            ]),
            WorkloadSpec::Ranges { workload, strategy } => {
                let ranges: Vec<Value> = workload
                    .ranges()
                    .iter()
                    .map(|&(lo, hi)| {
                        Value::Array(vec![Value::Number(lo as f64), Value::Number(hi as f64)])
                    })
                    .collect();
                let strategy_value = match strategy {
                    RangeStrategy::Identity
                    | RangeStrategy::Hierarchical
                    | RangeStrategy::Wavelet => name_value(&RANGE_STRATEGY_NAMES, *strategy),
                    RangeStrategy::Sketch {
                        repetitions,
                        buckets,
                        seed,
                    } => Value::Object(vec![
                        ("kind".into(), Value::String("sketch".into())),
                        ("repetitions".into(), Value::Number(*repetitions as f64)),
                        ("buckets".into(), Value::Number(*buckets as f64)),
                        ("seed".into(), u64_value(*seed)),
                    ]),
                };
                Value::Object(vec![
                    ("kind".into(), Value::String("ranges".into())),
                    ("domain".into(), Value::Number(workload.domain() as f64)),
                    ("ranges".into(), Value::Array(ranges)),
                    ("strategy".into(), strategy_value),
                ])
            }
        }
    }
}

impl Deserialize for WorkloadSpec {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let kind = String::deserialize_value(field(value, "kind")?)?;
        match kind.as_str() {
            "marginals" => {
                let workload = Workload::deserialize_value(field(value, "workload")?)?;
                let strategy = named(&STRATEGY_NAMES, field(value, "strategy")?, "strategy")?;
                // Cluster documents once carried a `"cluster"` search
                // object; like any other unknown field it is ignored.
                refuse_oversized(WorkloadSpec::Marginals {
                    workload,
                    strategy,
                    cluster: ClusterConfig,
                })
            }
            "ranges" => {
                let n = usize::deserialize_value(field(value, "domain")?)?;
                let ranges = Vec::<Vec<usize>>::deserialize_value(field(value, "ranges")?)?
                    .into_iter()
                    .map(|pair| match pair.as_slice() {
                        [lo, hi] => Ok((*lo, *hi)),
                        _ => Err(DeError::new("range must be a [lo, hi) pair")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let strategy_value = field(value, "strategy")?;
                let strategy = if strategy_value.as_str().is_some() {
                    named(&RANGE_STRATEGY_NAMES, strategy_value, "range strategy")?
                } else {
                    let kind = String::deserialize_value(field(strategy_value, "kind")?)?;
                    if kind != "sketch" {
                        return Err(DeError::new(format!("unknown range strategy {kind:?}")));
                    }
                    RangeStrategy::Sketch {
                        repetitions: usize::deserialize_value(field(
                            strategy_value,
                            "repetitions",
                        )?)?,
                        buckets: usize::deserialize_value(field(strategy_value, "buckets")?)?,
                        seed: u64_from(field(strategy_value, "seed")?, "sketch seed")?,
                    }
                };
                let workload = RangeWorkload::new(n, ranges)
                    .map_err(|e| DeError::new(format!("invalid range workload: {e}")))?;
                refuse_oversized(WorkloadSpec::Ranges { workload, strategy })
            }
            other => Err(DeError::new(format!("unknown workload kind {other:?}"))),
        }
    }
}

/// Largest data vector a shipped spec may name: `2^24` cells (`2^d` or the
/// range domain `n`). Compiling and binding allocate in proportion to it.
/// The same cap bounds a marginal workload's `Σ_α 2^{‖α‖}`, which bounds
/// its answers, its `Q` observations and its Fourier support.
const MAX_DOMAIN_CELLS: usize = 1 << 24;

/// Largest dense buffer (`q·n`, `m·n` or `n·n` entries) a shipped sketch
/// spec may make the dense planner materialize.
const MAX_DENSE_ENTRIES: usize = 1 << 24;

/// Most ranges a shipped range workload may list: `2^16`. Every range is
/// one answer in every release, so without a cap only the 16 MiB request
/// line bounds a plan's reply. The same line limit bounds the reply the
/// client reads, so an uncapped plan could be charged for a release whose
/// reply no client can read.
const MAX_RANGES: usize = 1 << 16;

/// Most marginals a shipped `Cluster` workload may list: 4096. The greedy
/// cluster search costs about ℓ² delta evaluations in the number of
/// marginals ℓ (4845 marginals compiled in 1.1 s, 26334 in 26.1 s), and
/// the cell caps above still admit about 134k marginals.
const MAX_CLUSTER_MARGINALS: usize = 4096;

/// Refuses a decoded spec whose compile would allocate beyond the size
/// caps, before anything is built: a shipped document must never make a
/// server allocate in proportion to a number it chose.
fn refuse_oversized(spec: WorkloadSpec) -> Result<WorkloadSpec, DeError> {
    let n = spec.domain_size();
    if n > MAX_DOMAIN_CELLS {
        return Err(DeError::new(format!(
            "a domain of {n} cells exceeds the {MAX_DOMAIN_CELLS}-cell limit"
        )));
    }
    if let WorkloadSpec::Ranges { workload, .. } = &spec {
        let count = workload.ranges().len();
        if count > MAX_RANGES {
            return Err(DeError::new(format!(
                "{count} ranges exceed the {MAX_RANGES}-range limit"
            )));
        }
    }
    if let WorkloadSpec::Marginals {
        workload, strategy, ..
    } = &spec
    {
        let count = workload.len();
        if *strategy == StrategyKind::Cluster && count > MAX_CLUSTER_MARGINALS {
            return Err(DeError::new(format!(
                "{count} cluster marginals exceed the {MAX_CLUSTER_MARGINALS}-marginal limit"
            )));
        }
        // 2^d ≤ MAX_DOMAIN_CELLS here, so no term or sum can overflow.
        let cells = workload.total_cells();
        if cells > MAX_DOMAIN_CELLS {
            return Err(DeError::new(format!(
                "{} marginals totalling {cells} cells exceed the {MAX_DOMAIN_CELLS}-cell limit",
                workload.len()
            )));
        }
    }
    if let WorkloadSpec::Ranges {
        workload,
        strategy:
            RangeStrategy::Sketch {
                repetitions,
                buckets,
                ..
            },
    } = &spec
    {
        let rows = repetitions.saturating_mul(*buckets);
        let widest = workload.ranges().len().max(rows).max(n).saturating_mul(n);
        if rows == 0 || widest > MAX_DENSE_ENTRIES {
            return Err(DeError::new(format!(
                "a {repetitions}×{buckets} sketch over {n} cells needs at least one row \
                 and at most {MAX_DENSE_ENTRIES} dense entries (here {widest})"
            )));
        }
    }
    Ok(spec)
}

/// The one encoder of a plan's inputs: `spec`, `budgeting`, `privacy` and
/// `neighboring`, in that order. A `compile` request sends them alone; a
/// plan document follows them with its schema fingerprint and solution.
fn input_fields(inputs: &PlanBuilder) -> Vec<(String, Value)> {
    vec![
        ("spec".into(), inputs.spec.serialize_value()),
        ("budgeting".into(), budgeting_value(inputs.budgeting)),
        ("privacy".into(), privacy_value(inputs.privacy)),
        ("neighboring".into(), neighboring_value(inputs.neighboring)),
    ]
}

impl Serialize for PlanBuilder {
    /// The `compile` object of a `register_plan` request: the input fields
    /// alone. The schema tag stays behind; a server compiles untagged.
    fn serialize_value(&self) -> Value {
        Value::Object(input_fields(self))
    }
}

impl Deserialize for PlanBuilder {
    /// Inverse of the `Serialize` impl. It starts from
    /// [`PlanBuilder::new`], so an absent `budgeting` or `neighboring`
    /// keeps the builder's default; `spec` and `privacy` are required. A
    /// plan document requires all four (see the [`Plan`] impl).
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let mut inputs = PlanBuilder::new(WorkloadSpec::deserialize_value(field(value, "spec")?)?);
        if let Some(budgeting) = value.get_field("budgeting") {
            inputs = inputs.budgeting(budgeting_from(budgeting)?);
        }
        inputs = inputs.privacy(privacy_from(field(value, "privacy")?)?);
        if let Some(neighboring) = value.get_field("neighboring") {
            inputs = inputs.neighboring(neighboring_from(neighboring)?);
        }
        Ok(inputs)
    }
}

impl Serialize for Plan {
    /// A plan's wire format carries everything data-like — the inputs
    /// (spec, budgeting, privacy, neighbouring, schema fingerprint), the
    /// solved budgets and the variance predictions. The compiled operator
    /// is *not* shipped: the receiving side recompiles it deterministically
    /// from the spec (and keeps the shipped budget solution, skipping the
    /// Step-2 solve).
    fn serialize_value(&self) -> Value {
        let mut fields = input_fields(self.inputs());
        fields.extend([
            (
                "schema_fingerprint".into(),
                u64_value(self.inputs().schema_tag),
            ),
            (
                "group_budgets".into(),
                self.solution().group_budgets.serialize_value(),
            ),
            (
                "objective".into(),
                self.solution().objective.serialize_value(),
            ),
            (
                "achieved_epsilon".into(),
                self.achieved_epsilon().serialize_value(),
            ),
            (
                "predicted_variance".into(),
                self.predicted_variance().serialize_value(),
            ),
            (
                "query_variances".into(),
                self.query_variances().serialize_value(),
            ),
        ]);
        Value::Object(fields)
    }
}

impl Deserialize for Plan {
    /// Recompiles the strategy operator from the spec and re-validates the
    /// shipped budget solution against it (group count, Proposition-3.1
    /// feasibility). The achieved ε and variance predictions are re-derived
    /// — a tampered document cannot smuggle optimistic accounting.
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let mut inputs = PlanBuilder::deserialize_value(value)?;
        // Unlike a `compile` object, a shipped plan names every input.
        for name in ["budgeting", "neighboring"] {
            field(value, name)?;
        }
        inputs.schema_tag = u64_from(field(value, "schema_fingerprint")?, "schema fingerprint")?;
        let solution = BudgetSolution {
            group_budgets: Vec::<f64>::deserialize_value(field(value, "group_budgets")?)?,
            objective: f64::deserialize_value(field(value, "objective")?)?,
        };
        Plan::from_shipped_parts(inputs, solution)
            .map_err(|e: CoreError| DeError::new(format!("invalid plan document: {e}")))
    }
}

impl Serialize for Workload {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("domain_bits".into(), self.domain_bits().serialize_value()),
            ("marginals".into(), self.marginals().serialize_value()),
        ])
    }
}

impl Deserialize for Workload {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let d = usize::deserialize_value(field(value, "domain_bits")?)?;
        let marginals = Vec::<AttrMask>::deserialize_value(field(value, "marginals")?)?;
        Workload::new(d, marginals).map_err(|e| DeError::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_input_codecs_roundtrip_and_refuse_wrong_types() {
        for level in [
            PrivacyLevel::Pure { epsilon: 0.5 },
            PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 1e-6,
            },
        ] {
            assert_eq!(privacy_from(&privacy_value(level)).unwrap(), level);
        }
        for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
            assert_eq!(
                budgeting_from(&budgeting_value(budgeting)).unwrap(),
                budgeting
            );
        }
        for neighboring in [Neighboring::AddRemove, Neighboring::Replace] {
            assert_eq!(
                neighboring_from(&neighboring_value(neighboring)).unwrap(),
                neighboring
            );
        }
        assert!(budgeting_from(&Value::Number(1.0)).is_err());
        assert!(budgeting_from(&Value::String("greedy".into())).is_err());
        assert!(neighboring_from(&Value::Bool(true)).is_err());
        assert!(privacy_from(&Value::Object(vec![])).is_err());
        let bad_delta = Value::Object(vec![
            ("epsilon".into(), Value::Number(1.0)),
            ("delta".into(), Value::String("tiny".into())),
        ]);
        assert!(privacy_from(&bad_delta).is_err());
    }

    #[test]
    fn schema_and_workload_roundtrip() {
        let schema = Schema::new(vec![
            Attribute::new("age", 16).unwrap(),
            Attribute::new("sex", 2).unwrap(),
        ])
        .unwrap();
        let back = Schema::deserialize_value(&schema.serialize_value()).unwrap();
        assert_eq!(back, schema);

        let w = Workload::all_k_way(&Schema::binary(5).unwrap(), 2).unwrap();
        let back = Workload::deserialize_value(&w.serialize_value()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn invalid_documents_are_rejected_by_the_validating_constructors() {
        // Cardinality 1 is rejected by Attribute::new.
        let bad = Value::Object(vec![
            ("name".into(), Value::String("x".into())),
            ("cardinality".into(), Value::Number(1.0)),
        ]);
        assert!(Attribute::deserialize_value(&bad).is_err());

        // Workload whose mask exceeds the domain is rejected by
        // Workload::new.
        let bad = Value::Object(vec![
            ("domain_bits".into(), Value::Number(2.0)),
            ("marginals".into(), Value::Array(vec![Value::Number(8.0)])),
        ]);
        assert!(Workload::deserialize_value(&bad).is_err());

        // Missing fields are reported.
        assert!(Attribute::deserialize_value(&Value::Object(vec![])).is_err());
        // Negative / fractional masks are rejected.
        assert!(AttrMask::deserialize_value(&Value::Number(-1.0)).is_err());
        assert!(AttrMask::deserialize_value(&Value::Number(1.5)).is_err());
        assert!(AttrMask::deserialize_value(&Value::String("not a mask".into())).is_err());
    }

    #[test]
    fn marginal_plan_roundtrips_through_value() {
        let w = Workload::new(3, vec![AttrMask(0b011), AttrMask(0b110)]).unwrap();
        let plan = PlanBuilder::marginals(w, StrategyKind::Cluster)
            .privacy(PrivacyLevel::Approx {
                epsilon: 0.5,
                delta: 1e-6,
            })
            .compile()
            .unwrap();
        let v = plan.serialize_value();
        let back = Plan::deserialize_value(&v).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.query_variances(), plan.query_variances());
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn a_cluster_search_object_in_a_plan_document_is_ignored() {
        let w = Workload::new(3, vec![AttrMask(0b011), AttrMask(0b110)]).unwrap();
        let plan = PlanBuilder::marginals(w, StrategyKind::Cluster)
            .compile()
            .unwrap();
        let v = plan.serialize_value();
        let spec = field(&v, "spec").unwrap();
        assert!(spec.get_field("cluster").is_none());
        let Value::Object(mut fields) = v else {
            panic!("plan serializes as an object");
        };
        for (k, fv) in &mut fields {
            if let ("spec", Value::Object(spec_fields)) = (k.as_str(), fv) {
                spec_fields.push(("cluster".into(), Value::String("turbo".into())));
            }
        }
        let back = Plan::deserialize_value(&Value::Object(fields)).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn strategy_names_roundtrip_and_unknown_names_are_refused() {
        let with_strategy = |v: &Value, name: Value| {
            let Value::Object(mut fields) = v.clone() else {
                panic!("a spec serializes as an object");
            };
            for (k, fv) in &mut fields {
                if k == "strategy" {
                    *fv = name.clone();
                }
            }
            WorkloadSpec::deserialize_value(&Value::Object(fields))
        };
        let w = Workload::new(3, vec![AttrMask(0b011)]).unwrap();
        let mut spec_value = Value::Null;
        for (strategy, name) in STRATEGY_NAMES {
            let spec = WorkloadSpec::Marginals {
                workload: w.clone(),
                strategy,
                cluster: ClusterConfig,
            };
            spec_value = spec.serialize_value();
            assert_eq!(field(&spec_value, "strategy").unwrap().as_str(), Some(name));
            assert_eq!(WorkloadSpec::deserialize_value(&spec_value).unwrap(), spec);
        }
        assert_eq!(
            with_strategy(&spec_value, Value::String("x".into())),
            Err(DeError::new("unknown strategy \"x\""))
        );
        let w = crate::range::RangeWorkload::all_prefixes(4).unwrap();
        for (strategy, name) in RANGE_STRATEGY_NAMES {
            let spec = WorkloadSpec::Ranges {
                workload: w.clone(),
                strategy,
            };
            spec_value = spec.serialize_value();
            assert_eq!(field(&spec_value, "strategy").unwrap().as_str(), Some(name));
            assert_eq!(WorkloadSpec::deserialize_value(&spec_value).unwrap(), spec);
        }
        assert_eq!(
            with_strategy(&spec_value, Value::String("x".into())),
            Err(DeError::new("unknown range strategy \"x\""))
        );
    }

    #[test]
    fn range_plan_roundtrips_and_rejects_tampering() {
        let w = crate::range::RangeWorkload::all_prefixes(16).unwrap();
        let plan = PlanBuilder::ranges(w, crate::range::RangeStrategy::Hierarchical)
            .privacy(PrivacyLevel::Pure { epsilon: 0.3 })
            .compile()
            .unwrap();
        let v = plan.serialize_value();
        let back = Plan::deserialize_value(&v).unwrap();
        assert_eq!(back, plan);

        // Inflating a shipped budget must fail Proposition-3.1 validation.
        let Value::Object(mut fields) = v.clone() else {
            panic!("plan serializes as an object");
        };
        for (k, fv) in &mut fields {
            if k == "group_budgets" {
                let Value::Array(budgets) = fv else {
                    panic!("budgets are an array");
                };
                budgets[0] = Value::Number(10.0);
            }
        }
        assert!(Plan::deserialize_value(&Value::Object(fields)).is_err());

        // Deflating the shipped objective (which drives predicted_variance)
        // must fail the objective-vs-budgets consistency check.
        let Value::Object(mut fields) = v else {
            panic!("plan serializes as an object");
        };
        for (k, fv) in &mut fields {
            if k == "objective" {
                *fv = Value::Number(1e-12);
            }
        }
        assert!(matches!(
            Plan::deserialize_value(&Value::Object(fields)),
            Err(DeError { .. })
        ));
    }

    #[test]
    fn range_workloads_are_capped_at_max_ranges() {
        let spec = |count: usize| {
            let ranges = (0..count)
                .map(|k| Value::Array(vec![Value::Number((k % 16) as f64), Value::Number(16.0)]))
                .collect();
            Value::Object(vec![
                ("kind".into(), Value::String("ranges".into())),
                ("domain".into(), Value::Number(16.0)),
                ("ranges".into(), Value::Array(ranges)),
                ("strategy".into(), Value::String("wavelet".into())),
            ])
        };
        let at_cap = WorkloadSpec::deserialize_value(&spec(MAX_RANGES)).unwrap();
        let WorkloadSpec::Ranges { workload, .. } = at_cap else {
            panic!("a range spec decodes as ranges");
        };
        assert_eq!(workload.ranges().len(), MAX_RANGES);
        let err = WorkloadSpec::deserialize_value(&spec(MAX_RANGES + 1)).unwrap_err();
        assert!(err.to_string().contains("range limit"), "{err}");
    }

    #[test]
    fn cluster_workloads_are_capped_at_max_cluster_marginals() {
        // Masks 1..=count over 13 bits: distinct, and far below the cell cap.
        let spec = |count: usize, strategy: &str| {
            let masks = (1..=count).map(|m| Value::Number(m as f64)).collect();
            Value::Object(vec![
                ("kind".into(), Value::String("marginals".into())),
                (
                    "workload".into(),
                    Value::Object(vec![
                        ("domain_bits".into(), Value::Number(13.0)),
                        ("marginals".into(), Value::Array(masks)),
                    ]),
                ),
                ("strategy".into(), Value::String(strategy.into())),
            ])
        };
        let at_cap = WorkloadSpec::deserialize_value(&spec(MAX_CLUSTER_MARGINALS, "cluster"));
        assert_eq!(at_cap.unwrap().num_queries(), MAX_CLUSTER_MARGINALS);
        let over = spec(MAX_CLUSTER_MARGINALS + 1, "cluster");
        let err = WorkloadSpec::deserialize_value(&over).unwrap_err();
        assert!(err.to_string().contains("4097 cluster marginals"), "{err}");
        // The cap is the cluster search's: other strategies may list more.
        let fourier = spec(MAX_CLUSTER_MARGINALS + 1, "fourier");
        assert!(WorkloadSpec::deserialize_value(&fourier).is_ok());
    }

    #[test]
    fn large_masks_roundtrip_exactly_via_strings() {
        // Bit patterns at or above 2^53 cannot survive an f64; they must
        // travel as decimal strings, bit-exactly.
        for bits in [(1u64 << 59) | 1, (1u64 << 62) | (1 << 3), (1u64 << 53)] {
            let mask = AttrMask(bits);
            let v = mask.serialize_value();
            assert!(
                matches!(v, Value::String(_)),
                "{bits:#x} must serialize as string"
            );
            assert_eq!(AttrMask::deserialize_value(&v).unwrap(), mask);
        }
        // Small masks stay as JSON numbers.
        let small = AttrMask(0b101);
        assert!(matches!(small.serialize_value(), Value::Number(_)));
        assert_eq!(
            AttrMask::deserialize_value(&small.serialize_value()).unwrap(),
            small
        );
    }
}
