//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out.
//!
//! ## Requests
//!
//! ```json
//! {"op": "open_tenant",   "tenant": "t1", "budget": {"epsilon": 1.0}, "tenant_token": "…"}
//! {"op": "register_plan", "tenant": "t1", "plan": { …plan document… }}
//! {"op": "register_plan", "tenant": "t1", "compile": {"spec": {…}, "privacy": {…}}}
//! {"op": "bind",          "tenant": "t1", "plan_id": "…", "table": "nltcs"}
//! {"op": "release",       "tenant": "t1", "session": "…", "seeds": [1, 2, 3], "request_id": "…"}
//! {"op": "stream_open",   "tenant": "t1", "plan_id": "…", "table": "nltcs"}
//! {"op": "ingest",        "tenant": "t1", "stream": "…", "cell": 5, "delta": 1.0}
//! {"op": "release_current", "tenant": "t1", "stream": "…", "seeds": [1], "request_id": "…"}
//! {"op": "budget_status", "tenant": "t1"}
//! {"op": "ping"}
//! {"op": "shutdown"}
//! ```
//!
//! `register_plan` accepts either a full serialized [`Plan`] document (the
//! output of `datacube-dp plan`; budgets already solved, no server-side
//! solve) or a `compile` object — the data-independent plan *inputs* (spec,
//! budgeting, privacy, neighbouring) — which the server compiles through
//! its shared [`dp_core::api::PlanCache`], so K tenants registering the
//! same shape cost exactly one strategy compile and one budget solve.
//!
//! `release` may carry a client-generated `request_id` idempotency key:
//! retries reusing the id (after a timeout, a dropped connection, or even
//! a server restart) return the original release bytes without a second
//! budget debit. See [`crate::accountant`] for the journal semantics.
//!
//! The continual-release loop uses the three `stream_*` ops: `stream_open`
//! creates (idempotently) a per-tenant mutable streaming session seeded
//! from a loaded dataset — or empty when `table` is omitted; `ingest`
//! pushes one count delta (`delta` defaults to 1.0, negative retracts;
//! **uncharged** — deltas only move the exact observations); and
//! `release_current` draws noisy releases from the stream's *current*
//! state under the same accountant and `request_id` idempotency as
//! `release` (both ops run one release path). A keyed stream release
//! whose cached response is gone (evicted, or lost in a restart) is
//! refused with `replay_unavailable` instead of being recomputed from the
//! stream's moved-on state.
//!
//! Any request line may carry an `"auth"` credential field. Under the
//! operator auth policy ([`crate::auth`]) it is required: the admin token
//! for `open_tenant`/`shutdown`, the tenant's installed credential (or the
//! admin token) for tenant-scoped requests; `open_tenant` must then also
//! provide the `tenant_token` to install. Under the trusted policy both
//! fields are ignored.
//!
//! ## Responses
//!
//! Success: `{"ok": true, …op-specific fields…}`. Failure:
//! `{"ok": false, "code": "<stable code>", "error": "<message>"}`, with
//! `requested_epsilon` / `requested_delta` / `remaining_epsilon` /
//! `remaining_delta` attached when the code is `budget_exhausted`.
//!
//! Seeds and fingerprints follow the workspace `u64` wire rule
//! ([`dp_core::serde_impls::u64_value`]): exact JSON numbers below 2^53,
//! decimal strings above — releases are deterministic in their seed, so the
//! seed must never be rounded through an `f64`.
//!
//! ## Encoding
//!
//! A release reply is written once, as bytes: [`write_release`] streams
//! each release document straight into the reply line, with no [`Value`]
//! tree, and the service keeps that line (an `Arc<str>`) in its replay
//! cache, so a replay sends the same bytes with no re-render. Every other
//! reply is a small [`ok_response`] or [`error_response`] tree rendered by
//! [`render_line`], which walks the value by reference into one output
//! string.
//!
//! Both write numbers and strings through the JSON shim's one number path
//! ([`serde_json::render_number`]) and string escaper
//! ([`serde_json::render_string`]), so their bytes agree: keys keep
//! insertion order, integral numbers below 1e15 print as integer digits,
//! and NaN/±∞ print as `null`. Every other number goes through
//! [`serde_json::write_f64`], a Ryū writer whose contract is `f64`'s
//! `Display`: the same bytes `format!("{x}")` writes, the shortest text
//! that parses back to the same bits. Replay byte-identity and the WAL's
//! checksums (taken over `render_line`) rely on that.
//! [`session_release_to_value`] is the decoded view of
//! [`write_release`]'s bytes, not a second encoder.
//!
//! [`parse_line`] copies each unescaped run of a string as one slice and
//! refuses documents nested deeper than [`serde_json::MAX_DEPTH`] (128)
//! arrays or objects with a `protocol` error. The parser recurses once per
//! level, so the cap is what keeps a hostile line of `[`s from overflowing
//! a handler thread's stack; the same cap guards client reply decoding and
//! WAL loading. Numbers must follow RFC 8259's grammar (no `+1`, `.5`,
//! `1.` or `01`), and one that overflows to ±∞ is refused.

use crate::error::ServiceError;
use dp_core::api::{Answers, SessionRelease, WorkloadSpec};
use dp_core::serde_impls::{
    budgeting_from, budgeting_value, neighboring_from, neighboring_value, privacy_from,
    privacy_value, u64_from, u64_value,
};
use dp_core::Budgeting;
use dp_core::Plan;
use dp_mech::{Neighboring, PrivacyLevel};
use serde::{DeError, Deserialize, Serialize, Value};
use serde_json::{render_number, render_string};

/// Parses one wire line into a JSON value. Nesting deeper than
/// [`serde_json::MAX_DEPTH`] levels is a protocol error, not a stack
/// overflow.
pub fn parse_line(line: &str) -> Result<Value, ServiceError> {
    serde_json::parse_value(line).map_err(|e| ServiceError::Protocol(e.to_string()))
}

/// Renders a JSON value as one compact wire line (no interior newlines),
/// by reference and byte-stable (see the module docs).
pub fn render_line(value: &Value) -> String {
    serde_json::value_to_string(value)
}

pub(crate) fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, ServiceError> {
    value
        .get_field(name)
        .ok_or_else(|| ServiceError::Protocol(format!("missing field `{name}`")))
}

pub(crate) fn string_field(value: &Value, name: &str) -> Result<String, ServiceError> {
    optional_string_field(value, name)?
        .ok_or_else(|| ServiceError::Protocol(format!("missing field `{name}`")))
}

/// `Ok(None)` only when the field is absent: a field that is present but
/// not a string is a protocol error, never a silent default.
fn optional_string_field(value: &Value, name: &str) -> Result<Option<String>, ServiceError> {
    value
        .get_field(name)
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| ServiceError::Protocol(format!("field `{name}` must be a string")))
        })
        .transpose()
}

pub(crate) fn f64_field(value: &Value, name: &str) -> Result<f64, ServiceError> {
    field(value, name)?
        .as_f64()
        .ok_or_else(|| ServiceError::Protocol(format!("field `{name}` must be a number")))
}

/// Lifts a shared-codec decode error to the protocol refusal.
pub(crate) fn protocol_error(error: DeError) -> ServiceError {
    ServiceError::Protocol(error.to_string())
}

/// One parsed request.
pub enum Request {
    /// Creates the tenant's budget ledger (idempotent for an identical
    /// budget; a different budget is an error, never a reset).
    OpenTenant {
        /// Tenant name.
        tenant: String,
        /// Total (ε, δ) allowance for the tenant's whole query history.
        budget: PrivacyLevel,
        /// The credential to install for the tenant — required (and
        /// admin-gated) when the server runs an operator auth policy,
        /// ignored under the trusted policy. See [`crate::auth`].
        tenant_token: Option<String>,
    },
    /// Registers a client-compiled plan document for the tenant.
    RegisterPlan {
        /// Tenant name.
        tenant: String,
        /// The deserialized (and therefore revalidated) plan.
        plan: Box<Plan>,
    },
    /// Registers a plan compiled server-side through the shared cache.
    RegisterCompile {
        /// Tenant name.
        tenant: String,
        /// The workload spec to compile.
        spec: WorkloadSpec,
        /// Budget-allocation mode.
        budgeting: Budgeting,
        /// Privacy guarantee to solve for.
        privacy: PrivacyLevel,
        /// Neighbouring-database convention.
        neighboring: Neighboring,
    },
    /// Binds a registered plan to a loaded table/histogram.
    Bind {
        /// Tenant name.
        tenant: String,
        /// Plan id returned by `register_plan`.
        plan_id: String,
        /// Name of a table or histogram loaded into the server.
        table: String,
    },
    /// Draws one deterministic release per seed, debiting the tenant's
    /// ledger for the whole batch *before* any noise is drawn.
    Release {
        /// Tenant name.
        tenant: String,
        /// Session id returned by `bind`.
        session: String,
        /// Release seeds.
        seeds: Vec<u64>,
        /// Client-generated idempotency key. When present, the server
        /// journals the debit under `(tenant, request_id)` and a retried
        /// request with the same id returns the same bytes without a
        /// second debit — exactly-once across connection loss and server
        /// restart. Without it, every send is a fresh debit.
        request_id: Option<String>,
    },
    /// Opens (idempotently) a per-tenant streaming session over a
    /// registered plan; reopening returns the existing stream id without
    /// resetting its state, so a restarted publisher resumes where the
    /// server left off.
    StreamOpen {
        /// Tenant name.
        tenant: String,
        /// Plan id returned by `register_plan`.
        plan_id: String,
        /// Dataset to seed the stream from; `None` starts empty.
        table: Option<String>,
    },
    /// Pushes one count delta into a streaming session. Uncharged: deltas
    /// maintain the exact observations, privacy is only spent on release.
    Ingest {
        /// Tenant name.
        tenant: String,
        /// Stream id returned by `stream_open`.
        stream: String,
        /// Linearized domain cell.
        cell: u64,
        /// Count delta (1.0 = one insert, negative retracts).
        delta: f64,
    },
    /// Draws releases from the stream's current state, debiting the
    /// tenant's ledger exactly like `release` (including `request_id`
    /// idempotency).
    ReleaseCurrent {
        /// Tenant name.
        tenant: String,
        /// Stream id returned by `stream_open`.
        stream: String,
        /// Release seeds.
        seeds: Vec<u64>,
        /// Client-generated idempotency key (see `Release::request_id`).
        request_id: Option<String>,
    },
    /// Reports the tenant's total/spent/remaining budget.
    BudgetStatus {
        /// Tenant name.
        tenant: String,
    },
    /// Liveness check.
    Ping,
    /// Asks the server to stop accepting connections and exit cleanly.
    Shutdown,
}

fn seeds_from(value: &Value) -> Result<Vec<u64>, ServiceError> {
    field(value, "seeds")?
        .as_array()
        .ok_or_else(|| ServiceError::Protocol("`seeds` must be an array".into()))?
        .iter()
        .map(|s| u64_from(s, "seed"))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(protocol_error)
}

impl Request {
    /// Parses a request from its wire value.
    pub fn from_value(value: &Value) -> Result<Request, ServiceError> {
        let op = string_field(value, "op")?;
        match op.as_str() {
            "open_tenant" => Ok(Request::OpenTenant {
                tenant: string_field(value, "tenant")?,
                budget: privacy_from(field(value, "budget")?).map_err(protocol_error)?,
                tenant_token: optional_string_field(value, "tenant_token")?,
            }),
            "register_plan" => {
                let tenant = string_field(value, "tenant")?;
                if let Some(doc) = value.get_field("plan") {
                    let plan = Plan::deserialize_value(doc)
                        .map_err(|e| ServiceError::Protocol(format!("invalid plan: {e}")))?;
                    Ok(Request::RegisterPlan {
                        tenant,
                        plan: Box::new(plan),
                    })
                } else if let Some(compile) = value.get_field("compile") {
                    let spec = WorkloadSpec::deserialize_value(field(compile, "spec")?)
                        .map_err(|e| ServiceError::Protocol(format!("invalid spec: {e}")))?;
                    // The compile form lets a client omit the budgeting
                    // (optimal) and the neighbouring (add/remove).
                    let budgeting = match compile.get_field("budgeting") {
                        Some(v) => budgeting_from(v).map_err(protocol_error)?,
                        None => Budgeting::Optimal,
                    };
                    let neighboring = match compile.get_field("neighboring") {
                        Some(v) => neighboring_from(v).map_err(protocol_error)?,
                        None => Neighboring::AddRemove,
                    };
                    Ok(Request::RegisterCompile {
                        tenant,
                        spec,
                        budgeting,
                        privacy: privacy_from(field(compile, "privacy")?)
                            .map_err(protocol_error)?,
                        neighboring,
                    })
                } else {
                    Err(ServiceError::Protocol(
                        "register_plan needs a `plan` document or a `compile` object".into(),
                    ))
                }
            }
            "bind" => Ok(Request::Bind {
                tenant: string_field(value, "tenant")?,
                plan_id: string_field(value, "plan_id")?,
                table: string_field(value, "table")?,
            }),
            "release" => Ok(Request::Release {
                tenant: string_field(value, "tenant")?,
                session: string_field(value, "session")?,
                seeds: seeds_from(value)?,
                request_id: optional_string_field(value, "request_id")?,
            }),
            "stream_open" => Ok(Request::StreamOpen {
                tenant: string_field(value, "tenant")?,
                plan_id: string_field(value, "plan_id")?,
                table: optional_string_field(value, "table")?,
            }),
            "ingest" => Ok(Request::Ingest {
                tenant: string_field(value, "tenant")?,
                stream: string_field(value, "stream")?,
                cell: u64_from(field(value, "cell")?, "cell").map_err(protocol_error)?,
                delta: match value.get_field("delta") {
                    None => 1.0,
                    Some(d) => d.as_f64().ok_or_else(|| {
                        ServiceError::Protocol("field `delta` must be a number".into())
                    })?,
                },
            }),
            "release_current" => Ok(Request::ReleaseCurrent {
                tenant: string_field(value, "tenant")?,
                stream: string_field(value, "stream")?,
                seeds: seeds_from(value)?,
                request_id: optional_string_field(value, "request_id")?,
            }),
            "budget_status" => Ok(Request::BudgetStatus {
                tenant: string_field(value, "tenant")?,
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServiceError::Protocol(format!("unknown op {other:?}"))),
        }
    }

    /// Renders the request as its wire value (the client side).
    pub fn to_value(&self) -> Value {
        match self {
            Request::OpenTenant {
                tenant,
                budget,
                tenant_token,
            } => {
                let mut fields = vec![
                    ("op".into(), Value::String("open_tenant".into())),
                    ("tenant".into(), Value::String(tenant.clone())),
                    ("budget".into(), privacy_value(*budget)),
                ];
                if let Some(token) = tenant_token {
                    fields.push(("tenant_token".into(), Value::String(token.clone())));
                }
                Value::Object(fields)
            }
            Request::RegisterPlan { tenant, plan } => Value::Object(vec![
                ("op".into(), Value::String("register_plan".into())),
                ("tenant".into(), Value::String(tenant.clone())),
                ("plan".into(), plan.serialize_value()),
            ]),
            Request::RegisterCompile {
                tenant,
                spec,
                budgeting,
                privacy,
                neighboring,
            } => Value::Object(vec![
                ("op".into(), Value::String("register_plan".into())),
                ("tenant".into(), Value::String(tenant.clone())),
                (
                    "compile".into(),
                    Value::Object(vec![
                        ("spec".into(), spec.serialize_value()),
                        ("budgeting".into(), budgeting_value(*budgeting)),
                        ("privacy".into(), privacy_value(*privacy)),
                        ("neighboring".into(), neighboring_value(*neighboring)),
                    ]),
                ),
            ]),
            Request::Bind {
                tenant,
                plan_id,
                table,
            } => Value::Object(vec![
                ("op".into(), Value::String("bind".into())),
                ("tenant".into(), Value::String(tenant.clone())),
                ("plan_id".into(), Value::String(plan_id.clone())),
                ("table".into(), Value::String(table.clone())),
            ]),
            Request::Release {
                tenant,
                session,
                seeds,
                request_id,
            } => {
                let mut fields = vec![
                    ("op".into(), Value::String("release".into())),
                    ("tenant".into(), Value::String(tenant.clone())),
                    ("session".into(), Value::String(session.clone())),
                    (
                        "seeds".into(),
                        Value::Array(seeds.iter().map(|&s| u64_value(s)).collect()),
                    ),
                ];
                if let Some(id) = request_id {
                    fields.push(("request_id".into(), Value::String(id.clone())));
                }
                Value::Object(fields)
            }
            Request::StreamOpen {
                tenant,
                plan_id,
                table,
            } => {
                let mut fields = vec![
                    ("op".into(), Value::String("stream_open".into())),
                    ("tenant".into(), Value::String(tenant.clone())),
                    ("plan_id".into(), Value::String(plan_id.clone())),
                ];
                if let Some(t) = table {
                    fields.push(("table".into(), Value::String(t.clone())));
                }
                Value::Object(fields)
            }
            Request::Ingest {
                tenant,
                stream,
                cell,
                delta,
            } => Value::Object(vec![
                ("op".into(), Value::String("ingest".into())),
                ("tenant".into(), Value::String(tenant.clone())),
                ("stream".into(), Value::String(stream.clone())),
                ("cell".into(), u64_value(*cell)),
                ("delta".into(), Value::Number(*delta)),
            ]),
            Request::ReleaseCurrent {
                tenant,
                stream,
                seeds,
                request_id,
            } => {
                let mut fields = vec![
                    ("op".into(), Value::String("release_current".into())),
                    ("tenant".into(), Value::String(tenant.clone())),
                    ("stream".into(), Value::String(stream.clone())),
                    (
                        "seeds".into(),
                        Value::Array(seeds.iter().map(|&s| u64_value(s)).collect()),
                    ),
                ];
                if let Some(id) = request_id {
                    fields.push(("request_id".into(), Value::String(id.clone())));
                }
                Value::Object(fields)
            }
            Request::BudgetStatus { tenant } => Value::Object(vec![
                ("op".into(), Value::String("budget_status".into())),
                ("tenant".into(), Value::String(tenant.clone())),
            ]),
            Request::Ping => Value::Object(vec![("op".into(), Value::String("ping".into()))]),
            Request::Shutdown => {
                Value::Object(vec![("op".into(), Value::String("shutdown".into()))])
            }
        }
    }
}

/// Builds a success response with op-specific fields appended after
/// `"ok": true`.
pub fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("ok".into(), Value::Bool(true))];
    all.extend(fields);
    Value::Object(all)
}

/// Builds the failure response for a service error: stable code, message,
/// and the budget-shortfall details for `budget_exhausted`.
pub fn error_response(error: &ServiceError) -> Value {
    let mut fields = vec![
        ("ok".into(), Value::Bool(false)),
        ("code".into(), Value::String(error.code().to_string())),
        ("error".into(), Value::String(error.to_string())),
    ];
    if let ServiceError::BudgetExhausted {
        requested_epsilon,
        requested_delta,
        remaining_epsilon,
        remaining_delta,
    } = error
    {
        fields.extend([
            (
                "requested_epsilon".into(),
                Value::Number(*requested_epsilon),
            ),
            ("requested_delta".into(), Value::Number(*requested_delta)),
            (
                "remaining_epsilon".into(),
                Value::Number(*remaining_epsilon),
            ),
            ("remaining_delta".into(), Value::Number(*remaining_delta)),
        ]);
    }
    if let ServiceError::Overloaded { scope } = error {
        fields.push(("scope".into(), Value::String(scope.clone())));
    }
    if let ServiceError::ReplayUnavailable { request_id } = error {
        fields.push(("request_id".into(), Value::String(request_id.clone())));
    }
    Value::Object(fields)
}

/// Splits a response value into `Ok(value)` / the typed error it encodes.
pub fn response_to_result(value: Value) -> Result<Value, ServiceError> {
    match value.get_field("ok").and_then(Value::as_bool) {
        Some(true) => Ok(value),
        Some(false) => {
            let code = value
                .get_field("code")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let message = value
                .get_field("error")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            if code == "budget_exhausted" {
                let get = |name: &str| value.get_field(name).and_then(Value::as_f64);
                if let (Some(re), Some(rd), Some(me), Some(md)) = (
                    get("requested_epsilon"),
                    get("requested_delta"),
                    get("remaining_epsilon"),
                    get("remaining_delta"),
                ) {
                    return Err(ServiceError::BudgetExhausted {
                        requested_epsilon: re,
                        requested_delta: rd,
                        remaining_epsilon: me,
                        remaining_delta: md,
                    });
                }
            }
            if code == "overloaded" {
                // Reconstructed as the typed shed so `is_retryable` and
                // the client's backoff logic see it without string checks.
                if let Some(scope) = value.get_field("scope").and_then(Value::as_str) {
                    return Err(ServiceError::Overloaded {
                        scope: scope.to_string(),
                    });
                }
                return Err(ServiceError::Overloaded {
                    scope: "server".into(),
                });
            }
            if code == "replay_unavailable" {
                if let Some(rid) = value.get_field("request_id").and_then(Value::as_str) {
                    return Err(ServiceError::ReplayUnavailable {
                        request_id: rid.to_string(),
                    });
                }
            }
            Err(ServiceError::Remote { code, message })
        }
        None => Err(ServiceError::Protocol(
            "response is missing the `ok` field".into(),
        )),
    }
}

/// Writes a `u64` by the workspace wire rule
/// ([`dp_core::serde_impls::u64_value`]): a number below 2^53, a decimal
/// string above.
fn write_u64(v: u64, out: &mut String) {
    if v < (1u64 << 53) {
        render_number(v as f64, out);
    } else {
        render_string(&v.to_string(), out);
    }
}

fn write_numbers(values: &[f64], out: &mut String) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_number(v, out);
    }
    out.push(']');
}

/// Appends the wire document of one release to `out`: seed, accounting,
/// and the answers (marginals or range counts), streamed with no
/// [`Value`] tree. This is the one release encoder: served replies, the
/// replay cache and the CLI `release` command all carry its bytes. The
/// numeric rendering is exact (`f64` values round-trip bit-for-bit), so
/// served releases are byte-comparable to in-process ones.
pub fn write_release(release: &SessionRelease, out: &mut String) {
    out.push_str("{\"seed\":");
    write_u64(release.seed, out);
    out.push_str(",\"label\":");
    render_string(&release.label, out);
    out.push_str(",\"achieved_epsilon\":");
    render_number(release.achieved_epsilon, out);
    out.push_str(",\"predicted_variance\":");
    render_number(release.predicted_variance, out);
    out.push_str(",\"group_budgets\":");
    write_numbers(&release.group_budgets, out);
    match &release.answers {
        Answers::Marginals(marginals) => {
            out.push_str(",\"answers\":[");
            for (i, (mask, cells)) in marginals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"attributes\":");
                write_u64(mask.0, out);
                out.push_str(",\"cells\":");
                write_numbers(cells, out);
                out.push('}');
            }
            out.push(']');
        }
        Answers::Ranges(counts) => {
            out.push_str(",\"ranges\":");
            write_numbers(counts, out);
        }
    }
    out.push('}');
}

/// An estimate of the bytes [`write_release`] appends, so a reply buffer
/// is usually sized once: 24 bytes a number cover a noisy count's 17
/// significant digits, sign, point and separator. A longer number (a tiny
/// magnitude, which `Display` writes without an exponent) just grows the
/// buffer.
pub(crate) fn release_len_hint(release: &SessionRelease) -> usize {
    let numbers = release.group_budgets.len()
        + match &release.answers {
            Answers::Marginals(marginals) => marginals.cells().len() + marginals.len(),
            Answers::Ranges(counts) => counts.len(),
        };
    128 + release.label.len() + 24 * numbers
}

/// One release as a [`Value`]: the decoded view of [`write_release`]'s
/// bytes (`parse_line` of them), not a second encoder, so
/// `render_line(&session_release_to_value(r))` is exactly what
/// `write_release` writes.
pub fn session_release_to_value(release: &SessionRelease) -> Value {
    let mut line = String::with_capacity(release_len_hint(release));
    write_release(release, &mut line);
    parse_line(&line).expect("a written release document parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::OpenTenant {
                tenant: "t1".into(),
                budget: PrivacyLevel::Approx {
                    epsilon: 1.0,
                    delta: 1e-6,
                },
                tenant_token: Some("secret".into()),
            },
            Request::Bind {
                tenant: "t1".into(),
                plan_id: "abc".into(),
                table: "nltcs".into(),
            },
            Request::Release {
                tenant: "t1".into(),
                session: "abc/nltcs".into(),
                seeds: vec![1, 2, (1 << 60) + 5],
                request_id: Some("retry-0001".into()),
            },
            Request::Release {
                tenant: "t1".into(),
                session: "abc/nltcs".into(),
                seeds: vec![3],
                request_id: None,
            },
            Request::StreamOpen {
                tenant: "t1".into(),
                plan_id: "abc".into(),
                table: Some("nltcs".into()),
            },
            Request::StreamOpen {
                tenant: "t1".into(),
                plan_id: "abc".into(),
                table: None,
            },
            Request::Ingest {
                tenant: "t1".into(),
                stream: "t1/abc/nltcs".into(),
                cell: (1 << 58) + 11,
                delta: -1.0,
            },
            Request::ReleaseCurrent {
                tenant: "t1".into(),
                stream: "t1/abc/nltcs".into(),
                seeds: vec![9, (1 << 61) + 1],
                request_id: Some("pub-0007".into()),
            },
            Request::BudgetStatus {
                tenant: "t1".into(),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in &reqs {
            let line = render_line(&req.to_value());
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let back = Request::from_value(&parse_line(&line).unwrap()).unwrap();
            // Spot-check the lossiest field: large seeds survive exactly.
            if let (
                Request::Release {
                    seeds, request_id, ..
                },
                Request::Release {
                    seeds: b,
                    request_id: back_id,
                    ..
                },
            ) = (req, &back)
            {
                assert_eq!(seeds, b);
                assert_eq!(request_id, back_id);
            }
            if let (
                Request::OpenTenant { tenant_token, .. },
                Request::OpenTenant {
                    tenant_token: back_token,
                    ..
                },
            ) = (req, &back)
            {
                assert_eq!(tenant_token, back_token);
            }
            if let (
                Request::Ingest { cell, delta, .. },
                Request::Ingest {
                    cell: bc,
                    delta: bd,
                    ..
                },
            ) = (req, &back)
            {
                assert_eq!(cell, bc);
                assert_eq!(delta, bd);
            }
            if let (
                Request::ReleaseCurrent {
                    seeds, request_id, ..
                },
                Request::ReleaseCurrent {
                    seeds: bs,
                    request_id: bid,
                    ..
                },
            ) = (req, &back)
            {
                assert_eq!(seeds, bs);
                assert_eq!(request_id, bid);
            }
            if let (Request::StreamOpen { table, .. }, Request::StreamOpen { table: bt, .. }) =
                (req, &back)
            {
                assert_eq!(table, bt);
            }
        }
    }

    #[test]
    fn ingest_delta_defaults_to_one() {
        let v =
            parse_line("{\"op\": \"ingest\", \"tenant\": \"t\", \"stream\": \"s\", \"cell\": 4}")
                .unwrap();
        let Request::Ingest { cell, delta, .. } = Request::from_value(&v).unwrap() else {
            panic!("must parse as ingest");
        };
        assert_eq!(cell, 4);
        assert_eq!(delta, 1.0);
    }

    /// A small valid spec for the `compile` form of `register_plan`.
    const COMPILE_SPEC: &str = r#"{"kind": "marginals", "workload": {"domain_bits": 3, "marginals": [1]}, "strategy": "fourier"}"#;

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "{",
            "{\"op\": \"nope\"}",
            "{\"op\": \"release\", \"tenant\": \"t\", \"session\": \"s\", \"seeds\": 3}",
            "{\"op\": \"register_plan\", \"tenant\": \"t\"}",
            "{\"op\": \"open_tenant\", \"tenant\": \"t\", \"budget\": {}}",
            "{\"op\": \"ingest\", \"tenant\": \"t\", \"stream\": \"s\"}",
            "{\"op\": \"ingest\", \"tenant\": \"t\", \"stream\": \"s\", \"cell\": 1, \"delta\": \"x\"}",
            "{\"op\": \"release_current\", \"tenant\": \"t\", \"stream\": \"s\", \"seeds\": 3}",
            // A present optional field of the wrong type is refused, never
            // read as absent: an unkeyed release would debit on every
            // retry, a stream would open empty, a compile would fall back
            // to the default budgeting or neighbouring.
            r#"{"op": "open_tenant", "tenant": "t", "budget": {"epsilon": 1}, "tenant_token": 7}"#,
            r#"{"op": "release", "tenant": "t", "session": "s", "seeds": [1], "request_id": 7}"#,
            r#"{"op": "release_current", "tenant": "t", "stream": "s", "seeds": [1], "request_id": 7}"#,
            r#"{"op": "stream_open", "tenant": "t", "plan_id": "p", "table": 5}"#,
            &format!(
                r#"{{"op": "register_plan", "tenant": "t", "compile": {{"spec": {COMPILE_SPEC}, "privacy": {{"epsilon": 1}}, "budgeting": 1}}}}"#
            ),
            &format!(
                r#"{{"op": "register_plan", "tenant": "t", "compile": {{"spec": {COMPILE_SPEC}, "privacy": {{"epsilon": 1}}, "neighboring": true}}}}"#
            ),
        ] {
            let res = parse_line(bad).and_then(|v| Request::from_value(&v).map(|_| Value::Null));
            assert!(
                matches!(res, Err(ServiceError::Protocol(_))),
                "{bad} must be a protocol error"
            );
        }
    }

    #[test]
    fn compile_defaults_an_absent_budgeting_and_neighboring() {
        let line = format!(
            r#"{{"op": "register_plan", "tenant": "t", "compile": {{"spec": {COMPILE_SPEC}, "privacy": {{"epsilon": 1}}}}}}"#
        );
        let Request::RegisterCompile {
            budgeting,
            neighboring,
            ..
        } = Request::from_value(&parse_line(&line).unwrap()).unwrap()
        else {
            panic!("must parse as a compile registration");
        };
        assert_eq!(budgeting, Budgeting::Optimal);
        assert_eq!(neighboring, Neighboring::AddRemove);
    }

    /// Decodes a `register_plan` line carrying `spec`, in the `compile`
    /// form and then as a full `plan` document: both must be refused with
    /// a typed protocol error before anything is compiled.
    fn assert_spec_refused_at_decode(spec: &str) {
        let plan = format!(
            "{{\"spec\": {spec}, \"budgeting\": \"optimal\", \"privacy\": {{\"epsilon\": 1}}, \
             \"neighboring\": \"add_remove\", \"schema_fingerprint\": 0, \
             \"group_budgets\": [1], \"objective\": 1}}"
        );
        for line in [
            format!(
                "{{\"op\": \"register_plan\", \"tenant\": \"t\", \
                 \"compile\": {{\"spec\": {spec}, \"privacy\": {{\"epsilon\": 1}}}}}}"
            ),
            format!("{{\"op\": \"register_plan\", \"tenant\": \"t\", \"plan\": {plan}}}"),
        ] {
            let res = parse_line(&line).and_then(|v| Request::from_value(&v).map(|_| ()));
            assert!(
                matches!(res, Err(ServiceError::Protocol(_))),
                "{line} must be a protocol error, got {res:?}"
            );
        }
    }

    #[test]
    fn a_2_pow_40_cell_marginal_identity_plan_is_refused_at_decode() {
        // Compiling it allocated a 4 TiB row-group vector and aborted.
        assert_spec_refused_at_decode(
            r#"{"kind": "marginals", "workload": {"domain_bits": 40, "marginals": [1]}, "strategy": "identity"}"#,
        );
    }

    #[test]
    fn a_2_pow_40_cell_range_identity_plan_is_refused_at_decode() {
        // Compiling it allocated an 8 TiB row-group vector and aborted.
        assert_spec_refused_at_decode(
            r#"{"kind": "ranges", "domain": 1099511627776, "ranges": [[0, 1]], "strategy": "identity"}"#,
        );
    }

    #[test]
    fn a_sketch_whose_dense_oracle_exceeds_the_cap_is_refused_at_decode() {
        // n = 2^16 makes the dense planner's n×n buffer 32 GiB.
        assert_spec_refused_at_decode(
            r#"{"kind": "ranges", "domain": 65536, "ranges": [[0, 1]], "strategy": {"kind": "sketch", "repetitions": 1, "buckets": 4, "seed": 1}}"#,
        );
        // A sketch with no rows used to panic the dense planner.
        assert_spec_refused_at_decode(
            r#"{"kind": "ranges", "domain": 16, "ranges": [[0, 1]], "strategy": {"kind": "sketch", "repetitions": 0, "buckets": 4, "seed": 1}}"#,
        );
    }

    #[test]
    fn a_64_bit_marginal_domain_is_refused_at_decode() {
        // `AttrMask::full(64)` used to panic the decoding handler thread.
        assert_spec_refused_at_decode(
            r#"{"kind": "marginals", "workload": {"domain_bits": 64, "marginals": [1]}, "strategy": "fourier"}"#,
        );
    }

    #[test]
    fn marginals_totalling_more_than_2_pow_24_cells_are_refused_at_decode() {
        // Every 20-attribute mask over 24 bits: 10 626 marginals of 2^20
        // cells each, ~1.1·10^10 answers, on a domain within the cap.
        let masks: Vec<String> = (0u64..1 << 24)
            .filter(|m| m.count_ones() == 20)
            .map(|m| m.to_string())
            .collect();
        assert_eq!(masks.len(), 10_626);
        assert_spec_refused_at_decode(&format!(
            r#"{{"kind": "marginals", "workload": {{"domain_bits": 24, "marginals": [{}]}}, "strategy": "fourier"}}"#,
            masks.join(", ")
        ));
    }

    #[test]
    fn responses_encode_and_decode_errors() {
        let ok = ok_response(vec![("plan_id".into(), Value::String("x".into()))]);
        let v = response_to_result(ok).unwrap();
        assert_eq!(v.get_field("plan_id").and_then(Value::as_str), Some("x"));

        let err = ServiceError::BudgetExhausted {
            requested_epsilon: 0.5,
            requested_delta: 0.0,
            remaining_epsilon: 0.125,
            remaining_delta: 0.0,
        };
        let back = response_to_result(error_response(&err)).unwrap_err();
        let ServiceError::BudgetExhausted {
            remaining_epsilon, ..
        } = back
        else {
            panic!("typed exhaustion must survive the wire, got {back:?}");
        };
        assert_eq!(remaining_epsilon, 0.125);

        let other = response_to_result(error_response(&ServiceError::UnknownTenant("t".into())))
            .unwrap_err();
        assert!(matches!(other, ServiceError::Remote { ref code, .. } if code == "unknown_tenant"));

        // A shed survives the wire as the typed (retryable) variant.
        let shed = response_to_result(error_response(&ServiceError::Overloaded {
            scope: "tenant".into(),
        }))
        .unwrap_err();
        assert!(matches!(&shed, ServiceError::Overloaded { scope } if scope == "tenant"));
        assert!(shed.is_retryable());

        // A refused stream replay survives as the typed, final refusal.
        let refused = response_to_result(error_response(&ServiceError::ReplayUnavailable {
            request_id: "r0".into(),
        }))
        .unwrap_err();
        assert!(
            matches!(&refused, ServiceError::ReplayUnavailable { request_id } if request_id == "r0")
        );
        assert!(!refused.is_retryable());
    }
}
