//! The release service core: one object tying the accountant, registry,
//! data store, and session pool together, independent of any transport.
//!
//! Every release — a shared bound session or a tenant's stream, keyed or
//! not — runs through the one function [`DpService::release`]:
//! **admit → draw → record**. The whole batch is composed into one charge
//! ([`dp_mech::compose_n`]) and debited from the tenant's ledger **before**
//! any noise is drawn. A rejected debit therefore consumes no randomness
//! and leaks nothing; a release failure *after* a granted debit burns
//! budget without output, which is the safe direction (never overspend).
//!
//! Authorization is enforced at the wire boundary, [`DpService::respond`]
//! (and its decoded view [`DpService::handle`]), against the service's
//! [`Auth`] policy; the direct Rust methods (`open_tenant`, `release`, …)
//! are the in-process operator surface and take no credential. See
//! [`crate::auth`] for the threat model.
//!
//! Every answer is its wire line, written once: a release reply is
//! streamed by [`write_release`] with no [`Value`] tree, and a keyed one
//! is cached as those bytes, so a replay sends them again unchanged.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::accountant::{Accountant, BudgetStatus, ReleaseAdmission};
use crate::auth::Auth;
use crate::error::ServiceError;
use crate::fail_point;
use crate::pool::{DataStore, PooledSession, SessionPool};
use crate::protocol::{
    ok_response, parse_line, release_len_hint, render_line, write_release, Request,
};
use crate::registry::Registry;
use dp_core::serde_impls::privacy_value;
use dp_core::{Plan, PlanBuilder, SessionRelease};
use dp_mech::{compose_n, PrivacyLevel};
use serde::Value;
use serde_json::render_string;

/// A privacy-budget-metered release service (see the module docs).
pub struct DpService {
    accountant: Accountant,
    auth: Auth,
    registry: Registry,
    pool: SessionPool,
    data: DataStore,
    /// Per-tenant cap on wire releases being computed at once (`None` =
    /// unbounded). Excess requests are shed with the typed, retryable
    /// [`ServiceError::Overloaded`] *before* anything is charged.
    tenant_inflight_cap: Option<usize>,
    inflight: Mutex<HashMap<String, usize>>,
}

/// The success reply line for a batch of releases,
/// `{"ok":true,"request_id":…,"releases":[…]}`. A keyed release echoes its
/// `request_id`, so pipelined clients can match out-of-order responses to
/// their requests; fresh draws and recomputations both write this same
/// line, and cached replays send it again, so replays stay byte-identical.
fn release_response(releases: &[SessionRelease], request_id: Option<&str>) -> Arc<str> {
    let hint: usize = releases.iter().map(release_len_hint).sum();
    let mut line = String::with_capacity(64 + hint + request_id.map_or(0, str::len));
    line.push_str("{\"ok\":true");
    if let Some(rid) = request_id {
        line.push_str(",\"request_id\":");
        render_string(rid, &mut line);
    }
    line.push_str(",\"releases\":[");
    for (i, release) in releases.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_release(release, &mut line);
    }
    line.push_str("]}");
    line.into()
}

/// The wire line of a small success reply.
fn ok_line(fields: Vec<(String, Value)>) -> Arc<str> {
    render_line(&ok_response(fields)).into()
}

/// RAII decrement for the per-tenant in-flight release counter.
struct InflightGuard<'a> {
    service: &'a DpService,
    tenant: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self
            .service
            .inflight
            .lock()
            .expect("inflight mutex poisoned");
        if let Some(count) = inflight.get_mut(&self.tenant) {
            *count -= 1;
            if *count == 0 {
                inflight.remove(&self.tenant);
            }
        }
    }
}

impl DpService {
    /// A service backed by the given accountant, trusting every peer (the
    /// in-process / loopback mode — see [`crate::auth`] before exposing
    /// this over a network).
    pub fn new(accountant: Accountant) -> DpService {
        DpService::with_auth(accountant, Auth::trusted())
    }

    /// A service enforcing the given auth policy at the wire boundary.
    pub fn with_auth(accountant: Accountant, auth: Auth) -> DpService {
        DpService {
            accountant,
            auth,
            registry: Registry::new(),
            pool: SessionPool::new(),
            data: DataStore::new(),
            tenant_inflight_cap: None,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Bounds how many wire releases one tenant may have in flight at
    /// once; excess requests are shed with the retryable
    /// [`ServiceError::Overloaded`] before any budget is charged. Applies
    /// to [`DpService::respond`] (the wire boundary), not the direct Rust
    /// methods.
    pub fn with_tenant_inflight_cap(mut self, cap: usize) -> DpService {
        self.tenant_inflight_cap = Some(cap);
        self
    }

    /// Claims an in-flight slot for `tenant`, or sheds with the typed
    /// [`ServiceError::Overloaded`]. The slot frees when the guard drops.
    fn acquire_inflight(&self, tenant: &str) -> Result<Option<InflightGuard<'_>>, ServiceError> {
        let Some(cap) = self.tenant_inflight_cap else {
            return Ok(None);
        };
        let mut inflight = self.inflight.lock().expect("inflight mutex poisoned");
        let count = inflight.entry(tenant.to_string()).or_insert(0);
        if *count >= cap {
            return Err(ServiceError::Overloaded {
                scope: "tenant".into(),
            });
        }
        *count += 1;
        Ok(Some(InflightGuard {
            service: self,
            tenant: tenant.to_string(),
        }))
    }

    /// The authenticator enforcing the service's policy.
    pub fn auth(&self) -> &Auth {
        &self.auth
    }

    /// The named datasets available for binding.
    pub fn data(&self) -> &DataStore {
        &self.data
    }

    /// The plan registry (exposed for solve-count assertions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The budget accountant.
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Opens a tenant (idempotent for an identical budget).
    pub fn open_tenant(&self, tenant: &str, budget: PrivacyLevel) -> Result<(), ServiceError> {
        self.accountant.open_tenant(tenant, budget)
    }

    fn require_tenant(&self, tenant: &str) -> Result<(), ServiceError> {
        self.accountant.status(tenant).map(|_| ())
    }

    /// Registers a client-compiled plan document for `tenant`.
    pub fn register_plan(&self, tenant: &str, plan: Plan) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        self.registry.register_plan(tenant, plan)
    }

    /// Compiles (through the shared cache) and registers a plan.
    pub fn register_compiled(
        &self,
        tenant: &str,
        builder: PlanBuilder,
    ) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        self.registry.register_compiled(tenant, builder)
    }

    /// Binds a registered plan to a loaded dataset, returning the
    /// deterministic id of the shared session.
    pub fn bind(&self, tenant: &str, plan_id: &str, table: &str) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        let plan = self.registry.lookup(tenant, plan_id)?;
        let dataset = self.data.get(table)?;
        self.pool
            .open(None, plan_id, Some(table), plan, Some(&dataset))
    }

    /// Opens (or re-opens) a per-tenant stream over a registered plan,
    /// optionally seeded from a loaded dataset, and returns the stream id.
    /// Idempotent and non-destructive: reopening an existing stream keeps
    /// every accumulated delta, which is what lets a crashed publisher
    /// reconnect and resume its schedule. Ingests are uncharged — only
    /// releases touch the budget.
    pub fn stream_open(
        &self,
        tenant: &str,
        plan: &str,
        table: Option<&str>,
    ) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        let compiled = self.registry.lookup(tenant, plan)?;
        let dataset = table.map(|name| self.data.get(name)).transpose()?;
        self.pool
            .open(Some(tenant), plan, table, compiled, dataset.as_deref())
    }

    /// Looks up session `id` on behalf of `tenant`. Another tenant's
    /// stream is as good as unknown; a shared session is authorized by the
    /// tenant's own registration of its plan.
    fn session_for(&self, tenant: &str, id: &str) -> Result<Arc<PooledSession>, ServiceError> {
        let entry = self.pool.get(id)?;
        if entry.owner().is_some_and(|owner| owner != tenant) {
            return Err(ServiceError::UnknownSession(id.into()));
        }
        self.registry.lookup(tenant, entry.plan_id())?;
        Ok(entry)
    }

    /// Applies one record-level delta to a tenant's stream — O(Δ) against
    /// the compiled strategy, no rebind or recompile. Uncharged: a delta
    /// changes what a *future* release will say, not what has already
    /// been released. Shared bound sessions refuse deltas with the typed
    /// [`ServiceError::ReadOnlySession`].
    pub fn stream_ingest(
        &self,
        tenant: &str,
        stream: &str,
        cell: u64,
        delta: f64,
    ) -> Result<(), ServiceError> {
        self.require_tenant(tenant)?;
        let entry = self.session_for(tenant, stream)?;
        if entry.owner().is_none() {
            return Err(ServiceError::ReadOnlySession(stream.into()));
        }
        let mut session = entry.lock();
        session.ingest_count(cell, delta).map_err(Into::into)
    }

    /// Draws one deterministic release per seed from a pooled session's
    /// current state and returns the reply line (shared, never copied —
    /// replays hand out more handles on the same `Arc`).
    /// The one release path behind both wire ops: `release` on a bound
    /// session and `release_current` on a stream.
    ///
    /// 1. **Admit.** The session lock is held only to take an O(1)
    ///    snapshot; then the batch's composed charge is debited before any
    ///    noise is drawn. With a `request_id` the admission also journals
    ///    `(tenant, request_id)` durably (group commit) — exactly once: a
    ///    retry of the same id (same session and seeds) debits nothing and
    ///    returns the cached reply line, byte-identical on the wire, even if
    ///    the first attempt died after the debit. If that response is gone
    ///    (evicted, or lost in a restart), a shared session recomputes it
    ///    byte-identically from the journaled seeds, while a stream —
    ///    whose state has moved on — refuses with the typed
    ///    [`ServiceError::ReplayUnavailable`].
    /// 2. **Draw** from the snapshot, with no lock held.
    /// 3. **Record** a keyed response for replay.
    ///
    /// An empty batch is a well-formed no-op: nothing drawn, nothing
    /// charged, nothing journaled.
    pub fn release(
        &self,
        tenant: &str,
        session: &str,
        seeds: &[u64],
        request_id: Option<&str>,
    ) -> Result<Arc<str>, ServiceError> {
        if seeds.is_empty() {
            return Ok(release_response(&[], request_id));
        }
        let entry = self.session_for(tenant, session)?;
        let snapshot = entry.lock().snapshot();
        let charge = compose_n(snapshot.plan().privacy(), seeds.len());
        let Some(rid) = request_id else {
            self.accountant.try_debit(tenant, charge)?;
            let releases = snapshot.release_batch(seeds)?;
            return Ok(release_response(&releases, None));
        };
        match self
            .accountant
            .admit_release(tenant, rid, session, seeds, charge)?
        {
            ReleaseAdmission::Replay(Some(cached)) => return Ok(cached),
            ReleaseAdmission::Replay(None) if entry.owner().is_some() => {
                return Err(ServiceError::ReplayUnavailable {
                    request_id: rid.into(),
                })
            }
            ReleaseAdmission::Replay(None) => {}
            ReleaseAdmission::Fresh => {
                fail_point!("release.post_debit");
            }
        }
        let releases = snapshot.release_batch(seeds)?;
        let response = release_response(&releases, Some(rid));
        self.accountant.record_response(tenant, rid, &response);
        Ok(response)
    }

    /// The tenant's current budget position.
    pub fn budget_status(&self, tenant: &str) -> Result<BudgetStatus, ServiceError> {
        self.accountant.status(tenant)
    }

    /// Answers one parsed request with its success reply line, the bytes
    /// the server sends: release replies are written directly (and a
    /// keyed replay returns another handle on the cached line), other ops
    /// render their small [`ok_response`]. `credential` is the request's
    /// `"auth"` field, checked against the service's [`Auth`] policy per
    /// operation. `Shutdown` is acknowledged here; actually stopping the
    /// transport is the server loop's job (and only after an *authorized*
    /// shutdown).
    pub fn respond(
        &self,
        request: Request,
        credential: Option<&str>,
    ) -> Result<Arc<str>, ServiceError> {
        match request {
            Request::OpenTenant {
                tenant,
                budget,
                tenant_token,
            } => {
                self.auth.check_admin(credential)?;
                let token = if self.auth.requires_tokens() {
                    Some(tenant_token.ok_or_else(|| {
                        ServiceError::Protocol(
                            "open_tenant requires a `tenant_token` under the operator auth policy"
                                .into(),
                        )
                    })?)
                } else {
                    None
                };
                self.open_tenant(&tenant, budget)?;
                if let Some(token) = token {
                    self.auth.install_tenant_token(&tenant, &token);
                }
                Ok(ok_line(vec![("tenant".into(), Value::String(tenant))]))
            }
            Request::RegisterPlan { tenant, plan } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.register_plan(&tenant, *plan)?;
                Ok(ok_line(vec![("plan_id".into(), Value::String(id))]))
            }
            Request::RegisterCompile {
                tenant,
                spec,
                budgeting,
                privacy,
                neighboring,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let builder = PlanBuilder::new(spec)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .neighboring(neighboring);
                let id = self.register_compiled(&tenant, builder)?;
                Ok(ok_line(vec![("plan_id".into(), Value::String(id))]))
            }
            Request::Bind {
                tenant,
                plan_id,
                table,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.bind(&tenant, &plan_id, &table)?;
                Ok(ok_line(vec![("session".into(), Value::String(id))]))
            }
            Request::Release {
                tenant,
                session,
                seeds,
                request_id,
            }
            | Request::ReleaseCurrent {
                tenant,
                stream: session,
                seeds,
                request_id,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let _slot = self.acquire_inflight(&tenant)?;
                self.release(&tenant, &session, &seeds, request_id.as_deref())
            }
            Request::StreamOpen {
                tenant,
                plan_id,
                table,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.stream_open(&tenant, &plan_id, table.as_deref())?;
                Ok(ok_line(vec![("stream".into(), Value::String(id))]))
            }
            Request::Ingest {
                tenant,
                stream,
                cell,
                delta,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                self.stream_ingest(&tenant, &stream, cell, delta)?;
                Ok(ok_line(vec![("ingested".into(), Value::Bool(true))]))
            }
            Request::BudgetStatus { tenant } => {
                self.auth.check_tenant(&tenant, credential)?;
                let s = self.budget_status(&tenant)?;
                Ok(ok_line(vec![
                    ("tenant".into(), Value::String(tenant)),
                    ("total".into(), privacy_value(s.total)),
                    ("spent_epsilon".into(), Value::Number(s.spent_epsilon)),
                    ("spent_delta".into(), Value::Number(s.spent_delta)),
                    (
                        "remaining_epsilon".into(),
                        Value::Number(s.remaining_epsilon),
                    ),
                    ("remaining_delta".into(), Value::Number(s.remaining_delta)),
                    ("charges".into(), Value::Number(s.charges as f64)),
                ]))
            }
            Request::Ping => Ok(ok_line(vec![
                ("pong".into(), Value::Bool(true)),
                (
                    "tables".into(),
                    Value::Array(self.data.names().into_iter().map(Value::String).collect()),
                ),
            ])),
            Request::Shutdown => {
                self.auth.check_admin(credential)?;
                Ok(ok_line(vec![("shutdown".into(), Value::Bool(true))]))
            }
        }
    }

    /// The decoded view of [`DpService::respond`]: the same reply line,
    /// parsed back into a [`Value`]. Off the served path (the server sends
    /// `respond`'s bytes); it serves callers that want the reply as a
    /// tree, and `render_line` of it is exactly the line `respond`
    /// returns.
    pub fn handle(
        &self,
        request: Request,
        credential: Option<&str>,
    ) -> Result<Arc<Value>, ServiceError> {
        let line = self.respond(request, credential)?;
        parse_line(&line).map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{ContingencyTable, Schema, StrategyKind, Workload};

    fn service_with_toy_table() -> DpService {
        let service = DpService::new(Accountant::in_memory());
        service
            .data()
            .insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 2, 7, 7]));
        service
    }

    fn releases_in(response: &str) -> usize {
        parse_line(response)
            .unwrap()
            .get_field("releases")
            .and_then(Value::as_array)
            .expect("a release response lists its releases")
            .len()
    }

    fn builder(epsilon: f64) -> PlanBuilder {
        let schema = Schema::binary(3).unwrap();
        let workload = Workload::all_k_way(&schema, 1).unwrap();
        PlanBuilder::marginals(workload, StrategyKind::Fourier)
            .privacy(PrivacyLevel::Pure { epsilon })
    }

    #[test]
    fn end_to_end_release_meters_the_budget() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();

        let response = service.release("t", &session, &[1, 2, 3], None).unwrap();
        assert_eq!(releases_in(&response), 3);
        let status = service.budget_status("t").unwrap();
        assert_eq!(status.spent_epsilon, 0.75);
        assert_eq!(status.charges, 1, "a batch is one composed charge");

        // 0.25 remains: a 2-seed batch (0.5) must be rejected whole...
        assert!(matches!(
            service.release("t", &session, &[4, 5], None),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        // ...without burning the remainder, which a 1-seed release can use.
        service.release("t", &session, &[4], None).unwrap();
        assert_eq!(service.budget_status("t").unwrap().remaining_epsilon, 0.0);
    }

    #[test]
    fn a_numeric_request_id_charges_nothing_and_is_refused() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();
        let line = format!(
            r#"{{"op": "release", "tenant": "t", "session": "{session}", "seeds": [1], "request_id": 7}}"#
        );
        let handled = crate::protocol::parse_line(&line)
            .and_then(|value| service.respond(Request::from_value(&value)?, None));
        assert!(
            matches!(handled, Err(ServiceError::Protocol(_))),
            "got {handled:?}"
        );
        assert_eq!(service.budget_status("t").unwrap().charges, 0);
    }

    #[test]
    fn unknown_names_are_typed() {
        let service = service_with_toy_table();
        assert!(matches!(
            service.register_compiled("ghost", builder(0.1)),
            Err(ServiceError::UnknownTenant(_))
        ));
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.bind("t", "feedfacefeedface", "toy"),
            Err(ServiceError::UnknownPlan { .. })
        ));
        let plan_id = service.register_compiled("t", builder(0.1)).unwrap();
        assert!(matches!(
            service.bind("t", &plan_id, "missing"),
            Err(ServiceError::UnknownTable(_))
        ));
        assert!(matches!(
            service.release("t", "nope", &[1], None),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn wire_requests_are_gated_by_the_operator_policy() {
        let service = DpService::with_auth(Accountant::in_memory(), Auth::operator("admin"));
        service
            .data()
            .insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 2]));
        let open = || Request::OpenTenant {
            tenant: "t".into(),
            budget: PrivacyLevel::Pure { epsilon: 1.0 },
            tenant_token: Some("tok".into()),
        };

        // Minting a tenant budget needs the operator credential...
        for bad in [None, Some("nope"), Some("tok")] {
            assert!(matches!(
                service.respond(open(), bad),
                Err(ServiceError::Unauthorized(_))
            ));
        }
        // ...and must install a tenant credential.
        assert!(matches!(
            service.respond(
                Request::OpenTenant {
                    tenant: "t".into(),
                    budget: PrivacyLevel::Pure { epsilon: 1.0 },
                    tenant_token: None,
                },
                Some("admin"),
            ),
            Err(ServiceError::Protocol(_))
        ));
        service.respond(open(), Some("admin")).unwrap();

        // Tenant-scoped requests take the tenant credential or the admin's.
        let status = || Request::BudgetStatus { tenant: "t".into() };
        assert!(matches!(
            service.respond(status(), None),
            Err(ServiceError::Unauthorized(_))
        ));
        assert!(matches!(
            service.respond(status(), Some("wrong")),
            Err(ServiceError::Unauthorized(_))
        ));
        service.respond(status(), Some("tok")).unwrap();
        service.respond(status(), Some("admin")).unwrap();

        // Shutdown is operator-only; a tenant credential does not unlock it.
        for bad in [None, Some("tok")] {
            assert!(matches!(
                service.respond(Request::Shutdown, bad),
                Err(ServiceError::Unauthorized(_))
            ));
        }
        service.respond(Request::Shutdown, Some("admin")).unwrap();
    }

    #[test]
    fn sessions_are_shared_but_authorization_is_not() {
        let service = service_with_toy_table();
        for tenant in ["alice", "bob"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let a = service.register_compiled("alice", builder(0.5)).unwrap();
        let b = service.register_compiled("bob", builder(0.5)).unwrap();
        assert_eq!(a, b);
        let sa = service.bind("alice", &a, "toy").unwrap();
        let sb = service.bind("bob", &b, "toy").unwrap();
        assert_eq!(sa, sb, "same plan + table share one session");

        // Carol never registered the plan: the shared session id alone
        // must not grant access.
        service
            .open_tenant("carol", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.release("carol", &sa, &[1], None),
            Err(ServiceError::UnknownPlan { .. })
        ));
    }

    #[test]
    fn idempotent_releases_charge_once_and_replay_the_same_bytes() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();

        let first = service.release("t", &session, &[1, 2], Some("r1")).unwrap();
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.5);
        for _ in 0..3 {
            let again = service.release("t", &session, &[1, 2], Some("r1")).unwrap();
            assert_eq!(again, first, "replays must be byte-identical");
        }
        // Still one charge — and the replay even works with the budget
        // fully exhausted, because nothing new is debited.
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.5);
        service
            .release("t", &session, &[9, 10], Some("r2"))
            .unwrap();
        assert_eq!(service.budget_status("t").unwrap().remaining_epsilon, 0.0);
        service.release("t", &session, &[1, 2], Some("r1")).unwrap();

        // Reusing an id with different seeds is the typed client bug.
        assert!(matches!(
            service.release("t", &session, &[3, 4], Some("r1")),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
    }

    #[test]
    fn empty_seed_batches_are_uncharged_no_ops_on_every_release_path() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();
        let stream = service.stream_open("t", &plan_id, None).unwrap();

        let unkeyed = service.release("t", &session, &[], None).unwrap();
        assert_eq!(releases_in(&unkeyed), 0);
        let keyed = service
            .release("t", &session, &[], Some("r-empty"))
            .unwrap();
        assert!(keyed.contains("\"releases\":[]"));
        for rid in [None, Some("s-empty")] {
            let resp = service.release("t", &stream, &[], rid).unwrap();
            assert!(resp.contains("\"releases\":[]"));
        }
        // No noise drawn, no budget consumed, no charge journaled — an
        // empty id is even reusable with real seeds later.
        let status = service.budget_status("t").unwrap();
        assert_eq!(status.spent_epsilon, 0.0);
        assert_eq!(status.charges, 0);
        service
            .release("t", &session, &[1], Some("r-empty"))
            .unwrap();
    }

    #[test]
    fn streams_ingest_uncharged_and_release_the_current_state() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let stream = service.stream_open("t", &plan_id, Some("toy")).unwrap();
        assert_eq!(stream, format!("t/{plan_id}/toy"));

        // A stream seeded from a dataset releases exactly what a bound
        // session over that dataset releases.
        let session = service.bind("t", &plan_id, "toy").unwrap();
        let from_stream = service.release("t", &stream, &[42], None).unwrap();
        let from_session = service.release("t", &session, &[42], None).unwrap();
        assert_eq!(from_stream, from_session,);

        // Deltas are uncharged and visible to the next release.
        let spent = service.budget_status("t").unwrap().spent_epsilon;
        for _ in 0..5 {
            service.stream_ingest("t", &stream, 3, 1.0).unwrap();
        }
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, spent);
        let after = service.release("t", &stream, &[42], None).unwrap();
        assert_ne!(after, from_stream,);

        // Reopening never resets: the five ingests survive.
        let again = service.stream_open("t", &plan_id, Some("toy")).unwrap();
        assert_eq!(again, stream);
        let re_release = service.release("t", &stream, &[42], None).unwrap();
        assert_eq!(re_release, after,);
    }

    #[test]
    fn streams_are_tenant_scoped() {
        let service = service_with_toy_table();
        for tenant in ["alice", "bob"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let plan_id = service.register_compiled("alice", builder(0.25)).unwrap();
        service.register_compiled("bob", builder(0.25)).unwrap();
        let stream = service.stream_open("alice", &plan_id, None).unwrap();

        // Bob shares the plan, but alice's stream id gets him nothing —
        // not an ingest, not a release.
        assert!(matches!(
            service.stream_ingest("bob", &stream, 0, 1.0),
            Err(ServiceError::UnknownSession(_))
        ));
        assert!(matches!(
            service.release("bob", &stream, &[1], None),
            Err(ServiceError::UnknownSession(_))
        ));
        // Bob's own open gets a distinct stream.
        let bobs = service.stream_open("bob", &plan_id, None).unwrap();
        assert_ne!(bobs, stream);
        // A plan carol never registered cannot be streamed.
        service
            .open_tenant("carol", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.stream_open("carol", &plan_id, None),
            Err(ServiceError::UnknownPlan { .. })
        ));
    }

    #[test]
    fn stream_ownership_is_the_owner_field_not_an_id_prefix() {
        // Tenant `a`'s name is a prefix of tenant `a/b`'s stream id. `a`
        // never registered the plan, so it must get nothing from the
        // stream: not an ingest, not a release, not a charge on `a/b`.
        let service = service_with_toy_table();
        for tenant in ["a", "a/b"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let plan_id = service.register_compiled("a/b", builder(0.25)).unwrap();
        let stream = service.stream_open("a/b", &plan_id, None).unwrap();
        assert!(stream.starts_with("a/"));

        assert!(matches!(
            service.stream_ingest("a", &stream, 0, 1.0),
            Err(ServiceError::UnknownSession(_))
        ));
        for request_id in [None, Some("r0")] {
            assert!(matches!(
                service.release("a", &stream, &[1], request_id),
                Err(ServiceError::UnknownSession(_))
            ));
        }
        assert_eq!(service.budget_status("a").unwrap().charges, 0);
        assert_eq!(service.budget_status("a/b").unwrap().charges, 0);
        // The owner's stream is untouched and still its own.
        service.stream_ingest("a/b", &stream, 0, 1.0).unwrap();
        service.release("a/b", &stream, &[1], None).unwrap();
        assert_eq!(service.budget_status("a/b").unwrap().charges, 1);
    }

    #[test]
    fn shared_sessions_refuse_ingests() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();
        let before = service.release("t", &session, &[3], None).unwrap();
        let err = service.stream_ingest("t", &session, 0, 1.0).unwrap_err();
        assert!(matches!(&err, ServiceError::ReadOnlySession(id) if *id == session));
        assert_eq!(err.code(), "read_only_session");
        let after = service.release("t", &session, &[3], None).unwrap();
        assert_eq!(before, after,);
    }

    #[test]
    fn evicted_stream_replays_are_refused_not_recomputed() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 100.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.01)).unwrap();
        let stream = service.stream_open("t", &plan_id, None).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();

        service.stream_ingest("t", &stream, 1, 1.0).unwrap();
        service.release("t", &stream, &[7], Some("r0")).unwrap();
        let shared = service.release("t", &session, &[7], Some("s0")).unwrap();
        service.stream_ingest("t", &stream, 6, 3.0).unwrap();
        // Push both responses out of the replay cache with fresh ids.
        for i in 0..=crate::accountant::RESPONSE_CACHE_CAP {
            let rid = format!("evict-{i}");
            service
                .release("t", &stream, &[i as u64], Some(&rid))
                .unwrap();
        }
        let charges = service.budget_status("t").unwrap().charges;

        // The stream has moved on: a recompute would be fresh, uncharged
        // noise under the old id. Refused, typed and final.
        let err = service.release("t", &stream, &[7], Some("r0")).unwrap_err();
        assert!(
            matches!(&err, ServiceError::ReplayUnavailable { request_id } if request_id == "r0")
        );
        assert!(!err.is_retryable());
        let wire = crate::protocol::response_to_result(crate::protocol::error_response(&err));
        assert!(matches!(wire, Err(ServiceError::ReplayUnavailable { .. })));

        // A shared session never changes, so its recompute is sound and
        // byte-identical.
        let again = service.release("t", &session, &[7], Some("s0")).unwrap();
        assert_eq!(again, shared,);
        assert_eq!(service.budget_status("t").unwrap().charges, charges);
    }

    #[test]
    fn continual_releases_charge_once_per_request_id() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let stream = service.stream_open("t", &plan_id, None).unwrap();

        service.stream_ingest("t", &stream, 1, 1.0).unwrap();
        let first = service.release("t", &stream, &[7], Some("pub-1")).unwrap();
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.25);

        // The stream moves on, but a re-driven id must replay the bytes
        // from the admitted release — no re-noise, no second debit.
        service.stream_ingest("t", &stream, 6, 3.0).unwrap();
        for _ in 0..3 {
            let replay = service.release("t", &stream, &[7], Some("pub-1")).unwrap();
            assert_eq!(replay, first,);
        }
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.25);
        assert_eq!(service.budget_status("t").unwrap().charges, 1);

        // A fresh id sees the post-ingest state and is a second charge.
        let second = service.release("t", &stream, &[7], Some("pub-2")).unwrap();
        assert_ne!(second, first,);
        assert_eq!(service.budget_status("t").unwrap().charges, 2);

        // Reusing an id with different seeds is the typed client bug.
        assert!(matches!(
            service.release("t", &stream, &[8], Some("pub-1")),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
    }

    #[test]
    fn tenant_inflight_cap_sheds_with_the_typed_overload() {
        let service = service_with_toy_table().with_tenant_inflight_cap(1);
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let held = service.acquire_inflight("t").unwrap();
        assert!(held.is_some());
        // The tenant is at its cap: the wire release sheds, charging
        // nothing...
        let err = service
            .respond(
                Request::Release {
                    tenant: "t".into(),
                    session: "s".into(),
                    seeds: vec![1],
                    request_id: None,
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(&err, ServiceError::Overloaded { scope } if scope == "tenant"));
        assert!(err.is_retryable());
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.0);
        // ...other tenants are unaffected...
        service
            .open_tenant("u", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(service.acquire_inflight("u").unwrap().is_some());
        // ...and dropping the slot un-sheds the tenant.
        drop(held);
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();
        service
            .respond(
                Request::Release {
                    tenant: "t".into(),
                    session,
                    seeds: vec![1],
                    request_id: Some("r1".into()),
                },
                None,
            )
            .unwrap();
    }
}
