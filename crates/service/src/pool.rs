//! Loaded datasets and the session pool.
//!
//! A [`DataStore`] holds the named tables/histograms the operator loaded
//! into the server. A [`SessionPool`] holds every bound [`Session`], one
//! pool for both kinds:
//!
//! - **Shared** sessions (`owner == None`): a registered plan bound to one
//!   dataset, with the observations `z = S·x` computed once at bind time.
//!   Their ids are `"<plan_id>/<table>"`, so binding is idempotent and
//!   tenants sharing a plan and table share the session (the observations
//!   depend only on plan and data; per-tenant state lives in the
//!   accountant and registry). Nothing may ingest into them.
//! - **Tenant-owned** sessions (streams): a publisher pushes record-level
//!   deltas into them, so they must never be shared — one tenant's
//!   ingests would silently change what another tenant releases. Their
//!   ids embed the tenant (`"<tenant>/<plan_id>/<table>"`, empty table for
//!   a stream that starts empty), and opening is idempotent *per tenant*:
//!   reopening returns the live stream without resetting its state, which
//!   is what lets a crashed publisher reconnect and resume.
//!
//! A shared session is a stream that never ingests, so both kinds release
//! through the same path. Ownership is the entry's `owner` field, never a
//! parse of the id: tenant `a` owns nothing of tenant `a/b`'s.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::ServiceError;
use dp_core::{ContingencyTable, Plan, Session};

/// One loadable dataset: a full contingency table or a raw histogram.
pub enum Dataset {
    /// A contingency table over binary attributes.
    Table(ContingencyTable),
    /// A raw histogram (cell counts in index order).
    Histogram(Vec<f64>),
}

/// Named datasets available for binding.
pub struct DataStore {
    data: Mutex<HashMap<String, Arc<Dataset>>>,
}

impl DataStore {
    /// An empty store.
    pub fn new() -> DataStore {
        DataStore {
            data: Mutex::new(HashMap::new()),
        }
    }

    /// Loads (or replaces) a contingency table under `name`.
    pub fn insert_table(&self, name: &str, table: ContingencyTable) {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .insert(name.into(), Arc::new(Dataset::Table(table)));
    }

    /// Loads (or replaces) a histogram under `name`.
    pub fn insert_histogram(&self, name: &str, histogram: Vec<f64>) {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .insert(name.into(), Arc::new(Dataset::Histogram(histogram)));
    }

    /// Fetches a dataset by name.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, ServiceError> {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTable(name.into()))
    }

    /// The sorted names of all loaded datasets.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .data
            .lock()
            .expect("data store mutex poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl Default for DataStore {
    fn default() -> DataStore {
        DataStore::new()
    }
}

/// One pooled session: the live [`Session`] behind its lock, plus the
/// plan id it was opened from and the tenant that owns it.
pub struct PooledSession {
    owner: Option<String>,
    plan_id: String,
    session: Mutex<Session>,
}

impl PooledSession {
    /// The tenant that owns this session (a stream), or `None` for a
    /// shared bound session.
    pub fn owner(&self) -> Option<&str> {
        self.owner.as_deref()
    }

    /// The registered plan id the session was opened from.
    pub fn plan_id(&self) -> &str {
        &self.plan_id
    }

    /// Locks the live session. Hold the guard briefly — to ingest, or to
    /// take an O(1) [`Session::snapshot`] to release from.
    pub fn lock(&self) -> MutexGuard<'_, Session> {
        self.session.lock().expect("session mutex poisoned")
    }
}

/// Every bound session, shared or tenant-owned, keyed by its wire id.
pub struct SessionPool {
    sessions: Mutex<HashMap<String, Arc<PooledSession>>>,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> SessionPool {
        SessionPool {
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Opens (or re-opens) a session of `plan`, returning its wire id:
    /// `"<plan_id>/<table>"` when `owner` is `None` (a shared bound
    /// session), `"<owner>/<plan_id>/<table>"` otherwise. `dataset` seeds
    /// the initial counts; `None` starts empty.
    ///
    /// Idempotent and **non-destructive**: if the session already exists,
    /// its accumulated state is kept untouched and nothing is recomputed.
    pub fn open(
        &self,
        owner: Option<&str>,
        plan_id: &str,
        table: Option<&str>,
        plan: Arc<Plan>,
        dataset: Option<&Dataset>,
    ) -> Result<String, ServiceError> {
        let table_name = table.unwrap_or("");
        let id = match owner {
            None => format!("{plan_id}/{table_name}"),
            Some(tenant) => format!("{tenant}/{plan_id}/{table_name}"),
        };
        let mut sessions = self.sessions.lock().expect("session pool mutex poisoned");
        if let Some(existing) = sessions.get(&id) {
            if existing.owner() != owner || existing.plan_id != plan_id {
                return Err(ServiceError::Protocol(format!(
                    "session id {id:?} is already taken by another owner or plan"
                )));
            }
            return Ok(id);
        }
        let session = match dataset {
            None => Session::empty(plan)?,
            Some(Dataset::Table(t)) => Session::bind(plan, t)?,
            Some(Dataset::Histogram(h)) => Session::bind_histogram(plan, h)?,
        };
        sessions.insert(
            id.clone(),
            Arc::new(PooledSession {
                owner: owner.map(str::to_string),
                plan_id: plan_id.to_string(),
                session: Mutex::new(session),
            }),
        );
        Ok(id)
    }

    /// Fetches a session by wire id (no ownership check — see
    /// [`PooledSession::owner`]).
    pub fn get(&self, id: &str) -> Result<Arc<PooledSession>, ServiceError> {
        self.sessions
            .lock()
            .expect("session pool mutex poisoned")
            .get(id)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownSession(id.into()))
    }

    /// Number of pooled sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .expect("session pool mutex poisoned")
            .len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SessionPool {
    fn default() -> SessionPool {
        SessionPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{PlanBuilder, Schema, StrategyKind, Workload};

    fn plan() -> Arc<Plan> {
        let schema = Schema::binary(3).unwrap();
        let workload = Workload::all_k_way(&schema, 1).unwrap();
        Arc::new(
            PlanBuilder::marginals(workload, StrategyKind::Fourier)
                .compile()
                .unwrap(),
        )
    }

    #[test]
    fn binding_is_idempotent_and_typed_on_misses() {
        let store = DataStore::new();
        store.insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 7, 7]));
        assert!(matches!(
            store.get("missing"),
            Err(ServiceError::UnknownTable(_))
        ));

        let pool = SessionPool::new();
        let dataset = store.get("toy").unwrap();
        let id = pool
            .open(None, "abc", Some("toy"), plan(), Some(&dataset))
            .unwrap();
        assert_eq!(id, "abc/toy");
        let again = pool
            .open(None, "abc", Some("toy"), plan(), Some(&dataset))
            .unwrap();
        assert_eq!(id, again);
        assert_eq!(pool.len(), 1);

        let session = pool.get(&id).unwrap().lock().snapshot();
        let a = session.release(7).unwrap();
        let b = session.release(7).unwrap();
        let written = |r| {
            let mut line = String::new();
            crate::protocol::write_release(r, &mut line);
            line
        };
        assert_eq!(written(&a), written(&b), "releases are seed-deterministic");
        assert!(matches!(
            pool.get("nope"),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn stream_open_is_idempotent_and_keeps_state() {
        let pool = SessionPool::new();
        let id = pool.open(Some("acme"), "abc", None, plan(), None).unwrap();
        assert_eq!(id, "acme/abc/");

        // Push state in, then re-open: the ingests must survive.
        let stream = pool.get(&id).unwrap();
        assert_eq!(stream.owner(), Some("acme"));
        assert_eq!(stream.plan_id(), "abc");
        stream.lock().ingest(5).unwrap();
        let again = pool.open(Some("acme"), "abc", None, plan(), None).unwrap();
        assert_eq!(id, again);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.get(&id).unwrap().lock().counts()[5], 1.0);

        // Seeding from a dataset, and tenant isolation.
        let table = ContingencyTable::from_indices(3, &[2, 2, 6]);
        let seeded = pool
            .open(
                Some("beta"),
                "abc",
                Some("toy"),
                plan(),
                Some(&Dataset::Table(table)),
            )
            .unwrap();
        assert_eq!(seeded, "beta/abc/toy");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(&seeded).unwrap().lock().counts()[2], 2.0);
        assert!(matches!(
            pool.get("ghost/abc/"),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn an_id_taken_by_another_owner_is_refused() {
        // A tenant named like a plan id plus a table name with a slash
        // would spell a shared session's id; the pool refuses rather
        // than hand the shared session to the tenant.
        let pool = SessionPool::new();
        let table = Dataset::Table(ContingencyTable::from_indices(3, &[1]));
        let shared = pool
            .open(None, "abc", Some("x/toy"), plan(), Some(&table))
            .unwrap();
        assert_eq!(shared, "abc/x/toy");
        assert!(matches!(
            pool.open(Some("abc"), "x", Some("toy"), plan(), Some(&table)),
            Err(ServiceError::Protocol(_))
        ));
        assert_eq!(pool.get(&shared).unwrap().owner(), None);
    }
}
