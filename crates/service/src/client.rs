//! A small blocking client for the JSON-lines protocol, with timeouts
//! and idempotent retries.
//!
//! One [`Client`] holds (at most) one connection; every call sends one
//! request line and blocks for its one response line. Error responses
//! come back as the typed [`ServiceError`] they encode —
//! `budget_exhausted` reconstructs the full
//! [`ServiceError::BudgetExhausted`] variant, `overloaded` the retryable
//! [`ServiceError::Overloaded`], other codes arrive as
//! [`ServiceError::Remote`].
//!
//! ## Failure handling
//!
//! Every socket operation runs under the deadlines in [`ClientConfig`] —
//! a hung or partitioned server surfaces as a typed
//! [`ServiceError::Timeout`] instead of blocking forever. Calls that are
//! *idempotent* are then retried with capped exponential backoff, on a
//! fresh connection when the old one failed:
//!
//! - Every protocol op except `shutdown` and `ingest` is naturally
//!   idempotent (`open_tenant` re-asserts, `register_plan`/`bind`/
//!   `stream_open` are deterministic, `budget_status`/`ping` are reads).
//!   An `ingest` resent blindly would apply its delta twice, so it is
//!   never auto-retried.
//! - `release` is made idempotent by attaching a client-generated
//!   `request_id`: [`Client::release`] mints one per *logical* call and
//!   reuses it across its internal retries, so a retry after a dropped
//!   response returns the server's journaled bytes instead of debiting
//!   the budget again. [`Client::release_with_id`] exposes the key for
//!   retries that must survive the client process itself.
//! - [`Client::release_pipelined`] sends a whole batch of keyed releases
//!   before reading any response (matching replies by the echoed
//!   `request_id`), which is what lets one connection fill the server's
//!   group-commit fsync batches; unanswered ids are re-driven
//!   individually under the same keys, so failures replay instead of
//!   re-debiting.
//!
//! Only transport-class failures ([`ServiceError::is_retryable`]) are
//! retried; deterministic refusals (auth, exhaustion, protocol errors)
//! return immediately.
//!
//! Against a server running the operator auth policy (see
//! [`crate::auth`]), set a bearer credential with
//! [`Client::set_credential`]; it rides along as the `"auth"` field on
//! every request. The operator opens tenants with
//! [`Client::open_tenant_with_token`] to install each tenant's token.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::accountant::BudgetStatus;
use crate::error::ServiceError;
use crate::protocol::{
    f64_field, field, parse_line, protocol_error, render_line, response_to_result, string_field,
    Request,
};
use crate::transport::{Connection, TcpConnection};
use dp_core::api::WorkloadSpec;
use dp_core::serde_impls::privacy_from;
use dp_core::{Budgeting, Plan, PlanBuilder};
use dp_mech::{Neighboring, PrivacyLevel};
use serde::{Serialize as _, Value};

/// Deadlines and retry policy for a [`Client`].
///
/// The defaults are finite on purpose: a client must never hang forever
/// on a dead or wedged server. Set a field to [`Duration::ZERO`] to
/// disable that deadline (blocking indefinitely), or `max_retries` to 0
/// to disable retries.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each blocking read (one response line).
    pub read_timeout: Duration,
    /// Deadline for each blocking write (one request line).
    pub write_timeout: Duration,
    /// Retries after the first attempt, for idempotent requests only.
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Ceiling for the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_retries: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl ClientConfig {
    /// A config with every socket deadline set to `timeout` (retry policy
    /// unchanged from the default).
    pub fn with_timeout(timeout: Duration) -> ClientConfig {
        ClientConfig {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
            ..ClientConfig::default()
        }
    }
}

/// Counters of how often this client hit the failure paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Requests resent after a retryable failure.
    pub retries: u64,
    /// Typed [`ServiceError::Overloaded`] sheds received (each one is
    /// also counted as a retry when the budget of attempts allowed).
    pub sheds: u64,
}

/// One release in a pipelined batch: the idempotency key plus the seeds
/// it draws (see [`Client::release_pipelined`]).
#[derive(Debug, Clone)]
pub struct KeyedRelease {
    /// The idempotency key; must be unique within the batch.
    pub request_id: String,
    /// Seeds to draw under that key.
    pub seeds: Vec<u64>,
}

/// Process-unique suffix for generated request ids.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mints a request id unique across processes (pid + wall-clock nanos)
/// and within this process (atomic sequence).
fn generate_request_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("c{:x}-{nanos:x}-{seq:x}", std::process::id())
}

/// A blocking connection to a running service (see the module docs for
/// the timeout and retry behavior).
pub struct Client {
    addr: String,
    config: ClientConfig,
    conn: Option<TcpConnection>,
    credential: Option<String>,
    stats: ClientStats,
}

fn optional(timeout: Duration) -> Option<Duration> {
    (timeout > Duration::ZERO).then_some(timeout)
}

/// Moves the `releases` array out of an owned success response.
fn take_releases(response: Value) -> Result<Vec<Value>, ServiceError> {
    let fields = match response {
        Value::Object(fields) => fields,
        _ => Vec::new(),
    };
    match fields.into_iter().find(|(key, _)| key == "releases") {
        Some((_, Value::Array(releases))) => Ok(releases),
        Some(_) => Err(ServiceError::Protocol("`releases` must be an array".into())),
        None => Err(ServiceError::Protocol("missing field `releases`".into())),
    }
}

impl Client {
    /// Dials `addr` (e.g. `127.0.0.1:7878`) with the default
    /// [`ClientConfig`].
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Dials `addr` under an explicit deadline/retry policy.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Client, ServiceError> {
        let mut client = Client {
            addr: addr.to_string(),
            config,
            conn: None,
            credential: None,
            stats: ClientStats::default(),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Sets (or clears) the bearer credential attached to every request —
    /// a tenant token, or the admin token for operator calls. Ignored by
    /// servers running the trusted policy.
    pub fn set_credential(&mut self, credential: Option<String>) {
        self.credential = credential;
    }

    /// How often this client has retried or been shed so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpConnection, ServiceError> {
        if self.conn.is_none() {
            let stream = match optional(self.config.connect_timeout) {
                None => TcpStream::connect(&self.addr)?,
                Some(deadline) => {
                    let target =
                        self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                            ServiceError::Io(format!("cannot resolve {}", self.addr))
                        })?;
                    TcpStream::connect_timeout(&target, deadline).map_err(|e| {
                        if e.kind() == std::io::ErrorKind::TimedOut {
                            ServiceError::Timeout(format!("connect to {}", self.addr))
                        } else {
                            ServiceError::Io(e.to_string())
                        }
                    })?
                }
            };
            stream.set_read_timeout(optional(self.config.read_timeout))?;
            stream.set_write_timeout(optional(self.config.write_timeout))?;
            self.conn = Some(TcpConnection::from_stream(stream)?);
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// One request/response exchange on the current connection, no
    /// retries. A connection closed before the response arrives is a
    /// retryable [`ServiceError::Io`]: for idempotent requests the retry
    /// machinery (or the server's release journal) absorbs the ambiguity
    /// of whether the request executed.
    fn call_once(&mut self, line: &str) -> Result<Value, ServiceError> {
        let conn = self.ensure_connected()?;
        conn.send(line)?;
        let response = conn
            .receive()?
            .ok_or_else(|| ServiceError::Io("server closed the connection mid-call".into()))?;
        response_to_result(parse_line(&response)?)
    }

    /// Renders `request` as one wire line, with the bearer credential (if
    /// any) as a trailing `"auth"` field. The field is spliced into the
    /// rendered object: the same bytes as pushing it onto the object's
    /// fields, without copying the request tree.
    fn request_line(&self, request: &Value) -> String {
        let mut line = render_line(request);
        if let (Some(token), Value::Object(fields)) = (&self.credential, request) {
            line.pop(); // the closing '}'
            if !fields.is_empty() {
                line.push(',');
            }
            line.push_str("\"auth\":");
            line.push_str(&render_line(&Value::String(token.clone())));
            line.push('}');
        }
        line
    }

    /// Sends the request, retrying transport-class failures with capped
    /// exponential backoff when `idempotent` allows it.
    fn call_retrying(&mut self, request: &Value, idempotent: bool) -> Result<Value, ServiceError> {
        let line = self.request_line(request);
        let mut attempt: u32 = 0;
        loop {
            match self.call_once(&line) {
                Ok(response) => return Ok(response),
                Err(err) => {
                    let shed = matches!(err, ServiceError::Overloaded { .. });
                    if shed {
                        self.stats.sheds += 1;
                    } else {
                        // The connection state is unknown after an I/O or
                        // timeout failure; reconnect before any retry. A
                        // shed leaves the connection healthy.
                        self.conn = None;
                    }
                    if !idempotent || !err.is_retryable() || attempt >= self.config.max_retries {
                        return Err(err);
                    }
                    let exp = self
                        .config
                        .backoff_base
                        .saturating_mul(1u32 << attempt.min(16));
                    std::thread::sleep(exp.min(self.config.backoff_cap));
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    /// Sends one raw, idempotent request value and returns the raw success
    /// response.
    fn call_value(&mut self, request: &Value) -> Result<Value, ServiceError> {
        self.call_retrying(request, true)
    }

    fn call(&mut self, request: &Request) -> Result<Value, ServiceError> {
        self.call_retrying(&request.to_value(), true)
    }

    /// Liveness check; returns the server's loaded dataset names.
    pub fn ping(&mut self) -> Result<Vec<String>, ServiceError> {
        let response = self.call(&Request::Ping)?;
        Ok(response
            .get_field("tables")
            .and_then(Value::as_array)
            .map(|tables| {
                tables
                    .iter()
                    .filter_map(|t| t.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Opens a tenant with the given total budget (trusted policy; under
    /// the operator policy use [`Client::open_tenant_with_token`]).
    pub fn open_tenant(&mut self, tenant: &str, budget: PrivacyLevel) -> Result<(), ServiceError> {
        self.call(&Request::OpenTenant {
            tenant: tenant.into(),
            budget,
            tenant_token: None,
        })
        .map(|_| ())
    }

    /// Opens a tenant and installs its bearer token (operator policy;
    /// requires the admin credential to be set).
    pub fn open_tenant_with_token(
        &mut self,
        tenant: &str,
        budget: PrivacyLevel,
        token: &str,
    ) -> Result<(), ServiceError> {
        self.call(&Request::OpenTenant {
            tenant: tenant.into(),
            budget,
            tenant_token: Some(token.into()),
        })
        .map(|_| ())
    }

    /// Registers a locally compiled plan, returning its plan id.
    pub fn register_plan(&mut self, tenant: &str, plan: &Plan) -> Result<String, ServiceError> {
        let request = Value::Object(vec![
            ("op".into(), Value::String("register_plan".into())),
            ("tenant".into(), Value::String(tenant.into())),
            ("plan".into(), plan.serialize_value()),
        ]);
        let response = self.call_value(&request)?;
        string_field(&response, "plan_id")
    }

    /// Asks the server to compile (through its shared cache) and register
    /// a plan, returning its plan id.
    pub fn register_compile(
        &mut self,
        tenant: &str,
        spec: WorkloadSpec,
        budgeting: Budgeting,
        privacy: PrivacyLevel,
        neighboring: Neighboring,
    ) -> Result<String, ServiceError> {
        let response = self.call(&Request::RegisterCompile {
            tenant: tenant.into(),
            plan: PlanBuilder::new(spec)
                .budgeting(budgeting)
                .privacy(privacy)
                .neighboring(neighboring),
        })?;
        string_field(&response, "plan_id")
    }

    /// Binds a registered plan to a loaded table, returning the session id.
    pub fn bind(
        &mut self,
        tenant: &str,
        plan_id: &str,
        table: &str,
    ) -> Result<String, ServiceError> {
        let response = self.call(&Request::Bind {
            tenant: tenant.into(),
            plan_id: plan_id.into(),
            table: table.into(),
        })?;
        string_field(&response, "session")
    }

    /// Draws one release per seed, returning the raw release objects
    /// (render with [`crate::protocol::render_line`] for byte-stable
    /// comparison or storage).
    ///
    /// A fresh `request_id` is minted for this logical call and reused
    /// across its internal retries, so a response lost to a dropped
    /// connection is recovered by replay — exactly one debit, identical
    /// bytes. Use [`Client::release_with_id`] to control the key.
    pub fn release(
        &mut self,
        tenant: &str,
        session: &str,
        seeds: &[u64],
    ) -> Result<Vec<Value>, ServiceError> {
        self.release_with_id(tenant, session, seeds, &generate_request_id())
    }

    /// [`Client::release`] under an explicit idempotency key, for retries
    /// that must survive this client (or this process): resending the
    /// same `request_id` with the same session and seeds never debits
    /// twice, and returns the originally journaled release bytes.
    pub fn release_with_id(
        &mut self,
        tenant: &str,
        session: &str,
        seeds: &[u64],
        request_id: &str,
    ) -> Result<Vec<Value>, ServiceError> {
        let request = Request::Release {
            tenant: tenant.into(),
            session: session.into(),
            seeds: seeds.to_vec(),
            request_id: Some(request_id.into()),
        };
        take_releases(self.call_retrying(&request.to_value(), true)?)
    }

    /// Sends a whole batch of keyed releases down the connection before
    /// reading any response (pipelining), then matches the out-of-order
    /// responses back to their requests by the echoed `request_id`.
    /// Returns the per-request release arrays in input order.
    ///
    /// With a pipelining-capable server this is what saturates the
    /// accountant's group committer: k requests in flight share fsync
    /// batches instead of paying one `sync_data` each, serially. Every
    /// request is idempotent (keyed), so failure handling is simple and
    /// safe: any id whose response is missing or failed after the
    /// pipelined exchange — dropped connection, in-band shed, anything —
    /// is re-driven individually through [`Client::release_with_id`] with
    /// the same key, which replays (never re-debits) work the server
    /// already admitted.
    pub fn release_pipelined(
        &mut self,
        tenant: &str,
        session: &str,
        requests: &[KeyedRelease],
    ) -> Result<Vec<Vec<Value>>, ServiceError> {
        {
            let mut seen = std::collections::HashSet::new();
            for r in requests {
                if !seen.insert(r.request_id.as_str()) {
                    return Err(ServiceError::Protocol(format!(
                        "duplicate request_id {:?} in pipelined batch",
                        r.request_id
                    )));
                }
            }
        }
        let lines: Vec<String> = requests
            .iter()
            .map(|r| {
                let request = Request::Release {
                    tenant: tenant.into(),
                    session: session.into(),
                    seeds: r.seeds.clone(),
                    request_id: Some(r.request_id.clone()),
                };
                self.request_line(&request.to_value())
            })
            .collect();
        let mut by_id: std::collections::HashMap<String, Vec<Value>> =
            std::collections::HashMap::new();
        // Best-effort pipelined exchange: send everything, then read one
        // response per request. Any hiccup just leaves ids unanswered for
        // the keyed re-drive below.
        let exchange = (|| -> Result<(), ServiceError> {
            let conn = self.ensure_connected()?;
            for line in &lines {
                conn.send(line)?;
            }
            for _ in 0..lines.len() {
                let response = conn.receive()?.ok_or_else(|| {
                    ServiceError::Io("server closed the connection mid-pipeline".into())
                })?;
                let Ok(value) = parse_line(&response) else {
                    continue;
                };
                // Error responses carry no request_id; their requests are
                // re-driven (and get their real typed error) below.
                let Ok(ok) = response_to_result(value) else {
                    continue;
                };
                if let Ok(id) = string_field(&ok, "request_id") {
                    if let Ok(releases) = take_releases(ok) {
                        by_id.insert(id, releases);
                    }
                }
            }
            Ok(())
        })();
        if exchange.is_err() {
            // The stream is in an unknown state; anything unanswered is
            // recovered over a fresh connection, per id.
            self.conn = None;
        }
        let mut out = Vec::with_capacity(requests.len());
        for r in requests {
            match by_id.remove(&r.request_id) {
                Some(releases) => out.push(releases),
                None => out.push(self.release_with_id(tenant, session, &r.seeds, &r.request_id)?),
            }
        }
        Ok(out)
    }

    /// Opens (or re-opens) a streaming session over a registered plan,
    /// returning the stream id. Idempotent and non-destructive on the
    /// server — a reconnecting publisher gets its live stream back with
    /// every accumulated delta intact. `table` seeds the stream from a
    /// loaded dataset; `None` starts it empty.
    pub fn stream_open(
        &mut self,
        tenant: &str,
        plan_id: &str,
        table: Option<&str>,
    ) -> Result<String, ServiceError> {
        let response = self.call(&Request::StreamOpen {
            tenant: tenant.into(),
            plan_id: plan_id.into(),
            table: table.map(str::to_owned),
        })?;
        string_field(&response, "stream")
    }

    /// Pushes one record-level delta into a stream (`delta` records at
    /// `cell`; negative retracts). Uncharged and idempotent-unsafe on its
    /// own — a resent ingest applies twice — so it is retried only at the
    /// transport layer like other calls; publishers that need exact
    /// counts under crashes should rebuild from their own log and rely on
    /// the keyed [`Client::release_current`] for the charged step.
    pub fn ingest(
        &mut self,
        tenant: &str,
        stream: &str,
        cell: u64,
        delta: f64,
    ) -> Result<(), ServiceError> {
        self.call_retrying(
            &Request::Ingest {
                tenant: tenant.into(),
                stream: stream.into(),
                cell,
                delta,
            }
            .to_value(),
            false,
        )
        .map(|_| ())
    }

    /// Releases the stream's current state — the metered step of the
    /// continual-release loop. With `request_id` set the call is keyed
    /// and retried like [`Client::release_with_id`]: a crashed publisher
    /// re-driving its id schedule replays journaled bytes and is charged
    /// exactly once per id. Without a key the call is sent once,
    /// unretried (a blind resend could debit twice).
    pub fn release_current(
        &mut self,
        tenant: &str,
        stream: &str,
        seeds: &[u64],
        request_id: Option<&str>,
    ) -> Result<Vec<Value>, ServiceError> {
        let keyed = request_id.is_some();
        let request = Request::ReleaseCurrent {
            tenant: tenant.into(),
            stream: stream.into(),
            seeds: seeds.to_vec(),
            request_id: request_id.map(str::to_owned),
        };
        take_releases(self.call_retrying(&request.to_value(), keyed)?)
    }

    /// The tenant's current budget position.
    pub fn budget_status(&mut self, tenant: &str) -> Result<BudgetStatus, ServiceError> {
        let response = self.call(&Request::BudgetStatus {
            tenant: tenant.into(),
        })?;
        Ok(BudgetStatus {
            total: privacy_from(field(&response, "total")?).map_err(protocol_error)?,
            spent_epsilon: f64_field(&response, "spent_epsilon")?,
            spent_delta: f64_field(&response, "spent_delta")?,
            remaining_epsilon: f64_field(&response, "remaining_epsilon")?,
            remaining_delta: f64_field(&response, "remaining_delta")?,
            charges: f64_field(&response, "charges")? as usize,
        })
    }

    /// Asks the server to stop accepting connections and exit. Never
    /// retried: a resend could kill a server that restarted in between.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        self.call_retrying(&Request::Shutdown.to_value(), false)
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_request_ids_are_unique() {
        let ids: Vec<String> = (0..64).map(|_| generate_request_id()).collect();
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len());
    }

    #[test]
    fn zero_timeouts_mean_block_forever() {
        assert_eq!(optional(Duration::ZERO), None);
        assert_eq!(
            optional(Duration::from_millis(5)),
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn spliced_credential_matches_a_pushed_auth_field() {
        let mut client = Client {
            addr: String::new(),
            config: ClientConfig::default(),
            conn: None,
            credential: None,
            stats: ClientStats::default(),
        };
        let requests = [
            Request::Ping.to_value(),
            Value::Object(Vec::new()),
            Request::Release {
                tenant: "t".into(),
                session: "p/toy".into(),
                seeds: vec![1, (1 << 60) + 3],
                request_id: Some("r\"1".into()),
            }
            .to_value(),
            Value::Array(vec![Value::Null]),
        ];
        for request in &requests {
            assert_eq!(client.request_line(request), render_line(request));
        }
        for token in ["tok", "quote\"back\\slash\u{1}é"] {
            client.set_credential(Some(token.into()));
            for request in &requests {
                let expected = match request {
                    Value::Object(fields) => {
                        let mut fields = fields.clone();
                        fields.push(("auth".into(), Value::String(token.into())));
                        render_line(&Value::Object(fields))
                    }
                    other => render_line(other),
                };
                assert_eq!(client.request_line(request), expected);
            }
        }
    }

    #[test]
    fn releases_move_out_of_the_response() {
        let releases = vec![Value::Number(1.0), Value::String("r".into())];
        let response = Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            ("releases".into(), Value::Array(releases.clone())),
        ]);
        assert_eq!(take_releases(response).unwrap(), releases);
        for bad in [
            Value::Object(vec![("ok".into(), Value::Bool(true))]),
            Value::Object(vec![("releases".into(), Value::Null)]),
            Value::Null,
        ] {
            assert!(matches!(take_releases(bad), Err(ServiceError::Protocol(_))));
        }
    }

    #[test]
    fn default_deadlines_are_finite() {
        let config = ClientConfig::default();
        assert!(config.connect_timeout > Duration::ZERO);
        assert!(config.read_timeout > Duration::ZERO);
        assert!(config.write_timeout > Duration::ZERO);
        let uniform = ClientConfig::with_timeout(Duration::from_millis(250));
        assert_eq!(uniform.read_timeout, Duration::from_millis(250));
        assert_eq!(uniform.max_retries, config.max_retries);
    }
}
