//! The exactly-once acceptance tests: a release whose connection dies
//! *after the debit but before the response* is retried by the client
//! under the same `request_id` and comes back byte-identical with exactly
//! one charge on the ledger — including when a whole server crash and
//! WAL-replaying restart happens between the attempts.
//!
//! The fault here is injected at the [`Transport`] seam with a test-local
//! wrapper (so this file runs under default features): its connections
//! are served on the server's one, pipelined path, and the wrapper kills
//! a response inside the detached writer a request worker sends through.
//! The feature-gated `fail_point!` sites get their own exercise in
//! `tests/chaos.rs`.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dp_core::api::WorkloadSpec;
use dp_core::{ContingencyTable, Schema, StrategyKind, Workload};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_service::protocol::render_line;
use dp_service::transport::{Connection, ConnectionWriter, TcpConnection, TcpTransport, Transport};
use dp_service::{Accountant, Client, ClientConfig, DpService, KeyedRelease, Server, ServiceError};

fn toy_table() -> ContingencyTable {
    ContingencyTable::from_indices(4, &[0, 1, 2, 3, 9, 15, 15])
}

fn toy_spec() -> WorkloadSpec {
    let schema = Schema::binary(4).unwrap();
    let workload = Workload::all_k_way(&schema, 1).unwrap();
    WorkloadSpec::Marginals {
        workload,
        strategy: StrategyKind::Fourier,
        cluster: Default::default(),
    }
}

/// A TCP connection whose next response can be remotely killed — the
/// precise failure window of the exactly-once contract: the server has
/// already debited and computed, the client never hears back.
struct FlakyConn {
    inner: TcpConnection,
    socket: TcpStream,
    kill_next_send: Arc<AtomicBool>,
}

impl Connection for FlakyConn {
    fn receive(&mut self) -> Result<Option<String>, ServiceError> {
        self.inner.receive()
    }

    fn writer(&self) -> Result<Box<dyn ConnectionWriter>, ServiceError> {
        Ok(Box::new(FlakyWriter {
            inner: self.inner.writer()?,
            socket: self.socket.try_clone()?,
            kill_next_send: Arc::clone(&self.kill_next_send),
        }))
    }
}

struct FlakyWriter {
    inner: Box<dyn ConnectionWriter>,
    socket: TcpStream,
    kill_next_send: Arc<AtomicBool>,
}

impl ConnectionWriter for FlakyWriter {
    fn send(&mut self, line: &str) -> Result<(), ServiceError> {
        if self.kill_next_send.swap(false, Ordering::SeqCst) {
            // Lost like any broken pipe, and closed the way the TCP writer
            // closes on one: the client sees the drop at once instead of
            // waiting out its read timeout, and the server's reader stops.
            let _ = self.socket.shutdown(Shutdown::Both);
            return Err(ServiceError::Io(
                "injected: connection died before the response".into(),
            ));
        }
        self.inner.send(line)
    }
}

/// A listener handing out [`FlakyConn`]s; it stops the way
/// [`TcpTransport`] does, by flagging and then dialling itself.
struct FlakyTransport {
    listener: TcpListener,
    stopping: AtomicBool,
    kill_next_send: Arc<AtomicBool>,
}

impl Transport for FlakyTransport {
    type Conn = FlakyConn;

    fn accept(&self) -> Result<Option<FlakyConn>, ServiceError> {
        let (stream, _) = self.listener.accept()?;
        if self.stopping.load(Ordering::SeqCst) {
            return Ok(None);
        }
        Ok(Some(FlakyConn {
            socket: stream.try_clone()?,
            inner: TcpConnection::from_stream(stream)?,
            kill_next_send: Arc::clone(&self.kill_next_send),
        }))
    }

    fn local_addr(&self) -> String {
        self.listener.local_addr().unwrap().to_string()
    }

    fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr());
    }
}

fn start_flaky_server(ledger: &std::path::Path) -> (JoinHandle<()>, String, Arc<AtomicBool>) {
    let service = DpService::new(Accountant::with_wal(ledger).unwrap());
    service.data().insert_table("toy", toy_table());
    let kill_next_send = Arc::new(AtomicBool::new(false));
    let transport = FlakyTransport {
        listener: TcpListener::bind("127.0.0.1:0").unwrap(),
        stopping: AtomicBool::new(false),
        kill_next_send: Arc::clone(&kill_next_send),
    };
    let server = Server::new(service, transport);
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (handle, addr, kill_next_send)
}

fn tmp_ledger(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dp-service-exactly-once-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    path
}

/// Registers the plan and binds the session — the deterministic part a
/// restarted server must redo, since only budgets live in the WAL.
fn register_and_bind(client: &mut Client) -> String {
    let plan_id = client
        .register_compile(
            "t",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            PrivacyLevel::Pure { epsilon: 0.25 },
            Neighboring::AddRemove,
        )
        .unwrap();
    client.bind("t", &plan_id, "toy").unwrap()
}

#[test]
fn a_connection_killed_after_the_debit_retries_into_one_charge() {
    let ledger = tmp_ledger("conn-kill");
    let (handle, addr, kill_next_send) = start_flaky_server(&ledger);
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
        .unwrap();
    let session = register_and_bind(&mut client);
    let seeds = [11u64, (1 << 60) + 3];

    // The server will debit, draw the release, and then the connection
    // dies before the response line leaves. The client's retry machinery
    // resends under the same request id and gets the journaled response.
    kill_next_send.store(true, Ordering::SeqCst);
    let released = client
        .release_with_id("t", &session, &seeds, "req-flaky")
        .unwrap();
    assert_eq!(released.len(), seeds.len());
    assert!(
        client.stats().retries >= 1,
        "the first attempt must actually have failed"
    );

    // Exactly one charge for the whole episode.
    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, 1);
    assert!((status.spent_epsilon - 0.5).abs() < 1e-12);

    // And replays of the same id are byte-identical, debiting nothing.
    let again = client
        .release_with_id("t", &session, &seeds, "req-flaky")
        .unwrap();
    let rendered: Vec<String> = released.iter().map(render_line).collect();
    let rendered_again: Vec<String> = again.iter().map(render_line).collect();
    assert_eq!(rendered, rendered_again);
    assert_eq!(client.budget_status("t").unwrap().charges, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_retry_across_a_server_restart_replays_byte_identically() {
    let ledger = tmp_ledger("restart");
    let seeds = [7u64, 42, (1 << 59) + 1];

    // ---- Server incarnation 1 ----
    let (handle, addr, kill_next_send) = start_flaky_server(&ledger);
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
        .unwrap();
    let session = register_and_bind(&mut client);

    // "req-ok" completes normally: these are the reference bytes.
    let reference: Vec<String> = client
        .release_with_id("t", &session, &seeds, "req-ok")
        .unwrap()
        .iter()
        .map(render_line)
        .collect();

    // "req-lost" is debited but its response never arrives — and this
    // client does not retry, mimicking a caller that crashes and will
    // come back later (as a new process, even) with the same id.
    let mut one_shot = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    kill_next_send.store(true, Ordering::SeqCst);
    let err = one_shot
        .release_with_id("t", &session, &seeds, "req-lost")
        .unwrap_err();
    assert!(
        err.is_retryable(),
        "lost response must look retryable: {err}"
    );
    assert_eq!(
        client.budget_status("t").unwrap().charges,
        2,
        "req-lost was debited even though its response was lost"
    );

    // The server "crashes": every acknowledged debit is already fsynced
    // in the WAL, so a clean stop is ledger-equivalent to SIGKILL (the
    // CI chaos job kills a real process for the ruder version).
    drop(one_shot);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // ---- Server incarnation 2: same ledger, fresh process state ----
    let (handle, addr, _kill) = start_flaky_server(&ledger);
    let mut client = Client::connect(&addr).unwrap();
    // Budgets replayed from the WAL; both debits survived the crash.
    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, 2);
    assert!((status.spent_epsilon - 1.5).abs() < 1e-12);
    // Plans and sessions are deterministic, not persisted: re-register.
    let session2 = register_and_bind(&mut client);
    assert_eq!(session2, session, "session ids are deterministic");

    // Retrying the *lost* release now: the journal (rebuilt from the WAL)
    // knows the id, debits nothing, and recomputes the seed-deterministic
    // response the first incarnation never delivered.
    let recovered: Vec<String> = client
        .release_with_id("t", &session2, &seeds, "req-lost")
        .unwrap()
        .iter()
        .map(render_line)
        .collect();
    assert_eq!(
        recovered, reference,
        "same plan, table and seeds must reproduce the same bytes"
    );
    // Retrying the *completed* release: same bytes, still no new charge.
    let replayed: Vec<String> = client
        .release_with_id("t", &session2, &seeds, "req-ok")
        .unwrap()
        .iter()
        .map(render_line)
        .collect();
    assert_eq!(replayed, reference);
    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, 2, "no retry ever debited a second time");
    assert!((status.spent_epsilon - 1.5).abs() < 1e-12);

    // Reusing a journaled id with different seeds is refused, typed.
    assert!(matches!(
        client.release_with_id("t", &session2, &[99], "req-ok"),
        Err(ServiceError::Remote { ref code, .. }) if code == "idempotency_mismatch"
    ));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Starts a plain-TCP server (real `TcpConnection`s) over a
/// group-committed WAL ledger.
fn start_plain_server(ledger: &std::path::Path) -> (JoinHandle<()>, String) {
    let service = DpService::new(Accountant::with_wal(ledger).unwrap());
    service.data().insert_table("toy", toy_table());
    let server = Server::new(service, TcpTransport::bind("127.0.0.1:0").unwrap());
    let addr = server.addr();
    (std::thread::spawn(move || server.run().unwrap()), addr)
}

/// A whole *pipelined* window of keyed releases, group-committed, then a
/// server restart: replaying the identical window against the second
/// incarnation returns byte-identical releases and debits nothing — the
/// dedup journal rebuilt from the WAL covers every id the first
/// incarnation acknowledged, however its batches were formed.
#[test]
fn a_pipelined_keyed_storm_survives_a_restart_byte_identically() {
    const WINDOW: usize = 16;
    let ledger = tmp_ledger("pipelined-restart");
    let requests: Vec<KeyedRelease> = (0..WINDOW)
        .map(|i| KeyedRelease {
            request_id: format!("storm-{i}"),
            seeds: vec![i as u64, (1 << 58) + i as u64],
        })
        .collect();

    // ---- Server incarnation 1: the storm lands, every ack durable ----
    let (handle, addr) = start_plain_server(&ledger);
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 16.0 })
        .unwrap();
    let session = register_and_bind(&mut client);
    let reference: Vec<Vec<String>> = client
        .release_pipelined("t", &session, &requests)
        .unwrap()
        .iter()
        .map(|releases| releases.iter().map(render_line).collect())
        .collect();
    assert_eq!(reference.len(), WINDOW);
    assert_eq!(
        client.stats().retries,
        0,
        "a healthy loopback never retries"
    );
    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, WINDOW, "one charge per keyed release");

    client.shutdown().unwrap();
    handle.join().unwrap();

    // ---- Server incarnation 2: same ledger, fresh process state ----
    let (handle, addr) = start_plain_server(&ledger);
    let mut client = Client::connect(&addr).unwrap();
    let status = client.budget_status("t").unwrap();
    assert_eq!(
        status.charges, WINDOW,
        "every group-committed debit survived"
    );
    let session2 = register_and_bind(&mut client);
    assert_eq!(session2, session, "session ids are deterministic");

    // The identical window again: all replays, recomputed from the
    // journaled (id, session, seeds) triples, byte-for-byte the originals.
    let replayed: Vec<Vec<String>> = client
        .release_pipelined("t", &session2, &requests)
        .unwrap()
        .iter()
        .map(|releases| releases.iter().map(render_line).collect())
        .collect();
    assert_eq!(replayed, reference);
    let status = client.budget_status("t").unwrap();
    assert_eq!(
        status.charges, WINDOW,
        "no replay ever debited a second time"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
