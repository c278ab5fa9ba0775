//! Chaos tests driven by the deterministic failpoints (see
//! `dp_service::failpoint`). Compiled and run only with
//! `--features fault-inject`; the CI workflow has a dedicated step.
//!
//! The failpoint registry is process-global, so every test here takes the
//! `serial()` lock and clears the registry on both sides.

#![cfg(feature = "fault-inject")]

use std::sync::{Arc, Mutex, MutexGuard};

use dp_core::api::Session;
use dp_core::{ContingencyTable, PlanBuilder, Schema, StrategyKind, Workload};
use dp_mech::PrivacyLevel;
use dp_service::failpoint::{self, FailAction, Trigger};
use dp_service::protocol::{render_line, session_release_to_value};
use dp_service::{
    Accountant, Client, ClientConfig, DpService, KeyedRelease, ReleaseAdmission, Server,
    ServiceError, TcpTransport,
};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    guard
}

fn tmp_ledger(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-service-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

const HALF: PrivacyLevel = PrivacyLevel::Pure { epsilon: 0.5 };

fn toy_table() -> ContingencyTable {
    ContingencyTable::from_indices(3, &[0, 1, 5, 7, 7])
}

fn toy_service(accountant: Accountant) -> (DpService, String) {
    let service = DpService::new(accountant);
    service.data().insert_table("toy", toy_table());
    service
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 8.0 })
        .unwrap();
    let schema = Schema::binary(3).unwrap();
    let workload = Workload::all_k_way(&schema, 1).unwrap();
    let plan_id = service
        .register_compiled(
            "t",
            PlanBuilder::marginals(workload, StrategyKind::Fourier).privacy(HALF),
        )
        .unwrap();
    let session = service.bind("t", &plan_id, "toy").unwrap();
    (service, session)
}

/// A WAL append that dies after the in-memory debit: the budget stays
/// burned (over-counting is the safe direction) but the request id is
/// *not* journaled, so the retry debits again rather than replaying a
/// record that never reached disk.
#[test]
fn an_append_failure_burns_budget_without_journaling_the_id() {
    let _guard = serial();
    let acct = Accountant::with_wal(&tmp_ledger("append")).unwrap();
    acct.open_tenant("t", PrivacyLevel::Pure { epsilon: 8.0 })
        .unwrap();

    failpoint::configure("wal.append", Trigger::nth(0), FailAction::Error);
    let err = acct.admit_release("t", "r1", "s", &[1], HALF).unwrap_err();
    assert!(matches!(err, ServiceError::Io(_)), "got {err:?}");
    assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
    assert_eq!(acct.journaled_releases(), 0);

    // The retry finds no journal entry and debits again: 2 × 0.5 spent
    // for one released answer — wasteful, never an overspend.
    assert!(matches!(
        acct.admit_release("t", "r1", "s", &[1], HALF).unwrap(),
        ReleaseAdmission::Fresh
    ));
    assert_eq!(acct.status("t").unwrap().spent_epsilon, 1.0);
    assert_eq!(acct.journaled_releases(), 1);
    assert_eq!(failpoint::fired_count("wal.append"), 1);
    failpoint::clear_all();
}

/// A failed *batch* sync under group commit fails **every** waiter in the
/// batch the safe direction: all their debits are kept, none of their ids
/// is journaled, and each retry re-debits as a fresh admission. The whole
/// episode over-counts (burned-but-unreleased budget) and never
/// under-counts — and a WAL reload sees exactly the journaled records.
#[test]
fn a_batch_sync_failure_fails_every_waiter_the_safe_direction() {
    let _guard = serial();
    const N: usize = 8;
    let path = tmp_ledger("batch-sync");
    let acct = Accountant::with_wal(&path).unwrap();
    acct.open_tenant("t", PrivacyLevel::Pure { epsilon: 16.0 })
        .unwrap();

    // The first batch to reach its sync after arming fails; whichever
    // concurrent admissions were staged into it all fail together.
    failpoint::configure("wal.batch_sync", Trigger::nth(0), FailAction::Error);
    let outcomes: Vec<(String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let acct = &acct;
                scope.spawn(move || {
                    let id = format!("batch-{i}");
                    let ok = acct.admit_release("t", &id, "s", &[i as u64], HALF).is_ok();
                    (id, ok)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(failpoint::fired_count("wal.batch_sync"), 1);
    failpoint::clear_all();

    let failed: Vec<&String> = outcomes
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(id, _)| id)
        .collect();
    let errors = failed.len();
    assert!(errors >= 1, "the failed batch held at least one admission");
    let status = acct.status("t").unwrap();
    assert_eq!(status.charges, N, "every admission debited, failed or not");
    assert!((status.spent_epsilon - 0.5 * N as f64).abs() < 1e-12);
    assert_eq!(
        acct.journaled_releases(),
        N - errors,
        "failed waiters' ids must not be journaled"
    );

    // Retrying a failed id is a *fresh* admission (re-debit, journal);
    // retrying a succeeded id replays without a new charge.
    for (id, ok) in &outcomes {
        let admission = acct.admit_release("t", id, "s", &[id[6..].parse().unwrap()], HALF);
        match ok {
            true => assert!(matches!(admission.unwrap(), ReleaseAdmission::Replay(_))),
            false => assert!(matches!(admission.unwrap(), ReleaseAdmission::Fresh)),
        }
    }
    let status = acct.status("t").unwrap();
    assert_eq!(status.charges, N + errors, "each failed id re-debited once");
    assert_eq!(
        acct.journaled_releases(),
        N,
        "every id journaled in the end"
    );

    // A reload sees exactly the durable records: N journaled ids, and the
    // over-counted in-memory debits of the failed batch are gone — the
    // crash-safe direction (budget comes back, ids never double-release).
    drop(acct);
    let reloaded = Accountant::with_wal(&path).unwrap();
    assert_eq!(reloaded.journaled_releases(), N);
    assert_eq!(reloaded.status("t").unwrap().charges, N);
}

/// A failed `sync_data` is reported to the caller (the release is
/// refused) while the in-memory debit is kept.
#[test]
fn a_sync_failure_keeps_the_debit_and_refuses_the_release() {
    let _guard = serial();
    let acct = Accountant::with_wal(&tmp_ledger("sync")).unwrap();
    acct.open_tenant("t", PrivacyLevel::Pure { epsilon: 8.0 })
        .unwrap();

    failpoint::configure("wal.batch_sync", Trigger::nth(0), FailAction::Error);
    assert!(acct.try_debit("t", HALF).is_err());
    assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);

    // With the fault passed, accounting continues normally.
    acct.try_debit("t", HALF).unwrap();
    assert_eq!(acct.status("t").unwrap().spent_epsilon, 1.0);
    failpoint::clear_all();
}

/// The narrowest exactly-once window, hit without any socket: the debit
/// lands, then the release computation dies. The retry of the same id
/// replays (recomputes) without a second debit.
#[test]
fn a_post_debit_crash_retries_into_one_charge() {
    let _guard = serial();
    let (service, session) = toy_service(Accountant::with_wal(&tmp_ledger("post-debit")).unwrap());

    failpoint::configure("release.post_debit", Trigger::nth(0), FailAction::Error);
    let err = service
        .release("t", &session, &[3, 4], Some("r1"))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Io(_)), "got {err:?}");
    let status = service.budget_status("t").unwrap();
    assert_eq!(status.charges, 1, "the debit preceded the crash");
    assert_eq!(status.spent_epsilon, 1.0);

    let response = service.release("t", &session, &[3, 4], Some("r1")).unwrap();
    let status = service.budget_status("t").unwrap();
    assert_eq!(status.charges, 1, "the retry replayed, not re-debited");
    assert_eq!(status.spent_epsilon, 1.0);

    // And a further retry returns the now-cached bytes verbatim.
    let again = service.release("t", &session, &[3, 4], Some("r1")).unwrap();
    assert_eq!(response, again);
    failpoint::clear_all();
}

fn start_server(accountant: Accountant) -> (std::thread::JoinHandle<()>, String) {
    serve(DpService::new(accountant))
}

fn serve(service: DpService) -> (std::thread::JoinHandle<()>, String) {
    service.data().insert_table("toy", toy_table());
    let server = Server::new(service, TcpTransport::bind("127.0.0.1:0").unwrap());
    let addr = server.addr();
    (std::thread::spawn(move || server.run().unwrap()), addr)
}

fn register_over_tcp(client: &mut Client) -> String {
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 8.0 })
        .unwrap();
    let schema = Schema::binary(3).unwrap();
    let workload = Workload::all_k_way(&schema, 1).unwrap();
    let plan_id = client
        .register_compile(
            "t",
            dp_core::api::WorkloadSpec::Marginals {
                workload,
                strategy: StrategyKind::Fourier,
                cluster: Default::default(),
            },
            dp_core::Budgeting::Optimal,
            HALF,
            dp_mech::Neighboring::AddRemove,
        )
        .unwrap();
    client.bind("t", &plan_id, "toy").unwrap()
}

/// Kills the server's response send for one release over real TCP; the
/// client's retry machinery resends under the same id and the ledger
/// shows exactly one charge. (Sends alternate client-request /
/// server-response on this sequential protocol, so hit 1 after arming is
/// the server's response.)
#[test]
fn an_injected_send_failure_is_absorbed_by_the_retry_machinery() {
    let _guard = serial();
    let (handle, addr) = start_server(Accountant::in_memory());
    let mut client = Client::connect(&addr).unwrap();
    let session = register_over_tcp(&mut client);

    failpoint::configure("net.send", Trigger::nth(1), FailAction::Error);
    let released = client.release("t", &session, &[5, 6]).unwrap();
    assert_eq!(released.len(), 2);
    assert!(client.stats().retries >= 1);
    failpoint::clear_all();

    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, 1, "the retried release debited once");
    assert_eq!(status.spent_epsilon, 1.0);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A seeded chaos storm: every third-ish socket send fails (client and
/// server alike), deterministically. Every logical release must still
/// land exactly once — same schedule, same outcome, every run.
#[test]
fn a_seeded_send_storm_never_double_debits() {
    let _guard = serial();
    let (handle, addr) = start_server(Accountant::in_memory());
    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 10,
            backoff_base: std::time::Duration::from_millis(1),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let session = register_over_tcp(&mut client);

    failpoint::configure(
        "net.send",
        Trigger::Seeded {
            seed: 42,
            period: 3,
        },
        FailAction::Error,
    );
    const RELEASES: u64 = 6;
    for i in 0..RELEASES {
        let released = client.release("t", &session, &[i]).unwrap();
        assert_eq!(released.len(), 1);
    }
    let fired = failpoint::fired_count("net.send");
    failpoint::clear_all();

    let status = client.budget_status("t").unwrap();
    assert_eq!(
        status.charges as u64, RELEASES,
        "one charge per logical release, {fired} injected faults notwithstanding"
    );
    assert!((status.spent_epsilon - 0.5 * RELEASES as f64).abs() < 1e-12);
    assert!(fired >= 1, "the storm must actually have injected faults");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A *pipelined* storm under seeded send faults: the client fires a whole
/// window of keyed releases down one connection while responses die
/// pseudo-randomly on both sides. Lost responses are re-driven
/// individually under their original ids, so every logical release lands
/// exactly once — and replaying the same window afterwards returns the
/// same bytes without a single new charge.
#[test]
fn a_pipelined_storm_with_send_faults_lands_every_release_once() {
    let _guard = serial();
    const WINDOW: usize = 12;
    let (handle, addr) = start_server(Accountant::in_memory());
    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 10,
            backoff_base: std::time::Duration::from_millis(1),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let session = register_over_tcp(&mut client);
    let requests: Vec<KeyedRelease> = (0..WINDOW)
        .map(|i| KeyedRelease {
            request_id: format!("pipe-{i}"),
            seeds: vec![i as u64],
        })
        .collect();

    failpoint::configure(
        "net.send",
        Trigger::Seeded {
            seed: 1337,
            period: 4,
        },
        FailAction::Error,
    );
    let released = client.release_pipelined("t", &session, &requests).unwrap();
    let fired = failpoint::fired_count("net.send");
    failpoint::clear_all();
    assert!(fired >= 1, "the storm must actually have injected faults");
    assert_eq!(released.len(), WINDOW);
    let rendered: Vec<String> = released
        .iter()
        .map(|r| {
            assert_eq!(r.len(), 1);
            render_line(&r[0])
        })
        .collect();

    let status = client.budget_status("t").unwrap();
    assert_eq!(
        status.charges, WINDOW,
        "one charge per keyed release, {fired} injected faults notwithstanding"
    );

    // The same window again, faults cleared: pure replay, byte-identical,
    // zero new charges.
    let replayed = client.release_pipelined("t", &session, &requests).unwrap();
    let replayed: Vec<String> = replayed.iter().map(|r| render_line(&r[0])).collect();
    assert_eq!(replayed, rendered);
    assert_eq!(client.budget_status("t").unwrap().charges, WINDOW);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A handler that panics on a pipelined TCP connection — here right after
/// its keyed release was debited — is answered in-band with the typed
/// `internal` error. The connection keeps its worker and its in-flight
/// slot: a retry under the same id on the same connection replays the
/// release (the in-process bytes for those seeds, one charge), and an
/// authorized `shutdown` drains and stops the server without re-raising
/// the panic.
#[test]
fn a_panicking_handler_is_answered_in_band_and_keeps_the_connection() {
    let _guard = serial();
    let (handle, addr) = start_server(Accountant::in_memory());
    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::with_timeout(std::time::Duration::from_secs(5))
        },
    )
    .unwrap();
    let session = register_over_tcp(&mut client);
    let seeds = [3u64, 4];

    failpoint::configure("release.post_debit", Trigger::nth(0), FailAction::Panic);
    let started = std::time::Instant::now();
    let err = client
        .release_with_id("t", &session, &seeds, "boom")
        .unwrap_err();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "answered in-band, not by the client's read timeout"
    );
    assert_eq!(err.code(), "internal", "got {err:?}");
    assert_eq!(failpoint::fired_count("release.post_debit"), 1);
    failpoint::clear_all();

    let released = client
        .release_with_id("t", &session, &seeds, "boom")
        .unwrap();
    let plan = Arc::new(
        PlanBuilder::marginals(
            Workload::all_k_way(&Schema::binary(3).unwrap(), 1).unwrap(),
            StrategyKind::Fourier,
        )
        .privacy(HALF)
        .compile()
        .unwrap(),
    );
    let local = Session::bind(plan, &toy_table()).unwrap();
    assert_eq!(released.len(), seeds.len());
    for (wire, &seed) in released.iter().zip(&seeds) {
        let expected = render_line(&session_release_to_value(&local.release(seed).unwrap()));
        assert_eq!(render_line(wire), expected, "seed {seed}");
    }
    let status = client.budget_status("t").unwrap();
    assert_eq!(status.charges, 1, "the retry replayed the debited release");

    client.shutdown().unwrap();
    assert!(
        handle.join().is_ok(),
        "the server thread must not re-raise the panic"
    );
}

/// An overload storm over TCP: with a per-tenant in-flight cap of 1, one
/// keyed release is parked after its debit, so a second connection's
/// keyed releases are certain to be shed. The client retries each shed
/// under its original id, every call succeeds, and the ledger holds
/// exactly one charge per logical release — sheds charge nothing.
#[test]
fn an_overload_storm_sheds_and_retries_into_one_charge_per_release() {
    let _guard = serial();
    const RELEASES: usize = 5;
    let (handle, addr) = serve(DpService::new(Accountant::in_memory()).with_tenant_inflight_cap(1));
    let mut holder = Client::connect(&addr).unwrap();
    let session = register_over_tcp(&mut holder);

    failpoint::configure(
        "release.post_debit",
        Trigger::nth(0),
        FailAction::DelayMs(400),
    );
    let held = {
        let session = session.clone();
        std::thread::spawn(move || {
            let released = holder.release_with_id("t", &session, &[99], "held");
            (holder, released)
        })
    };
    // Wait until the held release is parked inside its in-flight slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while failpoint::fired_count("release.post_debit") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "held release never parked"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 50,
            backoff_base: std::time::Duration::from_millis(20),
            backoff_cap: std::time::Duration::from_millis(100),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    for i in 0..RELEASES {
        let released = client
            .release_with_id("t", &session, &[i as u64], &format!("storm-{i}"))
            .unwrap();
        assert_eq!(released.len(), 1);
    }
    let (mut holder, held) = held.join().unwrap();
    assert_eq!(held.unwrap().len(), 1);
    failpoint::clear_all();

    assert!(client.stats().sheds >= 1, "the cap must actually have shed");
    let status = holder.budget_status("t").unwrap();
    assert_eq!(
        status.charges,
        RELEASES + 1,
        "one charge per logical release, {} sheds notwithstanding",
        client.stats().sheds
    );

    drop(client);
    holder.shutdown().unwrap();
    handle.join().unwrap();
}
