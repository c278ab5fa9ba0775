//! End-to-end tests over real TCP: served releases are byte-identical to
//! the in-process session path, exhaustion arrives typed over the wire,
//! and concurrent tenants hammering the threaded front-end can never
//! over-spend their budgets.

use std::sync::Arc;
use std::thread::JoinHandle;

use dp_core::api::{Session, WorkloadSpec};
use dp_core::{ContingencyTable, PlanBuilder, Schema, StrategyKind, Workload};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_service::protocol::{parse_line, render_line, response_to_result, session_release_to_value};
use dp_service::{Accountant, Auth, Client, DpService, Server, ServiceError, TcpTransport};

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

fn start_server() -> (JoinHandle<()>, String) {
    start_server_with_auth(Auth::trusted())
}

fn start_server_with_auth(auth: Auth) -> (JoinHandle<()>, String) {
    let service = DpService::with_auth(Accountant::in_memory(), auth);
    service.data().insert_table("toy", toy_table());
    let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
    let server = Server::new(service, transport);
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (handle, addr)
}

#[test]
fn served_releases_are_byte_identical_to_in_process_sessions() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
        .unwrap();
    let privacy = PrivacyLevel::Pure { epsilon: 0.25 };
    let plan_id = client
        .register_compile(
            "t",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            privacy,
            Neighboring::AddRemove,
        )
        .unwrap();
    let session = client.bind("t", &plan_id, "toy").unwrap();
    let seeds = [3u64, 12345, (1 << 60) + 17];
    let served = client.release("t", &session, &seeds).unwrap();
    assert_eq!(served.len(), seeds.len());

    // The same plan compiled locally, bound to the same table.
    let plan = Arc::new(
        PlanBuilder::new(toy_spec())
            .privacy(privacy)
            .compile()
            .unwrap(),
    );
    let local = Session::bind(plan, &toy_table()).unwrap();
    for (wire, &seed) in served.iter().zip(&seeds) {
        let expected = render_line(&session_release_to_value(&local.release(seed).unwrap()));
        assert_eq!(
            render_line(wire),
            expected,
            "seed {seed} must serve byte-identically over TCP"
        );
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn exhaustion_arrives_typed_over_the_wire_and_is_permanent() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
        .unwrap();
    let plan_id = client
        .register_compile(
            "t",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            PrivacyLevel::Pure { epsilon: 0.4 },
            Neighboring::AddRemove,
        )
        .unwrap();
    let session = client.bind("t", &plan_id, "toy").unwrap();
    client.release("t", &session, &[1, 2]).unwrap(); // spends 0.8

    for attempt in 0..2 {
        let err = client.release("t", &session, &[3]).unwrap_err();
        let ServiceError::BudgetExhausted {
            requested_epsilon,
            remaining_epsilon,
            ..
        } = err
        else {
            panic!("attempt {attempt}: expected typed exhaustion, got {err:?}");
        };
        assert_eq!(requested_epsilon, 0.4);
        assert!((remaining_epsilon - 0.2).abs() < 1e-12);
    }
    // A rejected batch burned nothing; the status must still say 0.8.
    let status = client.budget_status("t").unwrap();
    assert!((status.spent_epsilon - 0.8).abs() < 1e-12);
    assert_eq!(status.charges, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn operator_policy_gates_the_whole_wire_lifecycle() {
    let (handle, addr) = start_server_with_auth(Auth::operator("admin-secret"));

    // An anonymous peer can ping but cannot mint itself a tenant, drain
    // another tenant's budget, or stop the service.
    let mut anon = Client::connect(&addr).unwrap();
    anon.ping().unwrap();
    let budget = PrivacyLevel::Pure { epsilon: 2.0 };
    assert!(matches!(
        anon.open_tenant("t", budget),
        Err(ServiceError::Remote { ref code, .. }) if code == "unauthorized"
    ));
    assert!(matches!(
        anon.shutdown(),
        Err(ServiceError::Remote { ref code, .. }) if code == "unauthorized"
    ));

    // The operator opens the tenant and installs its token.
    let mut admin = Client::connect(&addr).unwrap();
    admin.set_credential(Some("admin-secret".into()));
    admin
        .open_tenant_with_token("t", budget, "t-token")
        .unwrap();

    // A peer presenting the wrong token is still locked out...
    anon.set_credential(Some("wrong".into()));
    assert!(matches!(
        anon.budget_status("t"),
        Err(ServiceError::Remote { ref code, .. }) if code == "unauthorized"
    ));

    // ...while the tenant's own token unlocks the full release flow.
    let mut tenant = Client::connect(&addr).unwrap();
    tenant.set_credential(Some("t-token".into()));
    let plan_id = tenant
        .register_compile(
            "t",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            PrivacyLevel::Pure { epsilon: 0.25 },
            Neighboring::AddRemove,
        )
        .unwrap();
    let session = tenant.bind("t", &plan_id, "toy").unwrap();
    assert_eq!(tenant.release("t", &session, &[7]).unwrap().len(), 1);
    let status = tenant.budget_status("t").unwrap();
    assert!((status.spent_epsilon - 0.25).abs() < 1e-12);

    // The tenant token does not reach admin surface: no new tenants, no
    // shutdown.
    assert!(matches!(
        tenant.open_tenant_with_token("t2", budget, "t2-token"),
        Err(ServiceError::Remote { ref code, .. }) if code == "unauthorized"
    ));
    assert!(matches!(
        tenant.shutdown(),
        Err(ServiceError::Remote { ref code, .. }) if code == "unauthorized"
    ));

    // Refused shutdowns left the server running; the admin's succeeds.
    admin.ping().unwrap();
    // Hang up the other connections first: the server drains in-flight
    // handlers before run() returns, so they must not sit in receive().
    drop(anon);
    drop(tenant);
    admin.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn continual_release_loop_streams_deltas_and_charges_once_per_key() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("pub", PrivacyLevel::Pure { epsilon: 2.0 })
        .unwrap();
    let plan_id = client
        .register_compile(
            "pub",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            PrivacyLevel::Pure { epsilon: 0.25 },
            Neighboring::AddRemove,
        )
        .unwrap();

    // Seed the stream from the loaded table; reopening is a no-op.
    let stream = client.stream_open("pub", &plan_id, Some("toy")).unwrap();
    assert_eq!(stream, format!("pub/{plan_id}/toy"));
    assert_eq!(
        client.stream_open("pub", &plan_id, Some("toy")).unwrap(),
        stream
    );

    // Release, ingest a batch of deltas, release again under a new key:
    // the epoch's bytes change, replays of an old key don't.
    let epoch0 = client
        .release_current("pub", &stream, &[5], Some("epoch-0"))
        .unwrap();
    for cell in [9u64, 9, 2] {
        client.ingest("pub", &stream, cell, 1.0).unwrap();
    }
    client.ingest("pub", &stream, 15, -1.0).unwrap();
    let epoch1 = client
        .release_current("pub", &stream, &[5], Some("epoch-1"))
        .unwrap();
    assert_ne!(
        render_line(&epoch0[0]),
        render_line(&epoch1[0]),
        "deltas must be visible to the next epoch's release"
    );
    let replay = client
        .release_current("pub", &stream, &[5], Some("epoch-0"))
        .unwrap();
    assert_eq!(
        render_line(&epoch0[0]),
        render_line(&replay[0]),
        "a re-driven epoch key must replay, not re-release"
    );

    // Exactly one charge per key; ingests were free.
    let status = client.budget_status("pub").unwrap();
    assert!((status.spent_epsilon - 0.5).abs() < 1e-12);
    assert_eq!(status.charges, 2);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A wire `ingest` whose delta parses to ±∞ (`1e999`) is refused with a
/// typed, non-retryable `core` error and leaves the stream untouched: a
/// later release is byte-identical to one drawn before the bad ingest.
/// The lines go over a plain socket because `Client` renders a
/// non-finite number as `null`.
#[test]
fn non_finite_ingest_deltas_are_refused_and_leave_the_stream_intact() {
    use std::io::{BufRead, BufReader, Write};

    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    client
        .open_tenant("pub", PrivacyLevel::Pure { epsilon: 2.0 })
        .unwrap();
    let plan_id = client
        .register_compile(
            "pub",
            toy_spec(),
            dp_core::Budgeting::Optimal,
            PrivacyLevel::Pure { epsilon: 0.25 },
            Neighboring::AddRemove,
        )
        .unwrap();
    let stream = client.stream_open("pub", &plan_id, Some("toy")).unwrap();
    let before = client
        .release_current("pub", &stream, &[5], Some("before"))
        .unwrap();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    for delta in ["1e999", "-1e999", "1e999"] {
        writeln!(
            raw,
            r#"{{"op": "ingest", "tenant": "pub", "stream": "{stream}", "cell": 9, "delta": {delta}}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let err = response_to_result(parse_line(&line).unwrap()).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Remote { code, .. } if code == "core"),
            "delta {delta}: got {err:?}"
        );
        assert!(!err.is_retryable());
    }
    drop((raw, reader));

    let after = client
        .release_current("pub", &stream, &[5], Some("after"))
        .unwrap();
    assert_eq!(render_line(&before[0]), render_line(&after[0]));
    assert_eq!(client.budget_status("pub").unwrap().charges, 2);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_tenants_never_overspend_through_the_threaded_front_end() {
    const TENANTS: usize = 3;
    const THREADS_PER_TENANT: usize = 4;
    const ATTEMPTS_PER_THREAD: usize = 8;
    const BUDGET: f64 = 1.0;
    const PER_RELEASE: f64 = 0.1;
    // 4 threads × 8 attempts = 32 requested releases per tenant, but the
    // budget only covers 10.
    const MAX_GRANTS: usize = (BUDGET / PER_RELEASE) as usize;

    let (handle, addr) = start_server();
    let mut setup = Client::connect(&addr).unwrap();
    let mut sessions = Vec::new();
    for t in 0..TENANTS {
        let tenant = format!("tenant{t}");
        setup
            .open_tenant(&tenant, PrivacyLevel::Pure { epsilon: BUDGET })
            .unwrap();
        let plan_id = setup
            .register_compile(
                &tenant,
                toy_spec(),
                dp_core::Budgeting::Optimal,
                PrivacyLevel::Pure {
                    epsilon: PER_RELEASE,
                },
                Neighboring::AddRemove,
            )
            .unwrap();
        sessions.push(setup.bind(&tenant, &plan_id, "toy").unwrap());
    }

    let grants: Vec<usize> = std::thread::scope(|scope| {
        let mut per_tenant_threads = Vec::new();
        for (t, session) in sessions.iter().enumerate() {
            let tenant = format!("tenant{t}");
            let session = session.clone();
            let addr = addr.clone();
            let threads: Vec<_> = (0..THREADS_PER_TENANT)
                .map(|i| {
                    let tenant = tenant.clone();
                    let session = session.clone();
                    let addr = addr.clone();
                    scope.spawn(move || {
                        // Every thread holds its own connection, so the
                        // server really serves these in parallel handlers.
                        let mut client = Client::connect(&addr).unwrap();
                        let mut granted = 0usize;
                        for n in 0..ATTEMPTS_PER_THREAD {
                            let seed = (i * ATTEMPTS_PER_THREAD + n) as u64;
                            match client.release(&tenant, &session, &[seed]) {
                                Ok(r) => {
                                    assert_eq!(r.len(), 1);
                                    granted += 1;
                                }
                                Err(ServiceError::BudgetExhausted { .. }) => {}
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        granted
                    })
                })
                .collect();
            per_tenant_threads.push(threads);
        }
        per_tenant_threads
            .into_iter()
            .map(|threads| threads.into_iter().map(|t| t.join().unwrap()).sum())
            .collect()
    });

    for (t, &granted) in grants.iter().enumerate() {
        let tenant = format!("tenant{t}");
        assert!(
            granted <= MAX_GRANTS,
            "{tenant} got {granted} releases from a budget of {MAX_GRANTS}"
        );
        let status = setup.budget_status(&tenant).unwrap();
        assert!(
            status.spent_epsilon <= BUDGET + 1e-9,
            "{tenant} spent ε = {} > {BUDGET}",
            status.spent_epsilon
        );
        assert_eq!(status.charges, granted);
        // Exhaustion is permanent: whatever remains cannot cover another
        // release once the grant count hit the cap.
        if granted == MAX_GRANTS {
            assert!(matches!(
                setup.release(&tenant, &sessions[t], &[999]),
                Err(ServiceError::BudgetExhausted { .. })
            ));
        }
    }

    setup.shutdown().unwrap();
    handle.join().unwrap();
}
