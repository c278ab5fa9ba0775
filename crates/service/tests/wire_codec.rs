//! Byte stability and robustness of the JSON-lines codec.
//!
//! - Releases of every strategy and mechanism render exactly as the
//!   reference encoder (the tree-copying encoder the codec replaced) did.
//! - Release lines (written directly by `write_release` and rendered from
//!   its decoded view `session_release_to_value`), whole release reply
//!   lines, plan documents and request lines match pinned FNV-1a digests,
//!   so the documents' field layout and numbers cannot drift either. A
//!   plan document missing an input is refused; a `compile` object may
//!   omit the budgeting and the neighbouring. Cached and
//!   recomputed replays send the fresh bytes, and every op's `respond`
//!   line equals the rendered `handle` view.
//! - Plan ids of default `C`, `F`, `I` and `H` plans, and of a `C` plan
//!   document the CLI wrote, match pinned values. A `"cluster"` search
//!   object in a compile line or a shipped document changes neither the
//!   plan id nor the release bytes.
//! - A ledger line written by that encoder, CRC included, still loads: the
//!   WAL checksum is taken over `render_line`.
//! - Seeded byte mutations of valid request and response lines never
//!   panic, are refused only with `ServiceError::Protocol`, and every
//!   accepted line survives `parse_line(render_line(v)) == v`.

use std::sync::Arc;

use dp_core::api::{Session, WorkloadSpec};
use dp_core::range::{RangeStrategy, RangeWorkload};
use dp_core::{Budgeting, ContingencyTable, Plan, PlanBuilder, Schema, StrategyKind, Workload};
use dp_mech::{Neighboring, PrivacyLevel};
use dp_service::protocol::{
    error_response, parse_line, render_line, response_to_result, session_release_to_value,
    write_release, Request,
};
use dp_service::{Accountant, DpService, ServiceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize as _, Serialize as _, Value};

/// The compact encoder as it was before rendering went by reference: the
/// byte-identity oracle for `render_line`.
mod reference {
    use serde::Value;

    pub fn render_line(value: &Value) -> String {
        let mut out = String::new();
        render(value, &mut out);
        out
    }

    fn render(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => render_number(*n, out),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    render(v, out);
                }
                out.push('}');
            }
        }
    }

    fn render_number(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n == n.trunc() && n.abs() < 1e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

const SEEDS: [u64; 3] = [1, 987_654_321, (1 << 60) + 17];

fn mechanisms() -> [PrivacyLevel; 2] {
    [
        PrivacyLevel::Pure { epsilon: 0.5 },
        PrivacyLevel::Approx {
            epsilon: 0.5,
            delta: 1e-6,
        },
    ]
}

fn toy_table() -> ContingencyTable {
    ContingencyTable::from_indices(4, &[0, 1, 2, 3, 9, 15, 15, 6, 6, 11])
}

/// One compiled plan per (strategy, budgeting) for marginals and per
/// strategy for ranges, each under Laplace and Gaussian noise, bound to
/// toy data.
fn sessions() -> Vec<(String, Session)> {
    let schema = Schema::binary(4).unwrap();
    let workload = Workload::all_k_way(&schema, 2).unwrap();
    let hist: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64).collect();
    let mut out = Vec::new();
    for privacy in mechanisms() {
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Cluster,
            StrategyKind::Fourier,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let plan = PlanBuilder::marginals(workload.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .compile()
                    .unwrap();
                let session = Session::bind(Arc::new(plan), &toy_table()).unwrap();
                out.push((format!("{strategy:?}/{budgeting:?}/{privacy:?}"), session));
            }
        }
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
            RangeStrategy::Sketch {
                repetitions: 3,
                buckets: 8,
                seed: 7,
            },
        ] {
            let plan = PlanBuilder::ranges(RangeWorkload::all_prefixes(16).unwrap(), strategy)
                .privacy(privacy)
                .compile()
                .unwrap();
            let session = Session::bind_histogram(Arc::new(plan), &hist).unwrap();
            out.push((format!("{strategy:?}/{privacy:?}"), session));
        }
    }
    out
}

#[test]
fn release_lines_match_the_reference_encoder_for_every_strategy() {
    let sessions = sessions();
    assert_eq!(sessions.len(), 2 * (4 * 2 + 4));
    for (name, session) in &sessions {
        for &seed in &SEEDS {
            let value = session_release_to_value(&session.release(seed).unwrap());
            let line = render_line(&value);
            assert_eq!(line, reference::render_line(&value), "{name} seed {seed}");
            assert_eq!(parse_line(&line).unwrap(), value, "{name} seed {seed}");
        }
    }
}

/// The release document as `write_release` writes it.
fn written(release: &dp_core::SessionRelease) -> String {
    let mut line = String::new();
    write_release(release, &mut line);
    line
}

/// 64-bit FNV-1a: a short, dependency-free digest for pinning wire bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of the rendered release line of every `sessions()` entry, in
/// order, at each of `SEEDS`. They pin the release document's field
/// layout and numbers, not just the renderer.
const PINNED_RELEASES: [[u64; 3]; 24] = [
    [0xdb765f40d01ef028, 0x69f9f427844e75fd, 0xa46f9e8d3777cb07],
    [0x73df3f2dc26963a4, 0xad6f11f8a6c48539, 0x53380ea5574ba363],
    [0x14783d7f95bbb818, 0x48c99387b344d27c, 0x4750931052a2a7d6],
    [0x66cd3652497189e6, 0x7cd8da0620f8999e, 0xeab506fec3ec1290],
    [0x50ddb715d2517b81, 0xf92568664c6d6f67, 0x38f670f4c12ee3df],
    [0x27c79bd393549329, 0x6bc886c9f22129ff, 0x8ffa5bf35b83b6c7],
    [0xb44735a4ee187e49, 0x16d85739581f68e4, 0x2bb86bb4297a6c93],
    [0x38525111dd6bc6e6, 0xce3fc5d79b171103, 0xa9794599d91abeee],
    [0xcd62dd088fb718a6, 0xfa5f75df3fce0d30, 0xa3372dc902d5eea1],
    [0x87de30d77991acd2, 0xb41eb27a4e486c27, 0xd4b92cc7731e893c],
    [0xf9262da426eabcce, 0x6303b685ba1e6780, 0x109ca6ddc0c59a3f],
    [0xadb1eb0074f10d22, 0xa82cae6ac6d9b34c, 0x9e56f2f51b9a619e],
    [0x4df69c821f466e0e, 0x583a894b463173c5, 0x3c84d68afbee85fc],
    [0xd9d0cbb7e0433dd7, 0x390c0e4b07404622, 0xfad501324465f805],
    [0x6b619f3b364cf05d, 0x9254829ffc086632, 0x43c3733797258fb2],
    [0x17e57d16fa11d4a8, 0x932bb9229f3bb773, 0x601e21420b3ef07b],
    [0xaa9a3636dbd15d2a, 0x9036f7882546672d, 0x695aa47fb2f8acfe],
    [0x6ec59508f9942d5b, 0x4fa926038fc2bf2e, 0x388bfecd25a152b1],
    [0x4aed7e0526c7ef7e, 0x09f033cd59bfde4d, 0x5627ae677cb82de7],
    [0x714013d572a6f4e1, 0x19fe759098b0658a, 0x1b9ee3965efdf5fa],
    [0x568ce537aa88aa51, 0x7401b63b0e3dd046, 0x90efa3d4482aee42],
    [0x4e7f908e350dfd7e, 0x9f0b07569fffa83c, 0x34d46b9b0b75bc90],
    [0x0dead7fa786ad081, 0xb8b32ff088ad748e, 0xac4c85d18d8cd82d],
    [0x26388382ae7ea963, 0xc5879ece71dc8c09, 0x91657795f19679a8],
];

#[test]
fn release_lines_match_their_pinned_digests() {
    let sessions = sessions();
    let digests = |line: &dyn Fn(&dp_core::SessionRelease) -> String| -> Vec<[u64; 3]> {
        sessions
            .iter()
            .map(|(_, session)| {
                SEEDS.map(|seed| fnv1a64(line(&session.release(seed).unwrap()).as_bytes()))
            })
            .collect()
    };
    assert_eq!(digests(&written), PINNED_RELEASES, "written directly");
    assert_eq!(
        digests(&|r| render_line(&session_release_to_value(r))),
        PINNED_RELEASES,
        "rendered from the decoded view"
    );
}

/// One marginal and one range plan under each (privacy, neighbouring)
/// pair, so every budgeting, privacy and neighbouring encoding is pinned.
fn pinned_plans() -> Vec<Plan> {
    let workload = Workload::all_k_way(&Schema::binary(4).unwrap(), 2).unwrap();
    let ranges = RangeWorkload::all_prefixes(16).unwrap();
    let mut plans = Vec::new();
    for privacy in mechanisms() {
        for neighboring in [Neighboring::AddRemove, Neighboring::Replace] {
            for builder in [
                PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
                    .budgeting(Budgeting::Optimal),
                PlanBuilder::ranges(ranges.clone(), RangeStrategy::Wavelet)
                    .budgeting(Budgeting::Uniform),
            ] {
                plans.push(
                    builder
                        .privacy(privacy)
                        .neighboring(neighboring)
                        .compile()
                        .unwrap(),
                );
            }
        }
    }
    plans
}

/// Digests of `render_line(plan.serialize_value())` for `pinned_plans()`.
const PINNED_PLANS: [u64; 8] = [
    0x46d5990a84c40cc6,
    0x93b519ae1f1cf420,
    0xe0aae270a35cf031,
    0x62781f4e518ff747,
    0xc4782caf2fe67b0f,
    0x2169ae602d3bd6ca,
    0x4055410bcb564ed4,
    0x2430617c3e1260f2,
];

#[test]
fn plan_documents_match_their_pinned_digests() {
    let digests: Vec<u64> = pinned_plans()
        .iter()
        .map(|plan| fnv1a64(render_line(&plan.serialize_value()).as_bytes()))
        .collect();
    assert_eq!(digests, PINNED_PLANS);
}

/// Digests of every `request_lines()` line, in order: they pin the bytes
/// of each request encoder, the `compile` object's plan inputs included.
const PINNED_REQUESTS: [u64; 13] = [
    0x1fab7b25dc55717d,
    0x32679a8ac5593ce9,
    0x582fce70b0180c0b,
    0x65862a815d58878e,
    0x337cda2eca441e74,
    0xb583ed6c781abaf9,
    0x98c1c522f66e129b,
    0x15f223c962f30dcb,
    0xcd2b90f9d1e7b9b4,
    0x520c40d7261f917a,
    0x8d42044b806861f8,
    0x0c15ca6c285ea232,
    0xdc1f087f85b10094,
];

#[test]
fn request_lines_match_their_pinned_digests() {
    let digests: Vec<u64> = request_lines()
        .iter()
        .map(|line| fnv1a64(line.as_bytes()))
        .collect();
    assert_eq!(digests, PINNED_REQUESTS);
}

/// A shipped plan document names every input: one that lacks
/// `budgeting`, `neighboring` or `schema_fingerprint` is refused. Only the
/// `compile` object may omit the budgeting (optimal) and the neighbouring
/// (add/remove), and then registers the plan that names them.
#[test]
fn plan_documents_need_every_input_and_compile_objects_default_two() {
    let privacy = PrivacyLevel::Pure { epsilon: 0.25 };
    let plan = PlanBuilder::new(toy_spec())
        .privacy(privacy)
        .compile()
        .unwrap();
    let Value::Object(fields) = plan.serialize_value() else {
        panic!("plan serializes as an object");
    };
    for missing in ["budgeting", "neighboring", "schema_fingerprint"] {
        let doc: Vec<(String, Value)> = fields
            .iter()
            .filter(|(k, _)| k != missing)
            .cloned()
            .collect();
        let doc = Value::Object(doc);
        assert!(Plan::deserialize_value(&doc).is_err(), "without {missing}");
        let line = render_line(&Value::Object(vec![
            ("op".into(), Value::String("register_plan".into())),
            ("tenant".into(), Value::String("t".into())),
            ("plan".into(), doc),
        ]));
        assert!(
            matches!(
                Request::from_value(&parse_line(&line).unwrap()),
                Err(ServiceError::Protocol(_))
            ),
            "without {missing}"
        );
    }

    let service = DpService::new(Accountant::in_memory());
    service
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
        .unwrap();
    let spec = render_line(&toy_spec().serialize_value());
    let register = |inputs: &str| {
        let line = format!(
            r#"{{"op":"register_plan","tenant":"t","compile":{{"spec":{spec},{inputs}}}}}"#
        );
        let request = Request::from_value(&parse_line(&line).unwrap()).unwrap();
        let reply = parse_line(&service.respond(request, None).unwrap()).unwrap();
        reply
            .get_field("plan_id")
            .and_then(Value::as_str)
            .unwrap()
            .to_owned()
    };
    let bare = register(r#""privacy":{"epsilon":0.25}"#);
    let named =
        register(r#""budgeting":"optimal","privacy":{"epsilon":0.25},"neighboring":"add_remove""#);
    assert_eq!(bare, named);
    assert_eq!(bare, dp_service::registry::plan_id(&plan));
    let other =
        register(r#""budgeting":"uniform","privacy":{"epsilon":0.25},"neighboring":"replace""#);
    assert_ne!(bare, other);
}

/// Two ledger records exactly as the reference encoder wrote them: tricky
/// floats, escapes, non-ASCII text and a seed above 2^53. Their CRCs are
/// taken over the rendered bytes, so they load only if today's encoder
/// renders them byte for byte the same.
const PINNED_LEDGER: &str = concat!(
    r#"{"op":"open","tenant":"tenant \"é\" 東","budget":{"epsilon":3,"delta":0.00001},"crc":"c87588b0ac2096dd"}"#,
    "\n",
    r#"{"op":"spend","tenant":"tenant \"é\" 東","charge":{"epsilon":0.30000000000000004,"delta":0.0000001},"request_id":"req\\1\t🚀","session":"p/toy","seeds":[3,"1152921504606846981"],"crc":"f36a928a28b7d073"}"#,
    "\n",
);

#[test]
fn a_pinned_ledger_line_still_loads() {
    for line in PINNED_LEDGER.lines() {
        assert_eq!(render_line(&parse_line(line).unwrap()), line);
    }
    let dir = std::env::temp_dir().join(format!("dp-service-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    std::fs::write(&path, PINNED_LEDGER).unwrap();
    let acct = Accountant::with_wal(&path).unwrap();
    let status = acct.status("tenant \"é\" 東").unwrap();
    assert_eq!(status.spent_epsilon, 0.1 + 0.2);
    assert_eq!(status.charges, 1);
    assert_eq!(acct.journaled_releases(), 1);
    drop(acct);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Seeded parser fuzz
// ---------------------------------------------------------------------------

fn toy_spec() -> WorkloadSpec {
    WorkloadSpec::Marginals {
        workload: Workload::all_k_way(&Schema::binary(4).unwrap(), 1).unwrap(),
        strategy: StrategyKind::Fourier,
        cluster: Default::default(),
    }
}

/// Valid request lines of the shapes the `service_tcp` suite sends, plus a
/// full plan document and hand-written lines with string escapes.
fn request_lines() -> Vec<String> {
    let privacy = PrivacyLevel::Pure { epsilon: 0.25 };
    let plan: Plan = PlanBuilder::new(toy_spec())
        .privacy(privacy)
        .compile()
        .unwrap();
    let requests = [
        Request::OpenTenant {
            tenant: "t".into(),
            budget: PrivacyLevel::Approx {
                epsilon: 2.0,
                delta: 1e-6,
            },
            tenant_token: Some("t-token".into()),
        },
        Request::RegisterCompile {
            tenant: "t".into(),
            plan: PlanBuilder::new(toy_spec()).privacy(privacy),
        },
        Request::RegisterPlan {
            tenant: "t".into(),
            plan: Box::new(plan),
        },
        Request::Bind {
            tenant: "t".into(),
            plan_id: "abc".into(),
            table: "toy".into(),
        },
        Request::Release {
            tenant: "t".into(),
            session: "abc/toy".into(),
            seeds: vec![3, 12345, (1 << 60) + 17],
            request_id: Some("r-0001".into()),
        },
        Request::StreamOpen {
            tenant: "pub".into(),
            plan_id: "abc".into(),
            table: Some("toy".into()),
        },
        Request::Ingest {
            tenant: "pub".into(),
            stream: "pub/abc/toy".into(),
            cell: 9,
            delta: -1.0,
        },
        Request::ReleaseCurrent {
            tenant: "pub".into(),
            stream: "pub/abc/toy".into(),
            seeds: vec![5],
            request_id: Some("epoch-0".into()),
        },
        Request::BudgetStatus { tenant: "t".into() },
        Request::Ping,
        Request::Shutdown,
    ];
    let mut lines: Vec<String> = requests
        .iter()
        .map(|r| render_line(&r.to_value()))
        .collect();
    lines.push(r#"{"op": "bind", "tenant": "té\"\\x", "plan_id": "a\/b\n", "table": "toy", "auth": "s3cret"}"#.into());
    lines.push(r#"{"op":"ingest","tenant":"pub","stream":"s","cell":4,"delta":1.5e300}"#.into());
    lines
}

/// Valid response lines as an in-process service renders them: successes
/// (including full release replies) and typed errors.
fn response_lines() -> Vec<String> {
    let service = DpService::new(Accountant::in_memory());
    service.data().insert_table("toy", toy_table());
    let mut lines = Vec::new();
    let mut handle = |request: Request| {
        let response = service.handle(request, None).unwrap();
        lines.push(render_line(&response));
        response
    };
    handle(Request::OpenTenant {
        tenant: "t".into(),
        budget: PrivacyLevel::Pure { epsilon: 2.0 },
        tenant_token: None,
    });
    let registered = handle(Request::RegisterCompile {
        tenant: "t".into(),
        plan: PlanBuilder::new(toy_spec()).privacy(PrivacyLevel::Pure { epsilon: 0.25 }),
    });
    let plan_id = registered.get_field("plan_id").unwrap().as_str().unwrap();
    let bound = handle(Request::Bind {
        tenant: "t".into(),
        plan_id: plan_id.into(),
        table: "toy".into(),
    });
    let session = bound.get_field("session").unwrap().as_str().unwrap();
    handle(Request::Release {
        tenant: "t".into(),
        session: session.into(),
        seeds: vec![3, (1 << 60) + 17],
        request_id: Some("r-0001".into()),
    });
    handle(Request::BudgetStatus { tenant: "t".into() });
    handle(Request::Ping);
    for error in [
        ServiceError::BudgetExhausted {
            requested_epsilon: 0.5,
            requested_delta: 0.0,
            remaining_epsilon: 0.125,
            remaining_delta: 0.0,
        },
        ServiceError::Overloaded {
            scope: "tenant".into(),
        },
        ServiceError::Protocol("bad \"line\"\n".into()),
    ] {
        lines.push(render_line(&error_response(&error)));
    }
    lines
}

/// Bytes that steer mutations into the parser's interesting branches:
/// structure, string escapes, number syntax, control and non-ASCII bytes.
const INTERESTING: &[u8] = b"[]{}\":,\\/nrtbfu0123456789-+.eE \t\r\n\x01\x1f\xc3\xa9\xff";

fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..=len);
        match rng.gen_range(0..6u32) {
            0 if at < len => bytes[at] = INTERESTING[rng.gen_range(0..INTERESTING.len())],
            1 => bytes.insert(at, INTERESTING[rng.gen_range(0..INTERESTING.len())]),
            2 if at < len => {
                let end = (at + rng.gen_range(1..=8usize)).min(len);
                bytes.drain(at..end);
            }
            3 => {
                let open = if rng.gen_bool(0.5) { b'[' } else { b'{' };
                let run = rng.gen_range(1..=300usize);
                bytes.splice(at..at, std::iter::repeat_n(open, run));
            }
            4 => bytes.truncate(at),
            _ if at < len => {
                let end = (at + rng.gen_range(1..=16usize)).min(len);
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn all_finite(value: &Value) -> bool {
    match value {
        Value::Number(n) => n.is_finite(),
        Value::Array(items) => items.iter().all(all_finite),
        Value::Object(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

#[test]
fn mutated_wire_lines_are_refused_with_protocol_errors_or_round_trip() {
    const CASES_PER_LINE: usize = 400;
    let requests = request_lines();
    let responses = response_lines();
    let mut rng = StdRng::seed_from_u64(0x00f0_2250);
    let (mut accepted, mut refused) = (0usize, 0usize);
    let (mut accepted_plain, mut accepted_escaped) = (0usize, 0usize);
    for (is_request, line) in requests
        .iter()
        .map(|l| (true, l))
        .chain(responses.iter().map(|l| (false, l)))
    {
        parse_line(line).unwrap_or_else(|e| panic!("seed line must parse: {e}\n{line}"));
        for _ in 0..CASES_PER_LINE {
            let mutated = mutate(&mut rng, line);
            let value = match parse_line(&mutated) {
                Ok(value) => value,
                Err(ServiceError::Protocol(_)) => {
                    refused += 1;
                    continue;
                }
                Err(other) => panic!("refusal must be a protocol error, got {other:?}"),
            };
            accepted += 1;
            if mutated.contains('\\') {
                accepted_escaped += 1;
            } else {
                accepted_plain += 1;
            }
            let rendered = render_line(&value);
            assert_eq!(rendered, reference::render_line(&value), "{mutated}");
            if all_finite(&value) {
                // NaN/±∞ render as `null` by design, so only finite trees
                // can round-trip to an equal value.
                assert_eq!(parse_line(&rendered).unwrap(), value, "{mutated}");
            }
            if is_request {
                match Request::from_value(&value) {
                    Ok(_) | Err(ServiceError::Protocol(_)) => {}
                    Err(other) => panic!("request refusal must be a protocol error: {other:?}"),
                }
            } else {
                let _ = response_to_result(value);
            }
        }
    }
    // The corpus reaches both outcomes and both string paths.
    assert!(
        accepted > 100 && refused > 100,
        "{accepted} accepted, {refused} refused"
    );
    assert!(
        accepted_plain > 10 && accepted_escaped > 10,
        "{accepted_plain} plain, {accepted_escaped} escaped"
    );
}

// ---------------------------------------------------------------------------
// Whole reply lines
// ---------------------------------------------------------------------------

/// A service with tenant `t`, a marginal plan bound to `toy`, a range plan
/// bound to a 16-cell histogram, and a stream over the marginal plan
/// seeded from `toy` with two ingests. Returns the service and the
/// marginal session, range session and stream ids.
fn reply_service() -> (DpService, [String; 3]) {
    let service = DpService::new(Accountant::in_memory());
    service.data().insert_table("toy", toy_table());
    let hist: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64).collect();
    service.data().insert_histogram("hist", hist);
    service
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 1e4 })
        .unwrap();
    let privacy = PrivacyLevel::Pure { epsilon: 0.25 };
    let workload = Workload::all_k_way(&Schema::binary(4).unwrap(), 2).unwrap();
    let marginal = service
        .register_compiled(
            "t",
            PlanBuilder::marginals(workload, StrategyKind::Fourier).privacy(privacy),
        )
        .unwrap();
    let ranges = RangeWorkload::all_prefixes(16).unwrap();
    let range = service
        .register_compiled(
            "t",
            PlanBuilder::ranges(ranges, RangeStrategy::Hierarchical).privacy(privacy),
        )
        .unwrap();
    let marginal_session = service.bind("t", &marginal, "toy").unwrap();
    let range_session = service.bind("t", &range, "hist").unwrap();
    let stream = service.stream_open("t", &marginal, Some("toy")).unwrap();
    service.stream_ingest("t", &stream, 3, 2.0).unwrap();
    service.stream_ingest("t", &stream, 9, -1.0).unwrap();
    (service, [marginal_session, range_session, stream])
}

/// The reply line the service sends for `request`.
fn reply(service: &DpService, request: Request) -> String {
    service.respond(request, None).unwrap().to_string()
}

fn release(session: &str, seeds: &[u64], request_id: Option<&str>) -> Request {
    Request::Release {
        tenant: "t".into(),
        session: session.into(),
        seeds: seeds.to_vec(),
        request_id: request_id.map(Into::into),
    }
}

/// Digests of whole `release` reply lines (keyed, unkeyed, empty unkeyed,
/// empty keyed) for the marginal and then the range session, and of one
/// keyed `release_current`: they pin the reply envelope around the
/// release documents.
const PINNED_REPLIES: [u64; 9] = [
    0x853e99fd061f6cba,
    0x82cb5fe007f450b8,
    0xc0d86ba10abc7249,
    0xdc062f19d4abea27,
    0xb7f866e098256280,
    0x25ce0a15d724d8b7,
    0xc0d86ba10abc7249,
    0xf492a5382757458a,
    0x230adaf8c8aceeda,
];

#[test]
fn release_reply_lines_match_their_pinned_digests() {
    let (service, [marginal, range, stream]) = reply_service();
    let mut digests = Vec::new();
    for (session, key) in [(&marginal, "k-m"), (&range, "k-r")] {
        for request in [
            release(session, &[3, (1 << 60) + 17], Some(key)),
            release(session, &[5], None),
            release(session, &[], None),
            release(session, &[], Some(key)),
        ] {
            digests.push(fnv1a64(reply(&service, request).as_bytes()));
        }
    }
    let current = Request::ReleaseCurrent {
        tenant: "t".into(),
        stream,
        seeds: vec![11, 12],
        request_id: Some("epoch-1".into()),
    };
    digests.push(fnv1a64(reply(&service, current).as_bytes()));
    assert_eq!(digests, PINNED_REPLIES);
}

#[test]
fn cached_and_recomputed_replays_send_the_fresh_bytes() {
    let (service, [marginal, range, _]) = reply_service();
    let keyed = [(&marginal, "m-1"), (&range, "r-1")];
    let fresh: Vec<String> = keyed
        .iter()
        .map(|(s, id)| reply(&service, release(s, &[7, 8], Some(id))))
        .collect();
    let charges = service.budget_status("t").unwrap().charges;
    for ((s, id), first) in keyed.iter().zip(&fresh) {
        assert_eq!(&reply(&service, release(s, &[7, 8], Some(id))), first);
    }
    // Push both out of the per-tenant replay cache (1024 entries).
    for i in 0..=1024u64 {
        let id = format!("evict-{i}");
        reply(&service, release(&marginal, &[i], Some(&id)));
    }
    let after_evictions = service.budget_status("t").unwrap().charges;
    assert_eq!(after_evictions, charges + 1025);
    for ((s, id), first) in keyed.iter().zip(&fresh) {
        assert_eq!(
            &reply(&service, release(s, &[7, 8], Some(id))),
            first,
            "a recomputed replay of {id} must send the fresh bytes"
        );
    }
    assert_eq!(service.budget_status("t").unwrap().charges, after_evictions);
}

/// A session's requests, successes and refusals, sent in order.
fn scripted_session(plan: Plan) -> Vec<Request> {
    let privacy = PrivacyLevel::Pure { epsilon: 0.25 };
    let plan_id = dp_service::registry::plan_id(&plan);
    let plan_id = plan_id.as_str();
    let session = format!("{plan_id}/toy");
    let stream = format!("t/{plan_id}/toy");
    let release = |seeds: &[u64], request_id: Option<&str>| Request::Release {
        tenant: "t".into(),
        session: session.clone(),
        seeds: seeds.to_vec(),
        request_id: request_id.map(Into::into),
    };
    vec![
        Request::Ping,
        Request::OpenTenant {
            tenant: "t".into(),
            budget: PrivacyLevel::Pure { epsilon: 2.0 },
            tenant_token: None,
        },
        Request::RegisterCompile {
            tenant: "t".into(),
            plan: PlanBuilder::new(toy_spec()).privacy(privacy),
        },
        Request::RegisterPlan {
            tenant: "t".into(),
            plan: Box::new(plan),
        },
        Request::Bind {
            tenant: "t".into(),
            plan_id: plan_id.into(),
            table: "toy".into(),
        },
        Request::Bind {
            tenant: "t".into(),
            plan_id: plan_id.into(),
            table: "missing".into(),
        },
        release(&[3, (1 << 60) + 17], Some("r-1")),
        release(&[3, (1 << 60) + 17], Some("r-1")),
        release(&[4], Some("r-1")),
        release(&[5], None),
        release(&[], None),
        release(&[], Some("r-empty")),
        Request::StreamOpen {
            tenant: "t".into(),
            plan_id: plan_id.into(),
            table: Some("toy".into()),
        },
        Request::Ingest {
            tenant: "t".into(),
            stream: stream.clone(),
            cell: 9,
            delta: 2.5,
        },
        Request::ReleaseCurrent {
            tenant: "t".into(),
            stream,
            seeds: vec![6, 7],
            request_id: Some("epoch-1".into()),
        },
        Request::BudgetStatus { tenant: "t".into() },
        release(&[8, 9, 10, 11], None),
        Request::BudgetStatus { tenant: "t".into() },
        Request::Shutdown,
    ]
}

#[test]
fn every_op_responds_with_the_rendered_bytes_of_its_decoded_view() {
    let plan: Plan = PlanBuilder::new(toy_spec())
        .privacy(PrivacyLevel::Pure { epsilon: 0.25 })
        .compile()
        .unwrap();
    let fresh = || {
        let service = DpService::new(Accountant::in_memory());
        service.data().insert_table("toy", toy_table());
        service
    };
    let (viewed, answered) = (fresh(), fresh());
    let script = scripted_session(plan);
    let requests = script.iter().map(|r| render_line(&r.to_value()));
    let (mut replies, mut refusals) = (0, 0);
    for (i, line) in requests.enumerate() {
        let parse = || Request::from_value(&parse_line(&line).unwrap()).unwrap();
        let view = viewed.handle(parse(), None);
        let sent = answered.respond(parse(), None);
        match (view, sent) {
            (Ok(view), Ok(sent)) => {
                assert_eq!(render_line(&view), *sent, "request {i}: {line}");
                replies += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "request {i}: {line}");
                assert_eq!(a.code(), b.code(), "request {i}: {line}");
                refusals += 1;
            }
            (view, sent) => panic!("request {i} diverged: {view:?} against {sent:?}"),
        }
    }
    // The script reaches the plan id it names, a refused bind, a
    // mismatched id and an exhausted budget.
    assert_eq!((replies, refusals), (script.len() - 3, 3));
}

/// `registry::plan_id` of default-search `C`, `F` and `I` marginal plans
/// and an `H` range plan. A plan id names the plan on the wire and inside
/// every session id the WAL journals, so these must never drift.
const PINNED_PLAN_IDS: [&str; 4] = [
    "c44ec6b2882f36bb",
    "a9fa5075497d2eec",
    "4d6c0923bd6108a6",
    "56c70798214ab73d",
];

#[test]
fn plan_ids_match_their_pinned_values() {
    let workload = Workload::all_k_way(&Schema::binary(4).unwrap(), 2).unwrap();
    let privacy = PrivacyLevel::Pure { epsilon: 0.5 };
    let builders = [
        PlanBuilder::marginals(workload.clone(), StrategyKind::Cluster),
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier),
        PlanBuilder::marginals(workload, StrategyKind::Identity),
        PlanBuilder::ranges(
            RangeWorkload::all_prefixes(16).unwrap(),
            RangeStrategy::Hierarchical,
        ),
    ];
    let ids: Vec<String> = builders
        .into_iter()
        .map(|b| dp_service::registry::plan_id(&b.privacy(privacy).compile().unwrap()))
        .collect();
    assert_eq!(ids, PINNED_PLAN_IDS);
}

/// A `C` plan document as `datacube-dp plan --dataset nltcs --workload q1
/// --strategy c --budgets optimal --epsilon 0.5` wrote it (whitespace
/// removed), with the `"cluster"` object plan documents once carried.
const SHIPPED_CLUSTER_PLAN: &str = concat!(
    r#"{"spec":{"kind":"marginals","workload":{"domain_bits":16,"marginals":[1,2,4,8,16,32,64,128,"#,
    r#"256,512,1024,2048,4096,8192,16384,32768]},"strategy":"cluster","#,
    r#""cluster":{"search":"union","faithful":false,"parallel":true}},"budgeting":"optimal","#,
    r#""privacy":{"epsilon":0.5},"neighboring":"add_remove","schema_fingerprint":"14462862052681720187","#,
    r#""group_budgets":[0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625],"objective":16384,"#,
    r#""achieved_epsilon":0.5,"predicted_variance":32768,"query_variances":[2048,2048,2048,2048,"#,
    r#"2048,2048,2048,2048,2048,2048,2048,2048,2048,2048,2048,2048]}"#,
);

#[test]
fn a_shipped_cluster_plan_document_still_registers_under_its_id() {
    let service = DpService::new(Accountant::in_memory());
    service
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
        .unwrap();
    let line = format!(r#"{{"op":"register_plan","tenant":"t","plan":{SHIPPED_CLUSTER_PLAN}}}"#);
    let request = Request::from_value(&parse_line(&line).unwrap()).unwrap();
    let reply = parse_line(&service.respond(request, None).unwrap()).unwrap();
    let plan_id = reply.get_field("plan_id").and_then(Value::as_str);
    assert_eq!(plan_id, Some("f96a143ab613bfd6"));
}

/// The `"cluster"` object that once selected the paper-faithful
/// exponential walk for a plan.
const PAPER_CLUSTER: &str =
    r#"{"search":"all_dominating_cuboids","faithful":true,"parallel":false}"#;

/// The reply lines of `line` (a `register_plan`), a bind of its plan to a
/// 12-bit table and one keyed release, sent to a fresh service.
fn register_bind_release(line: &str) -> [String; 3] {
    let service = DpService::new(Accountant::in_memory());
    let indices: Vec<u64> = (0..200).map(|i| (i * 37 + i * i) % 4096).collect();
    let table = ContingencyTable::from_indices(12, &indices);
    service.data().insert_table("t12", table);
    service
        .open_tenant("t", PrivacyLevel::Pure { epsilon: 4.0 })
        .unwrap();
    let send = |line: &str| {
        let request = Request::from_value(&parse_line(line).unwrap()).unwrap();
        service.respond(request, None).unwrap().to_string()
    };
    let field = |reply: &str, name: &str| {
        let value = parse_line(reply).unwrap();
        value
            .get_field(name)
            .and_then(Value::as_str)
            .unwrap()
            .to_owned()
    };
    let registered = send(line);
    let plan_id = field(&registered, "plan_id");
    let bound = send(&format!(
        r#"{{"op":"bind","tenant":"t","plan_id":"{plan_id}","table":"t12"}}"#
    ));
    let session = field(&bound, "session");
    let released = send(&format!(
        r#"{{"op":"release","tenant":"t","session":"{session}","seeds":[5,6],"request_id":"r"}}"#
    ));
    [registered, bound, released]
}

#[test]
fn a_cluster_search_object_changes_neither_plan_id_nor_release_bytes() {
    // All 2-way marginals over 12 bits: the reference walk the object
    // once selected takes a fraction of a second here.
    let masks: Vec<String> = (0..12)
        .flat_map(|i| (i + 1..12).map(move |j| ((1u64 << i) | (1u64 << j)).to_string()))
        .collect();
    let spec = |extra: &str| {
        format!(
            r#"{{"kind":"marginals","workload":{{"domain_bits":12,"marginals":[{}]}},"strategy":"cluster"{extra}}}"#,
            masks.join(",")
        )
    };
    let compile_line = |extra: &str| {
        format!(
            r#"{{"op":"register_plan","tenant":"t","compile":{{"spec":{},"privacy":{{"epsilon":0.5}}}}}}"#,
            spec(extra)
        )
    };
    let plain = register_bind_release(&compile_line(""));
    let paper = format!(r#","cluster":{PAPER_CLUSTER}"#);
    assert_eq!(register_bind_release(&compile_line(&paper)), plain);

    // A shipped document of the same plan, carrying the object.
    let spec_value = WorkloadSpec::deserialize_value(&parse_line(&spec("")).unwrap()).unwrap();
    let plan = PlanBuilder::new(spec_value)
        .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
        .compile()
        .unwrap();
    let Value::Object(mut fields) = plan.serialize_value() else {
        panic!("a plan serializes as an object");
    };
    for (name, value) in &mut fields {
        if let ("spec", Value::Object(spec_fields)) = (name.as_str(), value) {
            spec_fields.push(("cluster".into(), parse_line(PAPER_CLUSTER).unwrap()));
        }
    }
    let document = render_line(&Value::Object(fields));
    let shipped = format!(r#"{{"op":"register_plan","tenant":"t","plan":{document}}}"#);
    assert_eq!(register_bind_release(&shipped), plain);
}
