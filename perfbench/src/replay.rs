//! The traced run's layer replay: a sample of the requests a run sent
//! (same seeds, ids and cells) goes through each layer's public functions,
//! one parent span per request and one child span per layer call. Layer
//! metrics are medians of the children's self times.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dp_core::api::{OwnedSession, Plan, StreamingSession, WorkloadSpec};
use dp_core::range::RangeStrategy;
use dp_core::strategy::{noise_variance, perturb_observations_into, NoiseParams};
use dp_service::protocol::{parse_line, render_line, response_to_result, Request};
use dp_service::{Accountant, DpService, ReleaseAdmission, WalSync};
use rand::SeedableRng;

use crate::bench::{err, ConnLog, Deployment, Sent, Workload};
use crate::inputs::{self, Inputs, Scale};
use crate::trace::{self, median, Recorder};

/// Per-layer metric values by name, plus the names that do not apply to
/// the workload (reported as 0).
#[derive(Debug, Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub not_applicable: Vec<&'static str>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn na(&mut self, name: &'static str) {
        self.values.push((name, 0.0));
        self.not_applicable.push(name);
    }
}

/// `count` requests spread evenly over `sent`.
fn sample<'a>(sent: &[&'a Sent], count: usize) -> Vec<&'a Sent> {
    if sent.is_empty() {
        return Vec::new();
    }
    let count = count.min(sent.len());
    (0..count).map(|i| sent[i * sent.len() / count]).collect()
}

/// Row → noise-group map of a plan: tree levels for `H`, Haar levels for
/// `W`, and for marginal plans an even split of the rows over the plan's
/// groups (their true layout is internal to the engine).
fn row_groups(spec: &WorkloadSpec, rows: usize, groups: usize) -> Vec<u32> {
    match spec {
        WorkloadSpec::Ranges {
            strategy: RangeStrategy::Wavelet,
            ..
        } => (0..rows).map(|i| dp_linalg::haar_level(i) as u32).collect(),
        WorkloadSpec::Ranges {
            strategy: RangeStrategy::Hierarchical,
            ..
        } => (0..rows)
            .map(|i| usize::BITS - (i + 1).leading_zeros() - 1)
            .collect(),
        _ => (0..rows).map(|i| (i * groups / rows) as u32).collect(),
    }
}

fn bind(workload: Workload, plan: Arc<Plan>, inputs: &Inputs) -> Result<OwnedSession, String> {
    match workload {
        Workload::RangeEngine => OwnedSession::bind_histogram(plan, &inputs.hist).map_err(err),
        _ => OwnedSession::bind(plan, &inputs.table).map_err(err),
    }
}

fn observations(workload: Workload, plan: Arc<Plan>, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let stream = match workload {
        Workload::RangeEngine => StreamingSession::bind_histogram(plan, &inputs.hist),
        _ => StreamingSession::bind(plan, &inputs.table),
    };
    Ok(stream.map_err(err)?.observations().to_vec())
}

/// A replica service holding the same plans and data as `dep`, for
/// in-process `handle` calls. `durable_stream` gets a group-commit WAL in
/// `dir`.
fn replica(
    workload: Workload,
    inputs: &Inputs,
    dep: &Deployment,
    dir: &Path,
) -> Result<DpService, String> {
    let accountant = if workload == Workload::DurableStream {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(err)?;
        Accountant::with_wal_sync(&dir.join("ledger.jsonl"), WalSync::Group).map_err(err)?
    } else {
        Accountant::in_memory()
    };
    let service = DpService::new(accountant);
    service.data().insert_table("nltcs", inputs.table.clone());
    service.data().insert_histogram("hist", inputs.hist.clone());
    let budget = dp_mech::PrivacyLevel::Pure {
        epsilon: inputs::TENANT_EPSILON,
    };
    for (i, t) in dep.targets.iter().enumerate() {
        service.open_tenant(&t.tenant, budget).map_err(err)?;
        let plan = dep.plan(i)?;
        let plan_id = service
            .register_plan(&t.tenant, ship(&plan)?)
            .map_err(err)?;
        if plan_id != t.plan_id {
            return Err(format!(
                "replica plan id {plan_id} differs from {}",
                t.plan_id
            ));
        }
        let handle = if workload == Workload::DurableStream && i == 1 {
            service.stream_open(&t.tenant, &plan_id, None)
        } else {
            let table = if workload == Workload::RangeEngine {
                "hist"
            } else {
                "nltcs"
            };
            service.bind(&t.tenant, &plan_id, table)
        }
        .map_err(err)?;
        if handle != t.handle {
            return Err(format!("replica handle {handle} differs from {}", t.handle));
        }
    }
    Ok(service)
}

/// A copy of `plan` made the way `register_plan` ships one: through its
/// document, reusing the solved budgets (no extra budget solve).
fn ship(plan: &Plan) -> Result<Plan, String> {
    use serde::{Deserialize, Serialize};
    Plan::deserialize_value(&plan.serialize_value()).map_err(err)
}

fn request_for(t: &crate::bench::Target, s: &Sent) -> Request {
    if s.current {
        Request::ReleaseCurrent {
            tenant: t.tenant.clone(),
            stream: t.handle.clone(),
            seeds: s.seeds.clone(),
            request_id: Some(s.request_id.clone()),
        }
    } else {
        Request::Release {
            tenant: t.tenant.clone(),
            session: t.handle.clone(),
            seeds: s.seeds.clone(),
            request_id: Some(s.request_id.clone()),
        }
    }
}

/// Replays the run's requests through every layer the workload touches.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    scale: Scale,
    dep: &Deployment,
    logs: &[ConnLog],
    rec: &Recorder,
    dir: &Path,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let specs = workload.specs(inputs);
    let nproc = rayon::current_num_threads();
    let replay_count = if workload == Workload::RangeEngine {
        (scale.replay / 4).max(1)
    } else {
        scale.replay
    };

    // Plan layer: compile and bind every distinct plan.
    let reps = if workload == Workload::RangeEngine {
        2
    } else {
        5
    };
    let (mut compile, mut bind_ms) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let id = format!("plan-{rep}");
        let (parent, start) = rec.open(&id, "replay.plan");
        let mut plans = Vec::new();
        for spec in &specs {
            let plan = rec.time(Some(parent), &id, "core.compile", || {
                inputs::builder(spec.clone()).compile()
            });
            plans.push(Arc::new(plan.map_err(err)?));
        }
        let mid = Instant::now();
        for plan in plans {
            rec.time(Some(parent), &id, "core.bind", || {
                bind(workload, plan, inputs)
            })?;
        }
        rec.close(parent);
        compile.push((mid - start).as_secs_f64() * 1e3);
        bind_ms.push(mid.elapsed().as_secs_f64() * 1e3);
    }
    layers.set("core.compile_ms", median(&compile));
    layers.set("core.bind_ms", median(&bind_ms));
    layers.set("core.budget_solves", dep.budget_solves as f64);
    let cache = dep.service().registry().cache();
    layers.set("registry.cache_hits", cache.hits() as f64);
    layers.set("registry.cache_misses", cache.misses() as f64);

    // Engine: the sampled session releases, one at a time and batched.
    let session_sent: Vec<&Sent> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .filter(|s| !s.current)
        .collect();
    let engine_sample = sample(&session_sent, replay_count);
    let mut sessions = Vec::new();
    for (i, _) in dep.targets.iter().enumerate() {
        let is_stream = workload == Workload::DurableStream && i == 1;
        sessions.push(if is_stream {
            None
        } else {
            Some(bind(workload, dep.plan(i)?, inputs)?)
        });
    }
    let (mut per_release, mut batch_per_release, mut eff, mut rows) =
        (vec![], vec![], vec![], vec![]);
    for s in &engine_sample {
        let session = sessions[s.target]
            .as_ref()
            .expect("session targets are bound");
        let (parent, _) = rec.open(&s.request_id, "replay.engine");
        let mut singles = 0.0;
        for &seed in &s.seeds {
            let start = Instant::now();
            session.release(seed).map_err(err)?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            rec.record(
                Some(parent),
                &s.request_id,
                "core.release",
                start,
                Instant::now(),
            );
            per_release.push(us);
            singles += us;
        }
        let start = Instant::now();
        session.release_batch(&s.seeds).map_err(err)?;
        let batch_us = start.elapsed().as_secs_f64() * 1e6;
        rec.record(
            Some(parent),
            &s.request_id,
            "core.batch_release",
            start,
            Instant::now(),
        );
        rec.close(parent);
        let k = s.seeds.len();
        batch_per_release.push(batch_us / k as f64);
        eff.push(singles / (batch_us * k.min(nproc) as f64));
        rows.push(observations(workload, dep.plan(s.target)?, inputs)?.len() as f64);
    }
    let release_us = median(&per_release);
    layers.set("core.release_us", release_us);
    layers.set("core.batch_release_us", median(&batch_per_release));
    layers.set("core.batch_parallel_eff", median(&eff));
    layers.set("core.obs_rows", median(&rows));

    // Noise and recovery over each distinct plan's observations.
    let mut noise_rows = 0.0;
    let mut noise_s = 0.0;
    let mut gls_ms = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let plan = dep.plan(i)?;
        let z = observations(workload, Arc::clone(&plan), inputs)?;
        let session = sessions[i]
            .as_ref()
            .expect("the first targets are sessions");
        let budgets = session.release(0).map_err(err)?.group_budgets;
        let groups = row_groups(spec, z.len(), budgets.len());
        let params = NoiseParams::compute(inputs::privacy(), &budgets);
        let (mut noisy, mut seeds) = (Vec::new(), Vec::new());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let id = format!("noise-{i}");
        let (parent, _) = rec.open(&id, "replay.noise");
        let begin = Instant::now();
        while noise_rows == 0.0 || begin.elapsed().as_secs_f64() < 0.2 {
            let start = Instant::now();
            perturb_observations_into(&z, &groups, &params, &mut rng, &mut noisy, &mut seeds);
            rec.record(Some(parent), &id, "noise.perturb", start, Instant::now());
            noise_s += start.elapsed().as_secs_f64();
            noise_rows += z.len() as f64;
        }
        rec.close(parent);
        if let WorkloadSpec::Ranges { strategy, .. } = spec {
            let operator = dp_core::range::strategy_operator(*strategy, inputs.hist.len());
            let weights: Vec<f64> = groups
                .iter()
                .map(|&g| 1.0 / noise_variance(inputs::privacy(), budgets[g as usize]))
                .collect();
            let id = format!("gls-{i}");
            let (parent, _) = rec.open(&id, "replay.gls");
            for _ in 0..2 {
                let start = Instant::now();
                dp_linalg::gls_normal_solve(
                    &operator,
                    &weights,
                    &noisy,
                    dp_linalg::CgOptions::default(),
                )
                .map_err(err)?;
                rec.record(Some(parent), &id, "linalg.gls_solve", start, Instant::now());
                gls_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            rec.close(parent);
        }
    }
    layers.set("noise.cells_per_s", noise_rows / noise_s);
    if gls_ms.is_empty() {
        layers.na("linalg.gls_solve_ms");
    } else {
        layers.set("linalg.gls_solve_ms", median(&gls_ms));
    }

    // Stream: the run's ingests replayed into a local stream.
    if workload == Workload::DurableStream {
        let cells = &logs[1].cells;
        let mut stream = StreamingSession::empty(dep.plan(1)?).map_err(err)?;
        let (parent, _) = rec.open("ingest", "replay.ingest");
        let mut ingest = Vec::new();
        for (j, &cell) in cells.iter().enumerate() {
            let start = Instant::now();
            stream.ingest_count(cell, 1.0).map_err(err)?;
            let end = Instant::now();
            if j < 64 * scale.replay {
                rec.record(Some(parent), "ingest", "core.ingest", start, end);
            }
            ingest.push((end - start).as_secs_f64() * 1e6);
        }
        rec.close(parent);
        layers.set("core.ingest_us", median(&ingest));
    } else {
        layers.na("core.ingest_us");
    }

    // Protocol and service: the sampled wire requests, in process.
    let replica_dir = dir.join("replica");
    let service = replica(workload, inputs, dep, &replica_dir)?;
    let wire_sent: Vec<&Sent> = match workload {
        Workload::DurableStream => logs[1].sent.iter().collect(),
        _ => session_sent.clone(),
    };
    let mut bytes = Vec::new();
    let mut fed = 0usize;
    for s in sample(&wire_sent, replay_count) {
        let t = &dep.targets[s.target];
        if s.current {
            for &cell in &logs[1].cells[fed..s.cells_before] {
                service
                    .stream_ingest(&t.tenant, &t.handle, cell, 1.0)
                    .map_err(err)?;
            }
            fed = s.cells_before;
        }
        let id = s.request_id.as_str();
        let request = request_for(t, s);
        let (parent, _) = rec.open(id, "replay.request");
        let line = rec.time(Some(parent), id, "protocol.req_encode", || {
            render_line(&request.to_value())
        });
        let parsed = rec
            .time(Some(parent), id, "protocol.req_decode", || {
                parse_line(&line).and_then(|v| Request::from_value(&v))
            })
            .map_err(err)?;
        let response = rec
            .time(Some(parent), id, "service.handle", || {
                service.handle(parsed, None)
            })
            .map_err(err)?;
        let out = rec.time(Some(parent), id, "protocol.resp_encode", || {
            render_line(&response)
        });
        rec.time(Some(parent), id, "protocol.resp_decode", || {
            parse_line(&out).and_then(response_to_result)
        })
        .map_err(err)?;
        rec.close(parent);
        bytes.push(out.len() as f64 + 1.0);
    }
    if workload == Workload::DurableStream {
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    // Accountant: group-commit admissions of the sampled ids.
    let admit_dir = dir.join("admit");
    let _ = std::fs::remove_dir_all(&admit_dir);
    std::fs::create_dir_all(&admit_dir).map_err(err)?;
    let accountant =
        Accountant::with_wal_sync(&admit_dir.join("ledger.jsonl"), WalSync::Group).map_err(err)?;
    let budget = dp_mech::PrivacyLevel::Pure {
        epsilon: inputs::TENANT_EPSILON,
    };
    accountant.open_tenant("admit", budget).map_err(err)?;
    let (parent, _) = rec.open("admit", "replay.admit");
    for s in sample(&session_sent, replay_count) {
        let charge = dp_mech::compose_n(inputs::privacy(), s.seeds.len());
        let admission = rec
            .time(Some(parent), &s.request_id, "accountant.admit", || {
                accountant.admit_release("admit", &s.request_id, "session", &s.seeds, charge)
            })
            .map_err(err)?;
        if !matches!(admission, ReleaseAdmission::Fresh) {
            return Err(format!("{}: replayed on a fresh ledger", s.request_id));
        }
    }
    rec.close(parent);
    drop(accountant);
    let _ = std::fs::remove_dir_all(&admit_dir);

    let spans = rec.spans();
    let selfs = trace::self_times(&spans);
    let layer = |name: &str| {
        let values: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &(_, v))| v)
            .collect();
        median(&values)
    };
    for (metric, span) in [
        ("protocol.req_encode_us", "protocol.req_encode"),
        ("protocol.req_decode_us", "protocol.req_decode"),
        ("protocol.resp_encode_us", "protocol.resp_encode"),
        ("protocol.resp_decode_us", "protocol.resp_decode"),
    ] {
        layers.set(metric, layer(span));
    }
    layers.set("protocol.resp_bytes", median(&bytes));
    let handle_us = layer("service.handle");
    layers.set("service.handle_us", handle_us);
    let k = engine_sample.first().map_or(1, |s| s.seeds.len()) as f64;
    layers.set(
        "service.overhead_us",
        handle_us - median(&batch_per_release) * k,
    );
    layers.set("accountant.admit_us", layer("accountant.admit"));

    match dep.service().accountant().wal_stats() {
        Some(w) => {
            layers.set("wal.batches", w.batches as f64);
            layers.set("wal.records", w.records as f64);
            layers.set("wal.mean_batch", w.mean_batch());
            layers.set("wal.max_batch", w.max_batch as f64);
        }
        None => {
            for name in [
                "wal.batches",
                "wal.records",
                "wal.mean_batch",
                "wal.max_batch",
            ] {
                layers.na(name);
            }
        }
    }

    let rtt_span = match workload {
        Workload::DurableStream => "wire.release_current",
        _ => "wire.release",
    };
    let rtt = median(&trace::durations(&spans, rtt_span));
    let parts: f64 = [
        "protocol.req_encode",
        "protocol.req_decode",
        "service.handle",
        "protocol.resp_encode",
        "protocol.resp_decode",
    ]
    .iter()
    .map(|n| layer(n))
    .sum();
    layers.set("wire.rtt_us", rtt);
    layers.set("wire.residual_us", rtt - parts);
    layers.set(
        "client.retries",
        logs.iter().map(|l| l.retries).sum::<u64>() as f64,
    );
    layers.set(
        "client.sheds",
        logs.iter().map(|l| l.sheds).sum::<u64>() as f64,
    );
    Ok(layers)
}
