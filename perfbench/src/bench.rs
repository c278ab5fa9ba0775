//! The three workloads: set-up of a live `dp_service::Server` on loopback,
//! the closed-loop connections that drive it, and the correctness gates
//! their outputs must pass.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dp_core::api::{OwnedSession, Plan, StreamingSession, WorkloadSpec};
use dp_core::range::RangeStrategy;
use dp_service::protocol::{render_line, session_release_to_value};
use dp_service::{
    Accountant, Client, DpService, KeyedRelease, Server, ServiceError, TcpTransport, WalSync,
};
use rand::Rng;
use serde::Value;

use crate::calib::{self, Member, Quiesce};
use crate::inputs::{self, Inputs, Scale};
use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MarginalWire,
    RangeEngine,
    DurableStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MarginalWire,
        Workload::RangeEngine,
        Workload::DurableStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MarginalWire => "marginal_wire",
            Workload::RangeEngine => "range_engine",
            Workload::DurableStream => "durable_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections driving the server.
    pub fn connections(self) -> usize {
        match self {
            Workload::RangeEngine => 1,
            Workload::MarginalWire | Workload::DurableStream => 2,
        }
    }

    /// The distinct plans the workload registers (one budget solve each).
    pub fn specs(self, inputs: &Inputs) -> Vec<WorkloadSpec> {
        match self {
            Workload::MarginalWire => vec![Inputs::marginals(2)],
            Workload::RangeEngine => vec![
                inputs.range_spec(RangeStrategy::Wavelet),
                inputs.range_spec(RangeStrategy::Hierarchical),
            ],
            Workload::DurableStream => vec![Inputs::marginals(1)],
        }
    }
}

/// What one connection releases from: a tenant, its registered plan, and
/// the bound session or stream id.
#[derive(Debug, Clone)]
pub struct Target {
    pub tenant: String,
    pub plan_id: String,
    pub handle: String,
}

/// A running server plus the targets its set-up created.
pub struct Deployment {
    server: Arc<Server<TcpTransport>>,
    thread: Option<JoinHandle<Result<(), ServiceError>>>,
    pub addr: String,
    pub targets: Vec<Target>,
    pub setup_s: f64,
    pub budget_solves: u64,
    dir: Option<PathBuf>,
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Loads the workload's data into a fresh service on an ephemeral port,
/// then opens tenants, registers plans and binds sessions over the wire.
/// `dir` receives the WAL of `durable_stream`.
pub fn deploy(workload: Workload, inputs: &Inputs, dir: &Path) -> Result<Deployment, String> {
    let budget = dp_mech::PrivacyLevel::Pure {
        epsilon: inputs::TENANT_EPSILON,
    };
    let wal_dir = (workload == Workload::DurableStream).then(|| dir.to_path_buf());
    if let Some(d) = &wal_dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(err)?;
    }
    let solves = dp_opt::budget::solve_count();
    let start = Instant::now();
    let accountant = match &wal_dir {
        Some(d) => {
            Accountant::with_wal_sync(&d.join("ledger.jsonl"), WalSync::Group).map_err(err)?
        }
        None => Accountant::in_memory(),
    };
    let service = DpService::new(accountant);
    match workload {
        Workload::RangeEngine => service.data().insert_histogram("hist", inputs.hist.clone()),
        _ => service.data().insert_table("nltcs", inputs.table.clone()),
    }
    let server = Arc::new(Server::new(
        service,
        TcpTransport::bind("127.0.0.1:0").map_err(err)?,
    ));
    let addr = server.addr();
    let thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut deployment = Deployment {
        server,
        thread: Some(thread),
        addr,
        targets: Vec::new(),
        setup_s: 0.0,
        budget_solves: 0,
        dir: wal_dir,
    };
    let mut client = Client::connect(&deployment.addr).map_err(err)?;
    let specs = workload.specs(inputs);
    let register = |client: &mut Client, tenant: &str, spec: &WorkloadSpec| {
        client.register_compile(
            tenant,
            spec.clone(),
            dp_core::Budgeting::Optimal,
            inputs::privacy(),
            dp_mech::Neighboring::AddRemove,
        )
    };
    match workload {
        Workload::MarginalWire => {
            // Two tenants, one shared session: the second registration is a
            // plan-cache hit and binds to the same session id.
            for tenant in ["t0", "t1"] {
                client.open_tenant(tenant, budget).map_err(err)?;
                let plan_id = register(&mut client, tenant, &specs[0]).map_err(err)?;
                let handle = client.bind(tenant, &plan_id, "nltcs").map_err(err)?;
                deployment.targets.push(Target {
                    tenant: tenant.into(),
                    plan_id,
                    handle,
                });
            }
        }
        Workload::RangeEngine => {
            client.open_tenant("t0", budget).map_err(err)?;
            for spec in &specs {
                let plan_id = register(&mut client, "t0", spec).map_err(err)?;
                let handle = client.bind("t0", &plan_id, "hist").map_err(err)?;
                deployment.targets.push(Target {
                    tenant: "t0".into(),
                    plan_id,
                    handle,
                });
            }
        }
        Workload::DurableStream => {
            client.open_tenant("reader", budget).map_err(err)?;
            let plan_id = register(&mut client, "reader", &specs[0]).map_err(err)?;
            let handle = client.bind("reader", &plan_id, "nltcs").map_err(err)?;
            deployment.targets.push(Target {
                tenant: "reader".into(),
                plan_id,
                handle,
            });
            client.open_tenant("publisher", budget).map_err(err)?;
            let plan_id = register(&mut client, "publisher", &specs[0]).map_err(err)?;
            let handle = client
                .stream_open("publisher", &plan_id, None)
                .map_err(err)?;
            deployment.targets.push(Target {
                tenant: "publisher".into(),
                plan_id,
                handle,
            });
        }
    }
    deployment.setup_s = start.elapsed().as_secs_f64();
    deployment.budget_solves = dp_opt::budget::solve_count() - solves;
    Ok(deployment)
}

impl Deployment {
    pub fn service(&self) -> &DpService {
        self.server.service()
    }

    /// The compiled plan behind target `i`, as the server holds it.
    pub fn plan(&self, i: usize) -> Result<Arc<Plan>, String> {
        let t = &self.targets[i];
        self.service()
            .registry()
            .lookup(&t.tenant, &t.plan_id)
            .map_err(err)
    }

    /// Stops the server, waits for it, and removes its WAL directory.
    pub fn teardown(mut self) -> Result<(), String> {
        self.server.shutdown();
        let result = self
            .thread
            .take()
            .expect("server thread is joined once")
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err);
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
        result
    }
}

/// When a run warms up, measures, and (in a traced run) which slices of
/// the measured window record spans: the odd ones of `slices` equal parts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warm_end: Instant,
    pub end: Instant,
    pub slices: u32,
}

impl Schedule {
    pub fn new(warmup: Duration, measure: Duration, slices: u32) -> Schedule {
        let warm_end = Instant::now() + warmup;
        Schedule {
            warm_end,
            end: warm_end + measure,
            slices,
        }
    }

    pub fn measured_s(&self) -> f64 {
        (self.end - self.warm_end).as_secs_f64()
    }

    /// Index of the slice `t` falls in (`None` during warm-up).
    pub fn slice(&self, t: Instant, slices: u32) -> Option<u32> {
        if t < self.warm_end {
            return None;
        }
        let f = (t - self.warm_end).as_secs_f64() / self.measured_s();
        Some(((f * slices as f64) as u32).min(slices - 1))
    }

    pub fn traced(&self, t: Instant) -> bool {
        self.slices > 1 && self.slice(t, self.slices).is_some_and(|s| s % 2 == 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Release,
    Ingest,
}

/// One caller-visible call made in the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub op: Op,
    pub start: Instant,
    pub end: Instant,
    /// Releases granted by the call (0 when it failed, or for an ingest).
    pub releases: u32,
    pub ok: bool,
}

impl Call {
    /// Latency in ms; NaN for a failed call, so it counts as missing every
    /// latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.end - self.start).as_secs_f64() * 1e3
        } else {
            f64::NAN
        }
    }
}

/// One keyed release a connection sent (warm-up included).
#[derive(Debug, Clone)]
pub struct Sent {
    pub target: usize,
    pub request_id: String,
    pub seeds: Vec<u64>,
    /// `release_current` (stream) rather than `release` (session).
    pub current: bool,
    /// Ingests the stream had received before this release.
    pub cells_before: usize,
    /// The wire bytes of the release objects, kept for sampled requests.
    pub wire: Option<Vec<String>>,
}

/// Everything a connection did.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub calls: Vec<Call>,
    pub sent: Vec<Sent>,
    pub cells: Vec<u64>,
    pub retries: u64,
    pub sheds: u64,
    pub errors: Vec<String>,
}

impl ConnLog {
    fn note(
        &mut self,
        sched: &Schedule,
        rec: Option<&Recorder>,
        call: Call,
        name: &'static str,
        id: &str,
    ) {
        if call.start >= sched.warm_end {
            self.calls.push(call);
        }
        if let Some(rec) = rec.filter(|_| sched.traced(call.start)) {
            rec.record(None, id, name, call.start, call.end);
        }
    }

    fn fail(&mut self, e: ServiceError) {
        if self.errors.len() < 8 {
            self.errors.push(e.to_string());
        }
    }
}

/// Every `SAMPLE_EVERY`-th keyed release keeps its wire bytes for the
/// byte-identity gate.
const SAMPLE_EVERY: usize = 16;

fn rendered(releases: &[Value]) -> Vec<String> {
    releases.iter().map(render_line).collect()
}

/// One host probe taken while every connection was parked.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub reading: calib::Reading,
    /// Process CPU time the probe used, in s.
    pub cpu_s: f64,
}

/// Time between host probes during the load.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// What every connection of one run shares.
#[derive(Clone, Copy)]
struct Conn<'a> {
    dep: &'a Deployment,
    seed: u64,
    sched: Schedule,
    rec: Option<&'a Recorder>,
    quiesce: &'a Quiesce,
}

/// Runs the workload's connections against `dep` until `sched.end`, with
/// a host probe every [`PROBE_EVERY`] while they are parked.
pub fn drive(
    workload: Workload,
    dep: &Deployment,
    seed: u64,
    scale: Scale,
    sched: Schedule,
    rec: Option<&Recorder>,
) -> Result<(Vec<ConnLog>, Vec<Probe>), String> {
    let mut clients = (0..workload.connections())
        .map(|_| Client::connect(&dep.addr).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let quiesce = Quiesce::new(clients.len());
    let ctx = Conn {
        dep,
        seed,
        sched,
        rec,
        quiesce: &quiesce,
    };
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let probe = || {
                let cpu = calib::process_cpu_s();
                let reading = calib::probe();
                Probe {
                    reading,
                    cpu_s: calib::process_cpu_s() - cpu,
                }
            };
            let mut probes = Vec::new();
            loop {
                std::thread::sleep(PROBE_EVERY);
                match quiesce.run(probe) {
                    Some(p) => probes.push(p),
                    // Every connection has left; one more probe, so even a
                    // window shorter than one call has a reading.
                    None => {
                        probes.push(probe());
                        return probes;
                    }
                }
            }
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let _member = Member(ctx.quiesce);
                    let mut log = ConnLog::default();
                    match (workload, conn) {
                        (Workload::MarginalWire, _) => {
                            releases(client, ctx, &[conn], 1, conn, &mut log)
                        }
                        // Five W+ requests per H+ request: wherever the
                        // slower H+ mode lies, the median stays between
                        // the 40th and 60th percentiles of W+ calls. At
                        // two per one it jumped to the H+ mode whenever a
                        // quarter of W+ calls stalled.
                        (Workload::RangeEngine, _) => {
                            releases(client, ctx, &[0, 0, 0, 0, 0, 1], 4, conn, &mut log)
                        }
                        (Workload::DurableStream, 0) => {
                            pipelined(client, ctx, scale.window, &mut log)
                        }
                        (Workload::DurableStream, _) => {
                            publisher(client, ctx, scale.ingest_burst, &mut log)
                        }
                    }
                    let stats = client.stats();
                    log.retries = stats.retries;
                    log.sheds = stats.sheds;
                    log
                })
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let probes = prober
            .join()
            .map_err(|_| "probe thread panicked".to_string())?;
        Ok((logs, probes))
    })
}

/// Closed loop of keyed `release` requests of `k` seeds, cycling through
/// `targets`.
fn releases(
    client: &mut Client,
    ctx: Conn,
    targets: &[usize],
    k: usize,
    conn: usize,
    log: &mut ConnLog,
) {
    let Conn {
        dep,
        seed,
        sched,
        rec,
        quiesce,
    } = ctx;
    let mut rng = inputs::stream(seed, 100 + conn as u64);
    let mut i = 0usize;
    while Instant::now() < sched.end {
        quiesce.checkpoint();
        let target = targets[i % targets.len()];
        let t = &dep.targets[target];
        let seeds: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
        let id = format!("{seed:x}-c{conn}-{i}");
        let start = Instant::now();
        let result = client.release_with_id(&t.tenant, &t.handle, &seeds, &id);
        let end = Instant::now();
        let ok = matches!(&result, Ok(r) if r.len() == k);
        let wire = match result {
            Ok(r) => i.is_multiple_of(SAMPLE_EVERY).then(|| rendered(&r)),
            Err(e) => {
                log.fail(e);
                None
            }
        };
        let releases = if ok { k as u32 } else { 0 };
        log.note(
            &sched,
            rec,
            Call {
                op: Op::Release,
                start,
                end,
                releases,
                ok,
            },
            "wire.release",
            &id,
        );
        log.sent.push(Sent {
            target,
            request_id: id,
            seeds,
            current: false,
            cells_before: 0,
            wire,
        });
        i += 1;
    }
}

/// Connection A of `durable_stream`: pipelined windows of single-seed
/// keyed releases; one window is one caller-visible call.
fn pipelined(client: &mut Client, ctx: Conn, window: usize, log: &mut ConnLog) {
    let Conn {
        dep,
        seed,
        sched,
        rec,
        quiesce,
    } = ctx;
    let t = &dep.targets[0];
    let mut rng = inputs::stream(seed, 200);
    let mut i = 0usize;
    let mut w = 0usize;
    while Instant::now() < sched.end {
        quiesce.checkpoint();
        let batch: Vec<KeyedRelease> = (0..window)
            .map(|j| KeyedRelease {
                request_id: format!("{seed:x}-a{}", i + j),
                seeds: vec![rng.gen()],
            })
            .collect();
        let start = Instant::now();
        let result = client.release_pipelined(&t.tenant, &t.handle, &batch);
        let end = Instant::now();
        let ok = matches!(&result, Ok(r) if r.len() == window && r.iter().all(|x| x.len() == 1));
        let mut wires = match result {
            Ok(r) if ok => r.iter().map(|x| Some(rendered(x))).collect(),
            Ok(_) => vec![None; window],
            Err(e) => {
                log.fail(e);
                vec![None; window]
            }
        };
        let releases = if ok { window as u32 } else { 0 };
        log.note(
            &sched,
            rec,
            Call {
                op: Op::Release,
                start,
                end,
                releases,
                ok,
            },
            "wire.window",
            &format!("{seed:x}-w{w}"),
        );
        for (j, r) in batch.into_iter().enumerate() {
            log.sent.push(Sent {
                target: 0,
                request_id: r.request_id,
                seeds: r.seeds,
                current: false,
                cells_before: 0,
                wire: (i + j)
                    .is_multiple_of(SAMPLE_EVERY)
                    .then(|| wires[j].take())
                    .flatten(),
            });
        }
        i += window;
        w += 1;
    }
}

/// Connection B of `durable_stream`: a continual-release publisher —
/// `burst` uncharged ingests, then one keyed `release_current`.
fn publisher(client: &mut Client, ctx: Conn, burst: usize, log: &mut ConnLog) {
    let Conn {
        dep,
        seed,
        sched,
        rec,
        quiesce,
    } = ctx;
    let t = &dep.targets[1];
    let mut rng = inputs::stream(seed, 300);
    let mut i = 0usize;
    while Instant::now() < sched.end {
        for _ in 0..burst {
            quiesce.checkpoint();
            let cell = rng.gen_range(0..1u64 << dp_data::nltcs::NLTCS_ATTRIBUTES);
            let start = Instant::now();
            let result = client.ingest(&t.tenant, &t.handle, cell, 1.0);
            let end = Instant::now();
            let ok = result.is_ok();
            if let Err(e) = result {
                log.fail(e);
            } else {
                log.cells.push(cell);
            }
            let id = format!("{seed:x}-i{}", log.cells.len());
            log.note(
                &sched,
                rec,
                Call {
                    op: Op::Ingest,
                    start,
                    end,
                    releases: 0,
                    ok,
                },
                "wire.ingest",
                &id,
            );
        }
        quiesce.checkpoint();
        let seeds = vec![rng.gen()];
        let id = format!("{seed:x}-b{i}");
        let start = Instant::now();
        let result = client.release_current(&t.tenant, &t.handle, &seeds, Some(&id));
        let end = Instant::now();
        let ok = matches!(&result, Ok(r) if r.len() == 1);
        let wire = match result {
            Ok(r) => Some(rendered(&r)),
            Err(e) => {
                log.fail(e);
                None
            }
        };
        let releases = u32::from(ok);
        log.note(
            &sched,
            rec,
            Call {
                op: Op::Release,
                start,
                end,
                releases,
                ok,
            },
            "wire.release_current",
            &id,
        );
        log.sent.push(Sent {
            target: 1,
            request_id: id,
            seeds,
            current: true,
            cells_before: log.cells.len(),
            wire,
        });
        i += 1;
    }
}

/// Checks the run's outputs against in-process recomputation. Returns one
/// message per violation (failed calls are counted by the caller).
pub fn gates(
    workload: Workload,
    inputs: &Inputs,
    dep: &Deployment,
    logs: &[ConnLog],
) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();

    // One charge per keyed release id, per tenant.
    let mut client = Client::connect(&dep.addr).map_err(err)?;
    let mut tenants: Vec<&str> = dep.targets.iter().map(|t| t.tenant.as_str()).collect();
    tenants.dedup();
    for tenant in tenants {
        let ids = logs
            .iter()
            .flat_map(|l| &l.sent)
            .filter(|s| dep.targets[s.target].tenant == tenant)
            .count();
        let charges = client.budget_status(tenant).map_err(err)?.charges;
        if charges != ids {
            violations.push(format!(
                "{tenant}: {charges} charges for {ids} keyed release ids"
            ));
        }
    }

    // Wire bytes equal the in-process rendering of the same seeds.
    let mut sessions: Vec<Option<OwnedSession>> = Vec::new();
    for (i, _) in dep.targets.iter().enumerate() {
        let plan = dep.plan(i)?;
        sessions.push(match (workload, i) {
            (Workload::RangeEngine, _) => {
                Some(OwnedSession::bind_histogram(plan, &inputs.hist).map_err(err)?)
            }
            (Workload::DurableStream, 1) => None,
            _ => Some(OwnedSession::bind(plan, &inputs.table).map_err(err)?),
        });
    }
    let local = |s: &Sent| -> Result<Vec<String>, String> {
        let session = sessions[s.target]
            .as_ref()
            .expect("session targets are bound");
        Ok(session
            .release_batch(&s.seeds)
            .map_err(err)?
            .iter()
            .map(|r| render_line(&session_release_to_value(r)))
            .collect())
    };
    let mut compared = 0usize;
    for s in logs.iter().flat_map(|l| &l.sent).filter(|s| !s.current) {
        if let Some(wire) = &s.wire {
            compared += 1;
            if *wire != local(s)? {
                violations.push(format!(
                    "{}: wire bytes differ from in-process release",
                    s.request_id
                ));
            }
        }
    }
    if compared == 0 && !logs.iter().all(|l| l.sent.iter().all(|s| s.current)) {
        violations.push("no release was sampled for the byte-identity gate".into());
    }

    // The last stream release equals a local replay of the same ingests.
    if workload == Workload::DurableStream {
        let last = logs[1].sent.iter().rev().find(|s| s.wire.is_some());
        match last {
            None => violations.push("the publisher made no release_current".into()),
            Some(s) => {
                let mut stream = StreamingSession::empty(dep.plan(1)?).map_err(err)?;
                for &cell in &logs[1].cells[..s.cells_before] {
                    stream.ingest_count(cell, 1.0).map_err(err)?;
                }
                let expect: Vec<String> = stream
                    .release_batch(&s.seeds)
                    .map_err(err)?
                    .iter()
                    .map(|r| render_line(&session_release_to_value(r)))
                    .collect();
                if s.wire.as_ref() != Some(&expect) {
                    violations.push(format!(
                        "{}: stream release differs from a local replay of {} ingests",
                        s.request_id, s.cells_before
                    ));
                }
            }
        }
    }
    Ok(violations)
}
