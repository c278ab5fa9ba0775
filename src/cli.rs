//! Command-line interface for the `datacube-dp` binary.
//!
//! The argument grammar is deliberately small and hand-parsed (no external
//! dependency):
//!
//! ```text
//! datacube-dp release --dataset adult|nltcs --workload q1|q1star|q1a|q2|q2star|q2a
//!                     --strategy f|q|c|i --budgets uniform|optimal
//!                     --epsilon <f64> [--delta <f64>] [--seed <u64>] [--batch <n>]
//!                     [--nonnegative] [--output <path>]
//! datacube-dp plan    --dataset adult|nltcs --workload <label> --strategy f|q|c|i
//!                     --budgets uniform|optimal --epsilon <f64> [--delta <f64>]
//!                     [--output <path>]
//! datacube-dp inspect --dataset adult|nltcs
//! ```
//!
//! `release` runs through the two-phase [`dp_core::api`]: it compiles one
//! data-independent [`Plan`], binds the dataset in a [`Session`], and
//! serves `--batch N` deterministic releases (seeds `seed..seed+N`) from
//! that single plan — one budget solve for the whole batch. It prints one
//! wire release document per line
//! ([`dp_service::protocol::write_release`]), the same bytes
//! `client release` prints for the same plan, table and seeds. `plan`
//! stops after phase 1 and emits the serialized plan document, which
//! another process can load without re-solving.

use dp_core::prelude::*;

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a batch of private releases and print their wire documents.
    Release(ReleaseArgs),
    /// Compile a data-independent release plan and emit it as JSON.
    Plan(PlanArgs),
    /// Print dataset/schema statistics.
    Inspect {
        /// Dataset selector.
        dataset: DatasetArg,
    },
    /// Run the budget-metered release service.
    Serve(ServeArgs),
    /// One-shot client call against a running service.
    Client(ClientArgs),
    /// Print usage.
    Help,
}

/// Dataset selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetArg {
    /// The Adult census schema (synthetic stand-in or `data/adult.data`).
    Adult,
    /// The NLTCS disability schema (synthetic stand-in or `data/nltcs.csv`).
    Nltcs,
}

/// Arguments of the `release` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseArgs {
    /// Which dataset to release over.
    pub dataset: DatasetArg,
    /// Workload family label.
    pub workload: String,
    /// Strategy to use.
    pub strategy: StrategyKind,
    /// Budget allocation mode.
    pub budgets: Budgeting,
    /// Privacy ε.
    pub epsilon: f64,
    /// Optional δ (switches to the Gaussian mechanism).
    pub delta: Option<f64>,
    /// RNG seed of the first release; release `i` uses `seed + i`.
    pub seed: u64,
    /// Number of releases to draw from the one compiled plan; the output
    /// has one release document per seed, one per line.
    pub batch: usize,
    /// Post-process to non-negative integral marginals.
    pub nonnegative: bool,
    /// Optional output path (JSON lines).
    pub output: Option<String>,
}

/// Arguments of the `plan` subcommand (the data-independent subset of
/// [`ReleaseArgs`]: the dataset is consulted only for its schema).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// Which dataset's schema to plan against.
    pub dataset: DatasetArg,
    /// Workload family label.
    pub workload: String,
    /// Strategy to use.
    pub strategy: StrategyKind,
    /// Budget allocation mode.
    pub budgets: Budgeting,
    /// Privacy ε.
    pub epsilon: f64,
    /// Optional δ (switches to the Gaussian mechanism).
    pub delta: Option<f64>,
    /// Optional JSON output path.
    pub output: Option<String>,
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port;
    /// the resolved address is printed on stdout).
    pub addr: String,
    /// Datasets to load at startup (default: both).
    pub datasets: Vec<DatasetArg>,
    /// Optional path of the persistent budget ledger (write-ahead JSON
    /// lines); without it budgets reset with the process.
    pub ledger: Option<String>,
    /// Admin bearer token; switches the service to the operator auth
    /// policy (tenant ops need per-tenant tokens, `open`/`shutdown` need
    /// this token). Without it the server trusts every peer.
    pub admin_token: Option<String>,
    /// Optional service-wide ε cap across *all* tenants (the per-dataset
    /// global ledger).
    pub global_epsilon: Option<f64>,
    /// Optional service-wide δ cap (requires `--global-epsilon`).
    pub global_delta: Option<f64>,
    /// Cap on concurrently served connections; excess connections are
    /// shed in-band with the retryable `overloaded` error.
    pub max_connections: Option<usize>,
    /// Cap on concurrently in-flight releases *per tenant*; excess
    /// releases are shed the same way.
    pub max_inflight: Option<usize>,
}

/// One-shot client operations (the `client` subcommand).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// `open`: create the tenant's budget ledger.
    Open {
        /// Tenant name.
        tenant: String,
        /// Total ε allowance.
        epsilon: f64,
        /// Optional total δ allowance.
        delta: Option<f64>,
        /// Bearer token to install for the tenant (required when the
        /// server runs the operator auth policy).
        token: Option<String>,
    },
    /// `register`: have the server compile + register a plan.
    Register {
        /// Tenant name.
        tenant: String,
        /// Which dataset's schema to plan against.
        dataset: DatasetArg,
        /// Workload family label.
        workload: String,
        /// Strategy to use.
        strategy: StrategyKind,
        /// Budget allocation mode.
        budgets: Budgeting,
        /// Per-release privacy ε.
        epsilon: f64,
        /// Optional per-release δ.
        delta: Option<f64>,
    },
    /// `bind`: bind a registered plan to a loaded table.
    Bind {
        /// Tenant name.
        tenant: String,
        /// Plan id returned by `register`.
        plan: String,
        /// Loaded table name (`adult` or `nltcs`).
        table: String,
    },
    /// `release`: draw a batch of deterministic releases.
    Release {
        /// Tenant name.
        tenant: String,
        /// Session id returned by `bind`.
        session: String,
        /// Seed of the first release; release `i` uses `seed + i`.
        seed: u64,
        /// Number of releases (seeds `seed..seed+batch`).
        batch: usize,
        /// Explicit idempotency key. Re-running the command with the same
        /// key (after a timeout, crash, or server restart) returns the
        /// originally charged release without debiting again; without it
        /// a fresh key is minted per run.
        request_id: Option<String>,
    },
    /// `stream-open`: open (or re-open) a streaming session over a
    /// registered plan. Idempotent and non-destructive: reopening keeps
    /// every delta already ingested.
    StreamOpen {
        /// Tenant name.
        tenant: String,
        /// Plan id returned by `register`.
        plan: String,
        /// Optional loaded table seeding the stream (`adult` or `nltcs`);
        /// without it the stream starts empty.
        table: Option<String>,
    },
    /// `ingest`: push one record-level delta into a stream (uncharged).
    Ingest {
        /// Tenant name.
        tenant: String,
        /// Stream id returned by `stream-open`.
        stream: String,
        /// Flat cell index of the affected record.
        cell: u64,
        /// Count delta at that cell (negative retracts; default 1).
        delta: f64,
    },
    /// `release-current`: draw a charged release of the stream's current
    /// state — one iteration of the continual-release loop.
    ReleaseCurrent {
        /// Tenant name.
        tenant: String,
        /// Stream id returned by `stream-open`.
        stream: String,
        /// Seed of the first release; release `i` uses `seed + i`.
        seed: u64,
        /// Number of releases (seeds `seed..seed+batch`).
        batch: usize,
        /// Explicit idempotency key: re-running the command with the same
        /// key replays the originally charged bytes without debiting
        /// again, which is what a crashed publisher re-drives.
        request_id: Option<String>,
    },
    /// `status`: print the tenant's budget position.
    Status {
        /// Tenant name.
        tenant: String,
    },
    /// `ping`: liveness check; prints the server's loaded tables.
    Ping,
    /// `shutdown`: stop the server cleanly.
    Shutdown,
}

/// Arguments of the `client` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Address of the running service.
    pub addr: String,
    /// Bearer credential sent with every request (a tenant token, or the
    /// admin token for `open`/`shutdown`).
    pub auth: Option<String>,
    /// Socket deadline in milliseconds applied to connect/read/write
    /// (default 30000; 0 disables the deadlines). Finite by default so a
    /// wedged server can never hang the CLI forever.
    pub timeout_ms: u64,
    /// Retries after the first attempt for idempotent requests
    /// (default 4; 0 disables retrying).
    pub retries: u32,
    /// The operation to perform.
    pub op: ClientOp,
}

/// CLI parse errors, rendered to the user verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
datacube-dp — differentially private release of datacubes and marginals

USAGE:
  datacube-dp release --dataset <adult|nltcs> --workload <q1|q1star|q1a|q2|q2star|q2a>
                      --strategy <f|q|c|i> --budgets <uniform|optimal>
                      --epsilon <f64> [--delta <f64>] [--seed <u64>] [--batch <n>]
                      [--nonnegative] [--output <path.jsonl>]
  datacube-dp plan    --dataset <adult|nltcs> --workload <label> --strategy <f|q|c|i>
                      --budgets <uniform|optimal> --epsilon <f64> [--delta <f64>]
                      [--output <path.json>]
  datacube-dp inspect --dataset <adult|nltcs>
  datacube-dp serve   --addr <host:port> [--dataset <adult|nltcs>]...
                      [--ledger <path.jsonl>]
                      [--admin-token <secret>]
                      [--global-epsilon <f64> [--global-delta <f64>]]
                      [--max-connections <n>] [--max-inflight <n>]
  datacube-dp client  --addr <host:port> [--auth <token>]
                      [--timeout-ms <u64>] [--retries <n>] <op> [op flags]
      open     --tenant <t> --epsilon <f64> [--delta <f64>] [--token <secret>]
      register --tenant <t> --dataset <adult|nltcs> --workload <label>
               --strategy <f|q|c|i> [--budgets <uniform|optimal>]
               --epsilon <f64> [--delta <f64>]
      bind     --tenant <t> --plan <id> --table <adult|nltcs>
      release  --tenant <t> --session <id> [--seed <u64>] [--batch <n>]
               [--request-id <id>]
      stream-open     --tenant <t> --plan <id> [--table <adult|nltcs>]
      ingest          --tenant <t> --stream <id> --cell <u64> [--delta <f64>]
      release-current --tenant <t> --stream <id> [--seed <u64>] [--batch <n>]
                      [--request-id <id>]
      status   --tenant <t>
      ping | shutdown
  datacube-dp help

`release` compiles one data-independent plan, binds the dataset, and draws
--batch deterministic releases (seeds seed..seed+batch) from it; it prints
one wire release document per line, the same bytes `client release` prints.
`plan` stops after compilation and emits the serialized plan document.
`serve` runs the budget-metered multi-tenant release service (JSON lines
over TCP; with --ledger, spent budget survives restarts — records are
group-committed, one fsync per batch of concurrent requests).
--admin-token switches it to the operator auth policy: `open`/`shutdown`
need --auth set to the admin token, `open` installs the tenant's --token,
and tenant ops need --auth set to that tenant token; without --admin-token
every peer is trusted (loopback/dev only). --global-epsilon adds a service-wide budget
cap across all tenants. --max-connections / --max-inflight bound concurrent
connections and per-tenant in-flight releases; excess load is shed with the
retryable `overloaded` error. `client` performs one service call and prints
the response; socket deadlines are finite by default (--timeout-ms 30000,
0 disables them) and idempotent calls are retried --retries times with
backoff. `client release --request-id` pins the idempotency key, so
re-running the exact command after a timeout or crash returns the already
charged release instead of debiting again.
`client stream-open` opens a per-tenant streaming session (optionally
seeded from a loaded table; reopening never resets it), `ingest` pushes one
uncharged record-level delta (O(Δ) — no rebind), and `release-current`
draws a charged release of the stream's current state; with --request-id it
is idempotent like `release`, so a crashed publisher re-drives its id
schedule and is charged exactly once per id.
";

fn parse_dataset(v: &str) -> Result<DatasetArg, CliError> {
    match v {
        "adult" => Ok(DatasetArg::Adult),
        "nltcs" => Ok(DatasetArg::Nltcs),
        other => Err(CliError(format!("unknown dataset {other:?} (adult|nltcs)"))),
    }
}

fn parse_strategy(v: &str) -> Result<StrategyKind, CliError> {
    match v {
        "f" | "fourier" => Ok(StrategyKind::Fourier),
        "q" | "workload" => Ok(StrategyKind::Workload),
        "c" | "cluster" => Ok(StrategyKind::Cluster),
        "i" | "identity" => Ok(StrategyKind::Identity),
        other => Err(CliError(format!("unknown strategy {other:?} (f|q|c|i)"))),
    }
}

fn parse_budgets(v: &str) -> Result<Budgeting, CliError> {
    match v {
        "uniform" => Ok(Budgeting::Uniform),
        "optimal" => Ok(Budgeting::Optimal),
        other => Err(CliError(format!(
            "unknown budgeting {other:?} (uniform|optimal)"
        ))),
    }
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "inspect" => {
            let mut dataset = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dataset" => {
                        let v = it
                            .next()
                            .ok_or(CliError("--dataset needs a value".into()))?;
                        dataset = Some(parse_dataset(v)?);
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Inspect {
                dataset: dataset.ok_or(CliError("inspect requires --dataset".into()))?,
            })
        }
        "serve" => {
            let mut addr = None;
            let mut datasets = Vec::new();
            let mut ledger = None;
            let mut admin_token = None;
            let mut global_epsilon = None;
            let mut global_delta = None;
            let mut max_connections = None;
            let mut max_inflight = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, CliError> {
                    it.next().ok_or(CliError(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--addr" => addr = Some(value("--addr")?.clone()),
                    "--dataset" => {
                        let d = parse_dataset(value("--dataset")?)?;
                        if !datasets.contains(&d) {
                            datasets.push(d);
                        }
                    }
                    "--ledger" => ledger = Some(value("--ledger")?.clone()),
                    "--admin-token" => admin_token = Some(value("--admin-token")?.clone()),
                    "--global-epsilon" => {
                        global_epsilon = Some(
                            value("--global-epsilon")?
                                .parse::<f64>()
                                .map_err(|e| CliError(format!("bad --global-epsilon: {e}")))?,
                        )
                    }
                    "--global-delta" => {
                        global_delta = Some(
                            value("--global-delta")?
                                .parse::<f64>()
                                .map_err(|e| CliError(format!("bad --global-delta: {e}")))?,
                        )
                    }
                    "--max-connections" => {
                        max_connections = Some(
                            value("--max-connections")?
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or(CliError(
                                    "bad --max-connections: need an integer ≥ 1".into(),
                                ))?,
                        )
                    }
                    "--max-inflight" => {
                        max_inflight = Some(
                            value("--max-inflight")?
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or(CliError(
                                    "bad --max-inflight: need an integer ≥ 1".into(),
                                ))?,
                        )
                    }
                    other => return Err(CliError(format!("unknown flag {other:?} for serve"))),
                }
            }
            if datasets.is_empty() {
                datasets = vec![DatasetArg::Adult, DatasetArg::Nltcs];
            }
            if global_delta.is_some() && global_epsilon.is_none() {
                return Err(CliError("--global-delta requires --global-epsilon".into()));
            }
            Ok(Command::Serve(ServeArgs {
                addr: addr.ok_or(CliError("serve requires --addr".into()))?,
                datasets,
                ledger,
                admin_token,
                global_epsilon,
                global_delta,
                max_connections,
                max_inflight,
            }))
        }
        "client" => parse_client(&args[1..]),
        "release" | "plan" => {
            let is_plan = sub == "plan";
            let mut dataset = None;
            let mut workload = None;
            let mut strategy = None;
            let mut budgets = Budgeting::Optimal;
            let mut epsilon = None;
            let mut delta = None;
            let mut seed = 42u64;
            let mut batch = 1usize;
            let mut nonnegative = false;
            let mut output = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, CliError> {
                    it.next().ok_or(CliError(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--dataset" => dataset = Some(parse_dataset(value("--dataset")?)?),
                    "--workload" => workload = Some(value("--workload")?.clone()),
                    "--strategy" => strategy = Some(parse_strategy(value("--strategy")?)?),
                    "--budgets" => budgets = parse_budgets(value("--budgets")?)?,
                    "--epsilon" => {
                        epsilon = Some(
                            value("--epsilon")?
                                .parse::<f64>()
                                .map_err(|e| CliError(format!("bad --epsilon: {e}")))?,
                        )
                    }
                    "--delta" => {
                        delta = Some(
                            value("--delta")?
                                .parse::<f64>()
                                .map_err(|e| CliError(format!("bad --delta: {e}")))?,
                        )
                    }
                    "--seed" if !is_plan => {
                        seed = value("--seed")?
                            .parse::<u64>()
                            .map_err(|e| CliError(format!("bad --seed: {e}")))?
                    }
                    "--batch" if !is_plan => {
                        batch = value("--batch")?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or(CliError("bad --batch: need an integer ≥ 1".into()))?
                    }
                    "--nonnegative" if !is_plan => nonnegative = true,
                    "--output" => output = Some(value("--output")?.clone()),
                    other => return Err(CliError(format!("unknown flag {other:?} for {sub}"))),
                }
            }
            let dataset = dataset.ok_or(CliError(format!("{sub} requires --dataset")))?;
            let workload = workload.ok_or(CliError(format!("{sub} requires --workload")))?;
            let strategy = strategy.ok_or(CliError(format!("{sub} requires --strategy")))?;
            let epsilon = epsilon.ok_or(CliError(format!("{sub} requires --epsilon")))?;
            if is_plan {
                Ok(Command::Plan(PlanArgs {
                    dataset,
                    workload,
                    strategy,
                    budgets,
                    epsilon,
                    delta,
                    output,
                }))
            } else {
                Ok(Command::Release(ReleaseArgs {
                    dataset,
                    workload,
                    strategy,
                    budgets,
                    epsilon,
                    delta,
                    seed,
                    batch,
                    nonnegative,
                    output,
                }))
            }
        }
        other => Err(CliError(format!("unknown subcommand {other:?}"))),
    }
}

/// Parses the `client` subcommand: `--addr <a>` plus one op keyword and
/// its flags, in any order.
fn parse_client(args: &[String]) -> Result<Command, CliError> {
    let mut addr = None;
    let mut auth = None;
    let mut token = None;
    let mut op_name: Option<&str> = None;
    let mut tenant = None;
    let mut dataset = None;
    let mut workload = None;
    let mut strategy = None;
    let mut budgets = Budgeting::Optimal;
    let mut epsilon = None;
    let mut delta = None;
    let mut plan = None;
    let mut table = None;
    let mut session = None;
    let mut stream = None;
    let mut cell = None;
    let mut seed = 42u64;
    let mut batch = 1usize;
    let mut request_id = None;
    let mut timeout_ms = 30_000u64;
    let mut retries = 4u32;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next().ok_or(CliError(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?.clone()),
            "--auth" => auth = Some(value("--auth")?.clone()),
            "--token" => token = Some(value("--token")?.clone()),
            "--tenant" => tenant = Some(value("--tenant")?.clone()),
            "--dataset" => dataset = Some(parse_dataset(value("--dataset")?)?),
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--strategy" => strategy = Some(parse_strategy(value("--strategy")?)?),
            "--budgets" => budgets = parse_budgets(value("--budgets")?)?,
            "--epsilon" => {
                epsilon = Some(
                    value("--epsilon")?
                        .parse::<f64>()
                        .map_err(|e| CliError(format!("bad --epsilon: {e}")))?,
                )
            }
            "--delta" => {
                delta = Some(
                    value("--delta")?
                        .parse::<f64>()
                        .map_err(|e| CliError(format!("bad --delta: {e}")))?,
                )
            }
            "--plan" => plan = Some(value("--plan")?.clone()),
            "--table" => table = Some(value("--table")?.clone()),
            "--session" => session = Some(value("--session")?.clone()),
            "--stream" => stream = Some(value("--stream")?.clone()),
            "--cell" => {
                cell = Some(
                    value("--cell")?
                        .parse::<u64>()
                        .map_err(|e| CliError(format!("bad --cell: {e}")))?,
                )
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|e| CliError(format!("bad --seed: {e}")))?
            }
            "--batch" => {
                batch = value("--batch")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(CliError("bad --batch: need an integer ≥ 1".into()))?
            }
            "--request-id" => request_id = Some(value("--request-id")?.clone()),
            "--timeout-ms" => {
                timeout_ms = value("--timeout-ms")?
                    .parse::<u64>()
                    .map_err(|e| CliError(format!("bad --timeout-ms: {e}")))?
            }
            "--retries" => {
                retries = value("--retries")?
                    .parse::<u32>()
                    .map_err(|e| CliError(format!("bad --retries: {e}")))?
            }
            other if !other.starts_with("--") && op_name.is_none() => op_name = Some(other),
            other => return Err(CliError(format!("unknown flag {other:?} for client"))),
        }
    }

    let addr = addr.ok_or(CliError("client requires --addr".into()))?;
    let need_tenant =
        |t: Option<String>, op: &str| t.ok_or(CliError(format!("client {op} requires --tenant")));
    let op = match op_name.ok_or(CliError(
        "client requires an operation (open|register|bind|release|stream-open|ingest|release-current|status|ping|shutdown)"
            .into(),
    ))? {
        "open" => ClientOp::Open {
            tenant: need_tenant(tenant, "open")?,
            epsilon: epsilon.ok_or(CliError("client open requires --epsilon".into()))?,
            delta,
            token,
        },
        "register" => ClientOp::Register {
            tenant: need_tenant(tenant, "register")?,
            dataset: dataset.ok_or(CliError("client register requires --dataset".into()))?,
            workload: workload.ok_or(CliError("client register requires --workload".into()))?,
            strategy: strategy.ok_or(CliError("client register requires --strategy".into()))?,
            budgets,
            epsilon: epsilon.ok_or(CliError("client register requires --epsilon".into()))?,
            delta,
        },
        "bind" => ClientOp::Bind {
            tenant: need_tenant(tenant, "bind")?,
            plan: plan.ok_or(CliError("client bind requires --plan".into()))?,
            table: table.ok_or(CliError("client bind requires --table".into()))?,
        },
        "release" => ClientOp::Release {
            tenant: need_tenant(tenant, "release")?,
            session: session.ok_or(CliError("client release requires --session".into()))?,
            seed,
            batch,
            request_id,
        },
        "stream-open" => ClientOp::StreamOpen {
            tenant: need_tenant(tenant, "stream-open")?,
            plan: plan.ok_or(CliError("client stream-open requires --plan".into()))?,
            table,
        },
        "ingest" => ClientOp::Ingest {
            tenant: need_tenant(tenant, "ingest")?,
            stream: stream.ok_or(CliError("client ingest requires --stream".into()))?,
            cell: cell.ok_or(CliError("client ingest requires --cell".into()))?,
            delta: delta.unwrap_or(1.0),
        },
        "release-current" => ClientOp::ReleaseCurrent {
            tenant: need_tenant(tenant, "release-current")?,
            stream: stream.ok_or(CliError("client release-current requires --stream".into()))?,
            seed,
            batch,
            request_id,
        },
        "status" => ClientOp::Status {
            tenant: need_tenant(tenant, "status")?,
        },
        "ping" => ClientOp::Ping,
        "shutdown" => ClientOp::Shutdown,
        other => return Err(CliError(format!("unknown client operation {other:?}"))),
    };
    Ok(Command::Client(ClientArgs {
        addr,
        auth,
        timeout_ms,
        retries,
        op,
    }))
}

/// Builds the workload for a label over a schema.
pub fn build_workload(schema: &Schema, label: &str) -> Result<Workload, CliError> {
    let parse = |s: &str| -> Result<usize, CliError> {
        s.parse::<usize>()
            .map_err(|_| CliError(format!("bad workload label {label:?}")))
    };
    let res = if let Some(k) = label.strip_prefix('q').and_then(|r| r.strip_suffix("star")) {
        Workload::k_way_plus_half(schema, parse(k)?)
    } else if let Some(k) = label.strip_prefix('q').and_then(|r| r.strip_suffix('a')) {
        Workload::k_way_plus_attr(schema, parse(k)?, 0)
    } else if let Some(k) = label.strip_prefix('q') {
        Workload::all_k_way(schema, parse(k)?)
    } else {
        return Err(CliError(format!(
            "bad workload label {label:?} (q<k>, q<k>star, q<k>a)"
        )));
    };
    res.map_err(|e| CliError(format!("workload construction failed: {e}")))
}

/// The canonical table name of a dataset (used as the service's data
/// store key and in `client bind --table`).
pub fn dataset_name(dataset: DatasetArg) -> &'static str {
    match dataset {
        DatasetArg::Adult => "adult",
        DatasetArg::Nltcs => "nltcs",
    }
}

/// The dataset's schema alone — all `plan` needs, since plans are
/// data-independent.
pub fn dataset_schema(dataset: DatasetArg) -> Schema {
    match dataset {
        DatasetArg::Adult => dp_data::adult_schema(),
        DatasetArg::Nltcs => dp_data::nltcs_schema(),
    }
}

/// Builds the privacy level from ε and the optional δ.
pub fn privacy_level(epsilon: f64, delta: Option<f64>) -> PrivacyLevel {
    match delta {
        None => PrivacyLevel::Pure { epsilon },
        Some(delta) => PrivacyLevel::Approx { epsilon, delta },
    }
}

/// Compiles the data-independent plan for a parsed workload request.
pub fn compile_plan(
    schema: &Schema,
    workload: Workload,
    strategy: StrategyKind,
    budgets: Budgeting,
    privacy: PrivacyLevel,
) -> Result<Plan, CliError> {
    PlanBuilder::marginals(workload, strategy)
        .budgeting(budgets)
        .privacy(privacy)
        .for_schema(schema)
        .compile()
        .map_err(|e| CliError(format!("plan compilation failed: {e}")))
}

/// Loads the dataset's schema and contingency table.
pub fn load_dataset(
    dataset: DatasetArg,
    seed: u64,
) -> Result<(Schema, ContingencyTable), CliError> {
    let (schema, records) = match dataset {
        DatasetArg::Adult => {
            let schema = dp_data::adult_schema();
            let (records, _) = dp_data::csv::adult_records_or_synthetic(
                std::path::Path::new("data/adult.data"),
                seed,
            )
            .map_err(|e| CliError(format!("loading adult: {e}")))?;
            (schema, records)
        }
        DatasetArg::Nltcs => {
            let schema = dp_data::nltcs_schema();
            let (records, _) = dp_data::csv::nltcs_records_or_synthetic(
                std::path::Path::new("data/nltcs.csv"),
                seed,
            )
            .map_err(|e| CliError(format!("loading nltcs: {e}")))?;
            (schema, records)
        }
    };
    let table = ContingencyTable::from_records(&schema, &records)
        .map_err(|e| CliError(format!("building table: {e}")))?;
    Ok((schema, table))
}

/// Serializes a compiled plan as its shippable JSON document.
pub fn plan_to_json(plan: &Plan) -> String {
    serde_json::to_string_pretty(plan).expect("plan serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn full_release_command() {
        let cmd = parse_args(&sv(&[
            "release",
            "--dataset",
            "nltcs",
            "--workload",
            "q2",
            "--strategy",
            "f",
            "--budgets",
            "optimal",
            "--epsilon",
            "0.5",
            "--seed",
            "9",
            "--batch",
            "4",
            "--nonnegative",
            "--output",
            "out.json",
        ]))
        .unwrap();
        let Command::Release(a) = cmd else {
            panic!("expected release");
        };
        assert_eq!(a.dataset, DatasetArg::Nltcs);
        assert_eq!(a.workload, "q2");
        assert_eq!(a.strategy, StrategyKind::Fourier);
        assert_eq!(a.budgets, Budgeting::Optimal);
        assert_eq!(a.epsilon, 0.5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.batch, 4);
        assert!(a.nonnegative);
        assert_eq!(a.output.as_deref(), Some("out.json"));
        assert_eq!(a.delta, None);
    }

    #[test]
    fn plan_command_parses_and_rejects_release_only_flags() {
        let cmd = parse_args(&sv(&[
            "plan",
            "--dataset",
            "adult",
            "--workload",
            "q1",
            "--strategy",
            "c",
            "--budgets",
            "uniform",
            "--epsilon",
            "2.0",
            "--delta",
            "1e-6",
            "--output",
            "plan.json",
        ]))
        .unwrap();
        let Command::Plan(a) = cmd else {
            panic!("expected plan");
        };
        assert_eq!(a.dataset, DatasetArg::Adult);
        assert_eq!(a.strategy, StrategyKind::Cluster);
        assert_eq!(a.budgets, Budgeting::Uniform);
        assert_eq!(a.delta, Some(1e-6));
        assert_eq!(a.output.as_deref(), Some("plan.json"));
        // Seeds/batches belong to `release`, not the data-independent plan.
        assert!(parse_args(&sv(&["plan", "--seed", "1"])).is_err());
        assert!(parse_args(&sv(&["plan", "--batch", "2"])).is_err());
        assert!(parse_args(&sv(&["release", "--batch", "0"])).is_err());
    }

    #[test]
    fn plan_json_document_roundtrips() {
        let schema = dataset_schema(DatasetArg::Nltcs);
        let w = build_workload(&schema, "q1").unwrap();
        let plan = compile_plan(
            &schema,
            w,
            StrategyKind::Fourier,
            Budgeting::Optimal,
            privacy_level(0.5, None),
        )
        .unwrap();
        let doc = plan_to_json(&plan);
        let back: Plan = serde_json::from_str(&doc).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn serve_command_parses() {
        let cmd = parse_args(&sv(&["serve", "--addr", "127.0.0.1:0"])).unwrap();
        let Command::Serve(a) = cmd else {
            panic!("expected serve");
        };
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.datasets, vec![DatasetArg::Adult, DatasetArg::Nltcs]);
        assert_eq!(a.ledger, None);
        assert_eq!(a.admin_token, None);
        assert_eq!(a.global_epsilon, None);

        let cmd = parse_args(&sv(&[
            "serve",
            "--addr",
            "0.0.0.0:7878",
            "--dataset",
            "nltcs",
            "--dataset",
            "nltcs",
            "--ledger",
            "budget.jsonl",
            "--admin-token",
            "s3cret",
            "--global-epsilon",
            "8.0",
            "--global-delta",
            "1e-6",
        ]))
        .unwrap();
        let Command::Serve(a) = cmd else {
            panic!("expected serve");
        };
        assert_eq!(a.datasets, vec![DatasetArg::Nltcs], "duplicates collapse");
        assert_eq!(a.ledger.as_deref(), Some("budget.jsonl"));
        assert_eq!(a.admin_token.as_deref(), Some("s3cret"));
        assert_eq!(a.global_epsilon, Some(8.0));
        assert_eq!(a.global_delta, Some(1e-6));
        assert_eq!(a.max_connections, None);
        assert_eq!(a.max_inflight, None);

        let Command::Serve(a) = parse_args(&sv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-connections",
            "64",
            "--max-inflight",
            "2",
        ]))
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(a.max_connections, Some(64));
        assert_eq!(a.max_inflight, Some(2));
        assert!(parse_args(&sv(&["serve", "--addr", "x", "--max-connections", "0"])).is_err());
        assert!(parse_args(&sv(&["serve", "--addr", "x", "--max-inflight", "no"])).is_err());

        // The retired WAL sync-mode flag, spelled in two pieces so a search
        // of the tree for its name turns up no live use.
        let retired = concat!("--wal-", "sync");
        let err = parse_args(&sv(&["serve", "--addr", "x", retired, "group"])).unwrap_err();
        assert!(
            err.0.contains(&format!("unknown flag {retired:?}")),
            "{}",
            err.0
        );

        assert!(parse_args(&sv(&["serve"])).is_err());
        assert!(parse_args(&sv(&["serve", "--addr", "x", "--json"])).is_err());
        assert!(
            parse_args(&sv(&["serve", "--addr", "x", "--global-delta", "1e-6"])).is_err(),
            "--global-delta without --global-epsilon"
        );
    }

    #[test]
    fn client_command_parses_every_op() {
        let base = ["client", "--addr", "127.0.0.1:7878"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            parse_args(&sv(&v))
        };

        let Command::Client(a) = with(&["open", "--tenant", "t", "--epsilon", "1.5"]).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert_eq!(a.auth, None);
        assert_eq!(
            a.op,
            ClientOp::Open {
                tenant: "t".into(),
                epsilon: 1.5,
                delta: None,
                token: None
            }
        );

        let Command::Client(a) = with(&[
            "--auth",
            "admin",
            "open",
            "--tenant",
            "t",
            "--epsilon",
            "1.5",
            "--token",
            "tok",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(a.auth.as_deref(), Some("admin"));
        assert_eq!(
            a.op,
            ClientOp::Open {
                tenant: "t".into(),
                epsilon: 1.5,
                delta: None,
                token: Some("tok".into())
            }
        );

        let Command::Client(a) = with(&[
            "register",
            "--tenant",
            "t",
            "--dataset",
            "nltcs",
            "--workload",
            "q1",
            "--strategy",
            "f",
            "--epsilon",
            "0.5",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert!(matches!(
            a.op,
            ClientOp::Register {
                budgets: Budgeting::Optimal,
                ..
            }
        ));

        let Command::Client(a) = with(&[
            "release",
            "--tenant",
            "t",
            "--session",
            "s",
            "--seed",
            "7",
            "--batch",
            "3",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(
            a.op,
            ClientOp::Release {
                tenant: "t".into(),
                session: "s".into(),
                seed: 7,
                batch: 3,
                request_id: None
            }
        );
        assert_eq!(a.timeout_ms, 30_000, "deadlines default finite");
        assert_eq!(a.retries, 4);

        assert!(matches!(
            with(&["ping"]).unwrap(),
            Command::Client(ClientArgs {
                op: ClientOp::Ping,
                ..
            })
        ));
        assert!(matches!(
            with(&["shutdown"]).unwrap(),
            Command::Client(ClientArgs {
                op: ClientOp::Shutdown,
                ..
            })
        ));

        let Command::Client(a) = with(&[
            "--timeout-ms",
            "250",
            "--retries",
            "0",
            "release",
            "--tenant",
            "t",
            "--session",
            "s",
            "--request-id",
            "retry-0007",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(a.timeout_ms, 250);
        assert_eq!(a.retries, 0);
        assert!(matches!(
            a.op,
            ClientOp::Release { ref request_id, .. } if request_id.as_deref() == Some("retry-0007")
        ));
        assert!(with(&["--timeout-ms", "soon", "ping"]).is_err());
        assert!(with(&["--retries", "-1", "ping"]).is_err());

        // Missing pieces are reported.
        assert!(with(&["open", "--tenant", "t"]).is_err());
        assert!(with(&["bind", "--tenant", "t"]).is_err());
        assert!(with(&["status"]).is_err());
        assert!(with(&["frobnicate"]).is_err());
        assert!(parse_args(&sv(&["client", "ping"])).is_err(), "no --addr");
    }

    #[test]
    fn client_streaming_ops_parse() {
        let base = ["client", "--addr", "127.0.0.1:7878"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            parse_args(&sv(&v))
        };

        let Command::Client(a) = with(&["stream-open", "--tenant", "t", "--plan", "p1"]).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(
            a.op,
            ClientOp::StreamOpen {
                tenant: "t".into(),
                plan: "p1".into(),
                table: None
            }
        );
        let Command::Client(a) = with(&[
            "stream-open",
            "--tenant",
            "t",
            "--plan",
            "p1",
            "--table",
            "nltcs",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert!(matches!(
            a.op,
            ClientOp::StreamOpen { ref table, .. } if table.as_deref() == Some("nltcs")
        ));

        // ingest: --delta defaults to 1, negatives retract.
        let Command::Client(a) =
            with(&["ingest", "--tenant", "t", "--stream", "s", "--cell", "12"]).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(
            a.op,
            ClientOp::Ingest {
                tenant: "t".into(),
                stream: "s".into(),
                cell: 12,
                delta: 1.0
            }
        );
        let Command::Client(a) = with(&[
            "ingest", "--tenant", "t", "--stream", "s", "--cell", "12", "--delta", "-1",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert!(matches!(a.op, ClientOp::Ingest { delta, .. } if delta == -1.0));

        let Command::Client(a) = with(&[
            "release-current",
            "--tenant",
            "t",
            "--stream",
            "s",
            "--seed",
            "7",
            "--batch",
            "2",
            "--request-id",
            "epoch-3",
        ])
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(
            a.op,
            ClientOp::ReleaseCurrent {
                tenant: "t".into(),
                stream: "s".into(),
                seed: 7,
                batch: 2,
                request_id: Some("epoch-3".into())
            }
        );

        // Missing pieces are reported.
        assert!(with(&["stream-open", "--tenant", "t"]).is_err());
        assert!(with(&["ingest", "--tenant", "t", "--stream", "s"]).is_err());
        assert!(with(&["ingest", "--tenant", "t", "--stream", "s", "--cell", "x"]).is_err());
        assert!(with(&["release-current", "--tenant", "t"]).is_err());
    }

    #[test]
    fn missing_required_flags_are_reported() {
        let err = parse_args(&sv(&["release", "--dataset", "adult"])).unwrap_err();
        assert!(err.0.contains("--workload"));
        let err = parse_args(&sv(&["release", "--epsilon", "1.0"])).unwrap_err();
        assert!(err.0.contains("--dataset"));
        let err = parse_args(&sv(&["inspect"])).unwrap_err();
        assert!(err.0.contains("--dataset"));
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(parse_args(&sv(&["release", "--dataset", "census"])).is_err());
        assert!(parse_args(&sv(&["release", "--strategy", "z"])).is_err());
        assert!(parse_args(&sv(&["release", "--epsilon", "abc"])).is_err());
        assert!(parse_args(&sv(&["bogus"])).is_err());
        assert!(parse_args(&sv(&["release", "--epsilon"])).is_err());
        // Releases print one wire document per line; there is no `--json`.
        assert!(parse_args(&sv(&["release", "--json"])).is_err());
    }

    #[test]
    fn workload_labels() {
        let schema = Schema::binary(8).unwrap();
        assert_eq!(build_workload(&schema, "q1").unwrap().len(), 8);
        assert_eq!(build_workload(&schema, "q2").unwrap().len(), 28);
        assert_eq!(build_workload(&schema, "q1star").unwrap().len(), 22);
        assert_eq!(build_workload(&schema, "q1a").unwrap().len(), 15);
        assert!(build_workload(&schema, "w2").is_err());
        assert!(build_workload(&schema, "qx").is_err());
        assert!(build_workload(&schema, "q99").is_err());
    }
}
