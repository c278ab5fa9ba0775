//! Command-line interface for the `datacube-dp` binary.
//!
//! [`USAGE`] is the one statement of the argument grammar. It is
//! hand-parsed (no external dependency) by one private flag reader: each
//! subcommand, and each `client` operation, names the flags it reads; a
//! later value of a flag replaces an earlier one, and any other flag is
//! refused.
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

/// The six data-independent inputs of a marginal release plan (the
/// paper's Steps 1–2: strategy and group budgets), shared by `plan`,
/// `release` and `client register`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Which dataset's schema to plan against.
    pub dataset: DatasetArg,
    /// Workload family label.
    pub workload: String,
    /// Strategy to use.
    pub strategy: StrategyKind,
    /// Budget allocation mode.
    pub budgets: Budgeting,
    /// Per-release privacy ε.
    pub epsilon: f64,
    /// Optional per-release δ (switches to the Gaussian mechanism).
    pub delta: Option<f64>,
}

/// The seeds of a release batch: release `i` uses `seed + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedBatch {
    /// Seed of the first release.
    pub seed: u64,
    /// Number of releases (at least 1).
    pub batch: usize,
}

/// Arguments of the `release` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseArgs {
    /// The plan to compile.
    pub request: PlanRequest,
    /// The seeds to release at; the output has one release document per
    /// seed, one per line.
    pub seeds: SeedBatch,
    /// Post-process to non-negative integral marginals.
    pub nonnegative: bool,
    /// Optional output path (JSON lines).
    pub output: Option<String>,
}

/// Arguments of the `plan` subcommand (the data-independent subset of
/// [`ReleaseArgs`]: the dataset is consulted only for its schema).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// The plan to compile.
    pub request: PlanRequest,
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

/// A charged draw of `client release` or `client release-current`.
#[derive(Debug, Clone, PartialEq)]
pub struct Draw {
    /// The seeds to release at.
    pub seeds: SeedBatch,
    /// Explicit idempotency key. Re-running the command with the same key
    /// (after a timeout, crash, or server restart) replays the originally
    /// charged bytes without debiting again; without it a fresh key is
    /// minted per run.
    pub request_id: Option<String>,
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
        /// The plan to compile.
        request: PlanRequest,
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
        /// Seeds and idempotency key.
        draw: Draw,
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
    /// state — one iteration of the continual-release loop. A crashed
    /// publisher re-drives its keyed draws.
    ReleaseCurrent {
        /// Tenant name.
        tenant: String,
        /// Stream id returned by `stream-open`.
        stream: String,
        /// Seeds and idempotency key.
        draw: Draw,
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

/// The flags of a [`PlanRequest`].
const PLAN_FLAGS: &[&str] = &[
    "--dataset",
    "--workload",
    "--strategy",
    "--budgets",
    "--epsilon",
    "--delta",
];

/// The flags of a [`SeedBatch`].
const SEED_FLAGS: &[&str] = &["--seed", "--batch"];

/// The flags every `client` operation accepts.
const CLIENT_FLAGS: &[&str] = &["--addr", "--auth", "--timeout-ms", "--retries"];

/// Each `client` operation and the flags it reads besides [`CLIENT_FLAGS`].
const CLIENT_OPS: &[(&str, &[&[&str]])] = &[
    ("open", &[&["--tenant", "--epsilon", "--delta", "--token"]]),
    ("register", &[&["--tenant"], PLAN_FLAGS]),
    ("bind", &[&["--tenant", "--plan", "--table"]]),
    (
        "release",
        &[&["--tenant", "--session", "--request-id"], SEED_FLAGS],
    ),
    ("stream-open", &[&["--tenant", "--plan", "--table"]]),
    ("ingest", &[&["--tenant", "--stream", "--cell", "--delta"]]),
    (
        "release-current",
        &[&["--tenant", "--stream", "--request-id"], SEED_FLAGS],
    ),
    ("status", &[&["--tenant"]]),
    ("ping", &[]),
    ("shutdown", &[]),
];

/// One command line's flags, read left to right.
struct Flags<'a> {
    /// The command, as error messages name it (`serve`, `client release`).
    cmd: String,
    /// The bare operation word of `client`, wherever it stood.
    word: Option<&'a str>,
    /// Every `(flag, value)` given, in order; a switch has the value `""`.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Reads `args` for `cmd`: a flag in one of the `valued` groups takes
    /// the next argument as its value, a `switches` flag stands alone and,
    /// if `word` is set, the first bare argument is the operation word.
    /// Anything else is an unknown flag.
    fn read(
        cmd: &str,
        args: &'a [String],
        valued: &[&[&str]],
        switches: &[&str],
        word: bool,
    ) -> Result<Flags<'a>, CliError> {
        let mut flags = Flags {
            cmd: cmd.into(),
            word: None,
            given: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if valued.iter().any(|group| group.contains(&arg)) {
                let value = it.next();
                flags
                    .given
                    .push((arg, value.ok_or(CliError(format!("{arg} needs a value")))?));
            } else if switches.contains(&arg) {
                flags.given.push((arg, ""));
            } else if word && flags.word.is_none() && !arg.starts_with("--") {
                flags.word = Some(arg);
            } else {
                return Err(CliError(format!("unknown flag {arg:?} for {cmd}")));
            }
        }
        Ok(flags)
    }

    /// Every value given for `flag`, in order.
    fn values<'f>(&'f self, flag: &'f str) -> impl Iterator<Item = &'a str> + 'f {
        self.given
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// The last value given for `flag`, parsed by `parse`; every earlier
    /// value must parse too.
    fn get<T>(&self, flag: &str, parse: Parse<T>) -> Result<Option<T>, CliError> {
        let mut last = None;
        for value in self.values(flag) {
            last = Some(parse(flag, value)?);
        }
        Ok(last)
    }

    /// Like [`Flags::get`], for a flag `cmd` requires.
    fn need<T>(&self, flag: &str, parse: Parse<T>) -> Result<T, CliError> {
        self.require(flag, self.get(flag, parse)?)
    }

    /// `value`, or the error that `cmd` requires `flag`.
    fn require<T>(&self, flag: &str, value: Option<T>) -> Result<T, CliError> {
        value.ok_or_else(|| CliError(format!("{} requires {flag}", self.cmd)))
    }
}

/// A flag value parser: takes the flag (for its error message) and value.
type Parse<T> = fn(&str, &str) -> Result<T, CliError>;

fn text(_: &str, v: &str) -> Result<String, CliError> {
    Ok(v.into())
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| CliError(format!("bad {flag}: {e}")))
}

/// An integer ≥ 1 (a batch size or a cap).
fn count(flag: &str, v: &str) -> Result<usize, CliError> {
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or(CliError(format!("bad {flag}: need an integer ≥ 1")))
}

fn parse_dataset(_: &str, v: &str) -> Result<DatasetArg, CliError> {
    match v {
        "adult" => Ok(DatasetArg::Adult),
        "nltcs" => Ok(DatasetArg::Nltcs),
        other => Err(CliError(format!("unknown dataset {other:?} (adult|nltcs)"))),
    }
}

fn parse_strategy(_: &str, v: &str) -> Result<StrategyKind, CliError> {
    match v {
        "f" | "fourier" => Ok(StrategyKind::Fourier),
        "q" | "workload" => Ok(StrategyKind::Workload),
        "c" | "cluster" => Ok(StrategyKind::Cluster),
        "i" | "identity" => Ok(StrategyKind::Identity),
        other => Err(CliError(format!("unknown strategy {other:?} (f|q|c|i)"))),
    }
}

fn parse_budgets(_: &str, v: &str) -> Result<Budgeting, CliError> {
    match v {
        "uniform" => Ok(Budgeting::Uniform),
        "optimal" => Ok(Budgeting::Optimal),
        other => Err(CliError(format!(
            "unknown budgeting {other:?} (uniform|optimal)"
        ))),
    }
}

impl PlanRequest {
    /// Reads the [`PLAN_FLAGS`]; `--budgets` defaults to optimal. A bad
    /// value is reported before a missing flag.
    fn from_flags(flags: &Flags) -> Result<PlanRequest, CliError> {
        let dataset = flags.get("--dataset", parse_dataset)?;
        let strategy = flags.get("--strategy", parse_strategy)?;
        let budgets = flags.get("--budgets", parse_budgets)?;
        let epsilon = flags.get("--epsilon", number)?;
        Ok(PlanRequest {
            dataset: flags.require("--dataset", dataset)?,
            workload: flags.need("--workload", text)?,
            strategy: flags.require("--strategy", strategy)?,
            budgets: budgets.unwrap_or(Budgeting::Optimal),
            epsilon: flags.require("--epsilon", epsilon)?,
            delta: flags.get("--delta", number)?,
        })
    }

    /// The per-release privacy level.
    pub fn privacy(&self) -> PrivacyLevel {
        privacy_level(self.epsilon, self.delta)
    }

    /// The workload as the service's wire [`WorkloadSpec`] (no schema tag:
    /// the server derives the plan id from the spec alone).
    pub fn workload_spec(&self) -> Result<WorkloadSpec, CliError> {
        Ok(WorkloadSpec::Marginals {
            workload: build_workload(&dataset_schema(self.dataset), &self.workload)?,
            strategy: self.strategy,
            cluster: ClusterConfig,
        })
    }

    /// Compiles the plan locally, tagged with the dataset's schema.
    pub fn compile(&self) -> Result<Plan, CliError> {
        PlanBuilder::new(self.workload_spec()?)
            .budgeting(self.budgets)
            .privacy(self.privacy())
            .for_schema(&dataset_schema(self.dataset))
            .compile()
            .map_err(|e| CliError(format!("plan compilation failed: {e}")))
    }
}

impl SeedBatch {
    /// Reads the [`SEED_FLAGS`]: `--seed` defaults to 42, `--batch` to 1.
    fn from_flags(flags: &Flags) -> Result<SeedBatch, CliError> {
        Ok(SeedBatch {
            seed: flags.get("--seed", number)?.unwrap_or(42),
            batch: flags.get("--batch", count)?.unwrap_or(1),
        })
    }

    /// The seeds `seed..seed+batch`, wrapping at `u64::MAX`.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.batch as u64)
            .map(|i| self.seed.wrapping_add(i))
            .collect()
    }
}

impl Draw {
    /// Reads `--request-id` and the [`SEED_FLAGS`].
    fn from_flags(flags: &Flags) -> Result<Draw, CliError> {
        Ok(Draw {
            seeds: SeedBatch::from_flags(flags)?,
            request_id: flags.get("--request-id", text)?,
        })
    }
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "inspect" => {
            let flags = Flags::read("inspect", rest, &[&["--dataset"]], &[], false)?;
            Ok(Command::Inspect {
                dataset: flags.need("--dataset", parse_dataset)?,
            })
        }
        "serve" => parse_serve(rest),
        "client" => parse_client(rest),
        "plan" => {
            let flags = Flags::read("plan", rest, &[PLAN_FLAGS, &["--output"]], &[], false)?;
            Ok(Command::Plan(PlanArgs {
                request: PlanRequest::from_flags(&flags)?,
                output: flags.get("--output", text)?,
            }))
        }
        "release" => {
            let valued = [PLAN_FLAGS, SEED_FLAGS, &["--output"]];
            let flags = Flags::read("release", rest, &valued, &["--nonnegative"], false)?;
            let nonnegative = flags.values("--nonnegative").next().is_some();
            let seeds = SeedBatch::from_flags(&flags)?;
            Ok(Command::Release(ReleaseArgs {
                request: PlanRequest::from_flags(&flags)?,
                seeds,
                nonnegative,
                output: flags.get("--output", text)?,
            }))
        }
        other => Err(CliError(format!("unknown subcommand {other:?}"))),
    }
}

fn parse_serve(args: &[String]) -> Result<Command, CliError> {
    let valued: &[&str] = &[
        "--addr",
        "--dataset",
        "--ledger",
        "--admin-token",
        "--global-epsilon",
        "--global-delta",
        "--max-connections",
        "--max-inflight",
    ];
    let flags = Flags::read("serve", args, &[valued], &[], false)?;
    let mut datasets = Vec::new();
    for value in flags.values("--dataset") {
        let d = parse_dataset("--dataset", value)?;
        if !datasets.contains(&d) {
            datasets.push(d);
        }
    }
    if datasets.is_empty() {
        datasets = vec![DatasetArg::Adult, DatasetArg::Nltcs];
    }
    let global_epsilon = flags.get("--global-epsilon", number)?;
    let global_delta = flags.get("--global-delta", number)?;
    let max_connections = flags.get("--max-connections", count)?;
    let max_inflight = flags.get("--max-inflight", count)?;
    if global_delta.is_some() && global_epsilon.is_none() {
        return Err(CliError("--global-delta requires --global-epsilon".into()));
    }
    Ok(Command::Serve(ServeArgs {
        addr: flags.need("--addr", text)?,
        datasets,
        ledger: flags.get("--ledger", text)?,
        admin_token: flags.get("--admin-token", text)?,
        global_epsilon,
        global_delta,
        max_connections,
        max_inflight,
    }))
}

/// Parses the `client` subcommand: the [`CLIENT_FLAGS`] plus one
/// operation word and its flags, in any order. A flag that only another
/// operation reads is refused.
fn parse_client(args: &[String]) -> Result<Command, CliError> {
    let every: Vec<&[&str]> = CLIENT_OPS
        .iter()
        .flat_map(|(_, groups)| groups.iter().copied())
        .chain([CLIENT_FLAGS])
        .collect();
    let flags = Flags::read("client", args, &every, &[], true)?;
    let addr = flags.need("--addr", text)?;
    let names: Vec<&str> = CLIENT_OPS.iter().map(|(name, _)| *name).collect();
    let op = flags.word.ok_or(CliError(format!(
        "client requires an operation ({})",
        names.join("|")
    )))?;
    let (_, groups) = CLIENT_OPS
        .iter()
        .find(|(name, _)| *name == op)
        .ok_or(CliError(format!("unknown client operation {op:?}")))?;
    let accepted = [*groups, &[CLIENT_FLAGS]].concat();
    let flags = Flags::read(&format!("client {op}"), args, &accepted, &[], true)?;
    let op = match op {
        "open" => ClientOp::Open {
            tenant: flags.need("--tenant", text)?,
            epsilon: flags.need("--epsilon", number)?,
            delta: flags.get("--delta", number)?,
            token: flags.get("--token", text)?,
        },
        "register" => ClientOp::Register {
            tenant: flags.need("--tenant", text)?,
            request: PlanRequest::from_flags(&flags)?,
        },
        "bind" => ClientOp::Bind {
            tenant: flags.need("--tenant", text)?,
            plan: flags.need("--plan", text)?,
            table: flags.need("--table", text)?,
        },
        "release" => ClientOp::Release {
            tenant: flags.need("--tenant", text)?,
            session: flags.need("--session", text)?,
            draw: Draw::from_flags(&flags)?,
        },
        "stream-open" => ClientOp::StreamOpen {
            tenant: flags.need("--tenant", text)?,
            plan: flags.need("--plan", text)?,
            table: flags.get("--table", text)?,
        },
        "ingest" => ClientOp::Ingest {
            tenant: flags.need("--tenant", text)?,
            stream: flags.need("--stream", text)?,
            cell: flags.need("--cell", number)?,
            delta: flags.get("--delta", number)?.unwrap_or(1.0),
        },
        "release-current" => ClientOp::ReleaseCurrent {
            tenant: flags.need("--tenant", text)?,
            stream: flags.need("--stream", text)?,
            draw: Draw::from_flags(&flags)?,
        },
        "status" => ClientOp::Status {
            tenant: flags.need("--tenant", text)?,
        },
        "ping" => ClientOp::Ping,
        "shutdown" => ClientOp::Shutdown,
        other => unreachable!("{other:?} has an entry in CLIENT_OPS but no parser"),
    };
    Ok(Command::Client(ClientArgs {
        addr,
        auth: flags.get("--auth", text)?,
        timeout_ms: flags.get("--timeout-ms", number)?.unwrap_or(30_000),
        retries: flags.get("--retries", number)?.unwrap_or(4),
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

/// Seed of the synthetic stand-in records when no data file is present.
const DATA_SEED: u64 = 20130401;

/// Loads the dataset's schema and contingency table: the records of
/// `data/adult.data` or `data/nltcs.csv` if present, else the synthetic
/// stand-in at a fixed seed.
pub fn load_dataset(dataset: DatasetArg) -> Result<(Schema, ContingencyTable), CliError> {
    let name = dataset_name(dataset);
    let records = match dataset {
        DatasetArg::Adult => dp_data::csv::adult_records_or_synthetic(
            std::path::Path::new("data/adult.data"),
            DATA_SEED,
        ),
        DatasetArg::Nltcs => dp_data::csv::nltcs_records_or_synthetic(
            std::path::Path::new("data/nltcs.csv"),
            DATA_SEED,
        ),
    }
    .map_err(|e| CliError(format!("loading {name}: {e}")))?
    .0;
    let schema = dataset_schema(dataset);
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
        assert_eq!(a.request.dataset, DatasetArg::Nltcs);
        assert_eq!(a.request.workload, "q2");
        assert_eq!(a.request.strategy, StrategyKind::Fourier);
        assert_eq!(a.request.budgets, Budgeting::Optimal);
        assert_eq!(a.request.epsilon, 0.5);
        assert_eq!(a.seeds.seed, 9);
        assert_eq!(a.seeds.batch, 4);
        assert!(a.nonnegative);
        assert_eq!(a.output.as_deref(), Some("out.json"));
        assert_eq!(a.request.delta, None);
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
        assert_eq!(a.request.dataset, DatasetArg::Adult);
        assert_eq!(a.request.strategy, StrategyKind::Cluster);
        assert_eq!(a.request.budgets, Budgeting::Uniform);
        assert_eq!(a.request.delta, Some(1e-6));
        assert_eq!(a.output.as_deref(), Some("plan.json"));
        // Seeds/batches belong to `release`, not the data-independent plan.
        assert!(parse_args(&sv(&["plan", "--seed", "1"])).is_err());
        assert!(parse_args(&sv(&["plan", "--batch", "2"])).is_err());
        assert!(parse_args(&sv(&["release", "--batch", "0"])).is_err());
    }

    #[test]
    fn plan_json_document_roundtrips() {
        let plan = PlanRequest {
            dataset: DatasetArg::Nltcs,
            workload: "q1".into(),
            strategy: StrategyKind::Fourier,
            budgets: Budgeting::Optimal,
            epsilon: 0.5,
            delta: None,
        }
        .compile()
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
                request: PlanRequest {
                    budgets: Budgeting::Optimal,
                    ..
                },
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
                draw: Draw {
                    seeds: SeedBatch { seed: 7, batch: 3 },
                    request_id: None
                }
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
            ClientOp::Release { ref draw, .. } if draw.request_id.as_deref() == Some("retry-0007")
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
                draw: Draw {
                    seeds: SeedBatch { seed: 7, batch: 2 },
                    request_id: Some("epoch-3".into())
                }
            }
        );

        // Missing pieces are reported.
        assert!(with(&["stream-open", "--tenant", "t"]).is_err());
        assert!(with(&["ingest", "--tenant", "t", "--stream", "s"]).is_err());
        assert!(with(&["ingest", "--tenant", "t", "--stream", "s", "--cell", "x"]).is_err());
        assert!(with(&["release-current", "--tenant", "t"]).is_err());
    }

    #[test]
    fn client_ops_refuse_flags_they_do_not_read() {
        let base = ["client", "--addr", "127.0.0.1:7878"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            parse_args(&sv(&v))
        };
        let err =
            with(&["release", "--tenant", "t", "--session", "s", "--delta", "2"]).unwrap_err();
        assert_eq!(err.0, r#"unknown flag "--delta" for client release"#);
        let err = with(&["ping", "--tenant", "t"]).unwrap_err();
        assert_eq!(err.0, r#"unknown flag "--tenant" for client ping"#);
        let err = with(&["--seed", "3", "status", "--tenant", "t"]).unwrap_err();
        assert_eq!(err.0, r#"unknown flag "--seed" for client status"#);
        assert!(with(&["open", "--tenant", "t", "--epsilon", "1", "--session", "s"]).is_err());

        // The global flags stay valid for every operation, before or
        // after the operation word.
        for op in ["ping", "shutdown"] {
            let Command::Client(a) =
                with(&["--auth", "tok", op, "--timeout-ms", "250", "--retries", "1"]).unwrap()
            else {
                panic!("expected client");
            };
            assert_eq!(a.auth.as_deref(), Some("tok"));
            assert_eq!((a.timeout_ms, a.retries), (250, 1));
        }

        // A later value of a flag replaces an earlier one.
        let Command::Client(a) = with(&["status", "--tenant", "a", "--tenant", "b"]).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(a.op, ClientOp::Status { tenant: "b".into() });
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
