//! `datacube-dp` command-line tool: differentially private release of
//! marginal workloads over the bundled datasets, through the two-phase
//! plan/session API. See [`datacube_dp::cli::USAGE`] for the argument
//! grammar.

use datacube_dp::cli::{
    dataset_name, load_dataset, parse_args, plan_to_json, privacy_level, ClientArgs, ClientOp,
    Command, DatasetArg, PlanArgs, ReleaseArgs, ServeArgs, USAGE,
};
use datacube_dp::prelude::*;
use datacube_dp::service::{
    protocol, Accountant, Auth, Client, ClientConfig, DpService, Server, ServerLimits, TcpTransport,
};
use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

type RunResult = Result<(), Box<dyn Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Inspect { dataset } => run_inspect(dataset),
        Command::Plan(args) => run_plan(&args),
        Command::Release(args) => run_release(&args),
        Command::Serve(args) => run_serve(&args),
        Command::Client(args) => run_client(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_inspect(dataset: DatasetArg) -> RunResult {
    let (schema, table) = load_dataset(dataset)?;
    println!("attributes: {}", schema.num_attributes());
    for (i, a) in schema.attributes().iter().enumerate() {
        println!(
            "  [{i}] {} (cardinality {}, {} bits)",
            a.name,
            a.cardinality,
            a.bits()
        );
    }
    println!(
        "domain: 2^{} = {} cells",
        schema.domain_bits(),
        schema.domain_size()
    );
    println!("records: {}", table.total());
    Ok(())
}

/// Writes `text` to `output` if given (and says so on stderr), else
/// prints it: the file and stdout get the same bytes.
fn emit(output: &Option<String>, text: &str) -> RunResult {
    match output {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Phase 1 only: compile the data-independent plan and emit its document.
/// No record is ever read — the dataset argument selects the schema.
fn run_plan(args: &PlanArgs) -> RunResult {
    let plan = args.request.compile()?;
    eprintln!(
        "compiled plan {}: {} queries, {} budget groups, achieved ε = {:.6}, predicted Var = {:.4e}",
        plan.label(),
        plan.spec().num_queries(),
        plan.solution().group_budgets.len(),
        plan.achieved_epsilon(),
        plan.predicted_variance(),
    );
    emit(&args.output, &(plan_to_json(&plan) + "\n"))
}

/// Runs the budget-metered release service until a `shutdown` request
/// arrives. Prints the resolved listen address as the first stdout line so
/// scripts can capture an OS-picked port (`--addr 127.0.0.1:0`).
fn run_serve(args: &ServeArgs) -> RunResult {
    let mut accountant = match &args.ledger {
        Some(path) => Accountant::with_wal(std::path::Path::new(path))?,
        None => Accountant::in_memory(),
    };
    if let Some(epsilon) = args.global_epsilon {
        accountant = accountant.with_global_budget(privacy_level(epsilon, args.global_delta))?;
    }
    let auth = match &args.admin_token {
        Some(token) => Auth::operator(token),
        None => Auth::trusted(),
    };
    let mut service = DpService::with_auth(accountant, auth);
    if let Some(cap) = args.max_inflight {
        service = service.with_tenant_inflight_cap(cap);
    }
    for &dataset in &args.datasets {
        let (_, table) = load_dataset(dataset)?;
        service.data().insert_table(dataset_name(dataset), table);
    }
    let transport = TcpTransport::bind(&args.addr)?;
    let server = Server::with_limits(
        service,
        transport,
        ServerLimits {
            max_connections: args.max_connections,
        },
    );
    println!("{}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "serving on {} with tables {:?}{}{}{}",
        server.addr(),
        server.service().data().names(),
        match &args.ledger {
            Some(p) => format!(", persistent ledger at {p} (group commit)"),
            None => ", in-memory budgets".into(),
        },
        if args.admin_token.is_some() {
            ", operator auth"
        } else {
            ", trusted peers (no auth)"
        },
        match args.global_epsilon {
            Some(eps) => format!(", global budget ε = {eps}"),
            None => String::new(),
        }
    );
    Ok(server.run()?)
}

/// Performs one client call against a running service and prints the
/// result (ids and releases go to stdout for scripting).
fn run_client(args: &ClientArgs) -> RunResult {
    let config = ClientConfig {
        max_retries: args.retries,
        ..ClientConfig::with_timeout(std::time::Duration::from_millis(args.timeout_ms))
    };
    let mut client = Client::connect_with(&args.addr, config)?;
    client.set_credential(args.auth.clone());
    let lines =
        |releases: Vec<_>| -> Vec<String> { releases.iter().map(protocol::render_line).collect() };
    let out = match &args.op {
        ClientOp::Open {
            tenant,
            epsilon,
            delta,
            token,
        } => {
            let budget = privacy_level(*epsilon, *delta);
            match token {
                Some(token) => client.open_tenant_with_token(tenant, budget, token),
                None => client.open_tenant(tenant, budget),
            }?;
            vec![format!("opened {tenant}")]
        }
        ClientOp::Register { tenant, request } => vec![client.register_compile(
            tenant,
            request.workload_spec()?,
            request.budgets,
            request.privacy(),
            Neighboring::AddRemove,
        )?],
        ClientOp::Bind {
            tenant,
            plan,
            table,
        } => vec![client.bind(tenant, plan, table)?],
        ClientOp::Release {
            tenant,
            session,
            draw,
        } => {
            let seeds = draw.seeds.seeds();
            lines(match &draw.request_id {
                Some(id) => client.release_with_id(tenant, session, &seeds, id),
                None => client.release(tenant, session, &seeds),
            }?)
        }
        ClientOp::StreamOpen {
            tenant,
            plan,
            table,
        } => vec![client.stream_open(tenant, plan, table.as_deref())?],
        ClientOp::Ingest {
            tenant,
            stream,
            cell,
            delta,
        } => {
            client.ingest(tenant, stream, *cell, *delta)?;
            vec![format!("ingested {delta} at cell {cell}")]
        }
        ClientOp::ReleaseCurrent {
            tenant,
            stream,
            draw,
        } => lines(client.release_current(
            tenant,
            stream,
            &draw.seeds.seeds(),
            draw.request_id.as_deref(),
        )?),
        ClientOp::Status { tenant } => {
            let s = client.budget_status(tenant)?;
            vec![format!(
                "tenant {tenant}: total (ε = {}, δ = {}), spent (ε = {}, δ = {}), \
                 remaining (ε = {}, δ = {}), {} charges",
                s.total.epsilon(),
                s.total.delta(),
                s.spent_epsilon,
                s.spent_delta,
                s.remaining_epsilon,
                s.remaining_delta,
                s.charges
            )]
        }
        ClientOp::Ping => vec![format!("ok: tables {:?}", client.ping()?)],
        ClientOp::Shutdown => {
            client.shutdown()?;
            vec!["shutdown acknowledged".into()]
        }
    };
    for line in out {
        println!("{line}");
    }
    Ok(())
}

/// Phase 1 + 2: compile one plan, bind the dataset, draw `--batch`
/// deterministic releases (seeds `seed..seed+batch`) from it, and print
/// one wire release document per line — the bytes `client release` prints
/// for the same plan, table and seeds.
fn run_release(args: &ReleaseArgs) -> RunResult {
    let (schema, table) = load_dataset(args.request.dataset)?;
    let plan = args.request.compile()?;
    let session = Session::bind(Arc::new(plan), &table)?;
    let mut releases = session.release_batch(&args.seeds.seeds())?;
    if args.nonnegative {
        for release in &mut releases {
            if let Answers::Marginals(marginals) = &mut release.answers {
                let (_, projected) = dp_core::postprocess::project_nonnegative(
                    schema.domain_bits(),
                    marginals,
                    dp_core::postprocess::ProjectOptions::default(),
                )?;
                *marginals = projected;
            }
        }
    }

    let first = &releases[0];
    eprintln!(
        "released {} × {} marginals with method {} (achieved ε = {:.6} per release, one plan)",
        releases.len(),
        first.answers.marginals().map_or(0, |m| m.len()),
        first.label,
        first.achieved_epsilon
    );
    let mut lines = String::new();
    for release in &releases {
        protocol::write_release(release, &mut lines);
        lines.push('\n');
    }
    emit(&args.output, &lines)
}
