//! `datacube-dp` command-line tool: differentially private release of
//! marginal workloads over the bundled datasets, through the two-phase
//! plan/session API. See [`datacube_dp::cli`] for the argument grammar.

use datacube_dp::cli::{
    build_workload, compile_plan, dataset_name, dataset_schema, load_dataset, parse_args,
    plan_to_json, privacy_level, ClientArgs, ClientOp, Command, PlanArgs, ReleaseArgs, ServeArgs,
    USAGE,
};
use datacube_dp::prelude::*;
use datacube_dp::service::{
    protocol, Accountant, Auth, Client, ClientConfig, DpService, Server, ServerLimits, TcpTransport,
};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Inspect { dataset }) => match run_inspect(dataset) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Ok(Command::Plan(args)) => match run_plan(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Ok(Command::Release(args)) => match run_release(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Ok(Command::Serve(args)) => match run_serve(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Ok(Command::Client(args)) => match run_client(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

fn run_inspect(dataset: datacube_dp::cli::DatasetArg) -> Result<(), String> {
    let (schema, table) = load_dataset(dataset, 20130401).map_err(|e| e.to_string())?;
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

/// Phase 1 only: compile the data-independent plan and emit its document.
/// No record is ever read — the dataset argument selects the schema.
fn run_plan(args: &PlanArgs) -> Result<(), String> {
    let schema = dataset_schema(args.dataset);
    let workload = build_workload(&schema, &args.workload).map_err(|e| e.to_string())?;
    let privacy = privacy_level(args.epsilon, args.delta);
    let plan = compile_plan(
        &schema,
        workload,
        args.strategy,
        args.budgets,
        privacy,
        args.cluster,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "compiled plan {}: {} queries, {} budget groups, achieved ε = {:.6}, predicted Var = {:.4e}",
        plan.label(),
        plan.spec().num_queries(),
        plan.solution().group_budgets.len(),
        plan.achieved_epsilon(),
        plan.predicted_variance(),
    );
    let json = plan_to_json(&plan);
    match &args.output {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Runs the budget-metered release service until a `shutdown` request
/// arrives. Prints the resolved listen address as the first stdout line so
/// scripts can capture an OS-picked port (`--addr 127.0.0.1:0`).
fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let mut accountant = match &args.ledger {
        Some(path) => {
            Accountant::with_wal(std::path::Path::new(path)).map_err(|e| e.to_string())?
        }
        None => Accountant::in_memory(),
    };
    if let Some(epsilon) = args.global_epsilon {
        accountant = accountant
            .with_global_budget(privacy_level(epsilon, args.global_delta))
            .map_err(|e| e.to_string())?;
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
        let (_, table) = load_dataset(dataset, 20130401).map_err(|e| e.to_string())?;
        service.data().insert_table(dataset_name(dataset), table);
    }
    let transport = TcpTransport::bind(&args.addr).map_err(|e| e.to_string())?;
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
    server.run().map_err(|e| e.to_string())
}

/// Performs one client call against a running service and prints the
/// result (ids and releases go to stdout for scripting).
fn run_client(args: &ClientArgs) -> Result<(), String> {
    let config = ClientConfig {
        max_retries: args.retries,
        ..ClientConfig::with_timeout(std::time::Duration::from_millis(args.timeout_ms))
    };
    let mut client = Client::connect_with(&args.addr, config).map_err(|e| e.to_string())?;
    client.set_credential(args.auth.clone());
    match &args.op {
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
            }
            .map_err(|e| e.to_string())?;
            println!("opened {tenant}");
        }
        ClientOp::Register {
            tenant,
            dataset,
            workload,
            strategy,
            budgets,
            epsilon,
            delta,
        } => {
            let schema = dataset_schema(*dataset);
            let w = build_workload(&schema, workload).map_err(|e| e.to_string())?;
            let spec = WorkloadSpec::Marginals {
                workload: w,
                strategy: *strategy,
                cluster: ClusterConfig::default(),
            };
            let id = client
                .register_compile(
                    tenant,
                    spec,
                    *budgets,
                    privacy_level(*epsilon, *delta),
                    Neighboring::AddRemove,
                )
                .map_err(|e| e.to_string())?;
            println!("{id}");
        }
        ClientOp::Bind {
            tenant,
            plan,
            table,
        } => {
            let id = client
                .bind(tenant, plan, table)
                .map_err(|e| e.to_string())?;
            println!("{id}");
        }
        ClientOp::Release {
            tenant,
            session,
            seed,
            batch,
            request_id,
        } => {
            let seeds: Vec<u64> = (0..*batch as u64).map(|i| seed.wrapping_add(i)).collect();
            let releases = match request_id {
                Some(id) => client.release_with_id(tenant, session, &seeds, id),
                None => client.release(tenant, session, &seeds),
            }
            .map_err(|e| e.to_string())?;
            for release in &releases {
                println!("{}", protocol::render_line(release));
            }
        }
        ClientOp::StreamOpen {
            tenant,
            plan,
            table,
        } => {
            let id = client
                .stream_open(tenant, plan, table.as_deref())
                .map_err(|e| e.to_string())?;
            println!("{id}");
        }
        ClientOp::Ingest {
            tenant,
            stream,
            cell,
            delta,
        } => {
            client
                .ingest(tenant, stream, *cell, *delta)
                .map_err(|e| e.to_string())?;
            println!("ingested {delta} at cell {cell}");
        }
        ClientOp::ReleaseCurrent {
            tenant,
            stream,
            seed,
            batch,
            request_id,
        } => {
            let seeds: Vec<u64> = (0..*batch as u64).map(|i| seed.wrapping_add(i)).collect();
            let releases = client
                .release_current(tenant, stream, &seeds, request_id.as_deref())
                .map_err(|e| e.to_string())?;
            for release in &releases {
                println!("{}", protocol::render_line(release));
            }
        }
        ClientOp::Status { tenant } => {
            let s = client.budget_status(tenant).map_err(|e| e.to_string())?;
            println!(
                "tenant {tenant}: total (ε = {}, δ = {}), spent (ε = {}, δ = {}), \
                 remaining (ε = {}, δ = {}), {} charges",
                s.total.epsilon(),
                s.total.delta(),
                s.spent_epsilon,
                s.spent_delta,
                s.remaining_epsilon,
                s.remaining_delta,
                s.charges
            );
        }
        ClientOp::Ping => {
            let tables = client.ping().map_err(|e| e.to_string())?;
            println!("ok: tables {tables:?}");
        }
        ClientOp::Shutdown => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutdown acknowledged");
        }
    }
    Ok(())
}

/// Phase 1 + 2: compile one plan, bind the dataset, draw `--batch`
/// deterministic releases (seeds `seed..seed+batch`) from it, and print
/// one wire release document per line — the bytes `client release` prints
/// for the same plan, table and seeds.
fn run_release(args: &ReleaseArgs) -> Result<(), String> {
    let (schema, table) = load_dataset(args.dataset, 20130401).map_err(|e| e.to_string())?;
    let workload = build_workload(&schema, &args.workload).map_err(|e| e.to_string())?;
    let privacy = privacy_level(args.epsilon, args.delta);
    let plan = compile_plan(
        &schema,
        workload,
        args.strategy,
        args.budgets,
        privacy,
        args.cluster,
    )
    .map_err(|e| e.to_string())?;
    let session = Session::bind(Arc::new(plan), &table).map_err(|e| e.to_string())?;
    let seeds: Vec<u64> = (0..args.batch as u64)
        .map(|i| args.seed.wrapping_add(i))
        .collect();
    let mut releases = session.release_batch(&seeds).map_err(|e| e.to_string())?;
    if args.nonnegative {
        for release in &mut releases {
            if let Answers::Marginals(tables) = &mut release.answers {
                let (_, projected) = dp_core::postprocess::project_nonnegative(
                    schema.domain_bits(),
                    tables,
                    dp_core::postprocess::ProjectOptions::default(),
                )
                .map_err(|e| e.to_string())?;
                *tables = projected;
            }
        }
    }

    let first = &releases[0];
    eprintln!(
        "released {} × {} marginals with method {} (achieved ε = {:.6} per release, one plan)",
        releases.len(),
        first.answers.marginals().map_or(0, <[_]>::len),
        first.label,
        first.achieved_epsilon
    );
    let mut lines = String::new();
    for release in &releases {
        protocol::write_release(release, &mut lines);
        lines.push('\n');
    }
    match &args.output {
        Some(path) => {
            std::fs::write(path, &lines).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{lines}"),
    }
    Ok(())
}
