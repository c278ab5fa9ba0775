//! Path-versus-path oracle for the `datacube-dp` binary: every `release`
//! and `plan` command line below runs the built binary and compares its
//! stdout, byte for byte, with the same plan compiled, bound and released
//! through the library (`PlanBuilder`, `Session::release_batch`,
//! `protocol::write_release`), without going through `datacube_dp::cli`.
//! Refused command lines must exit 1 with `error:` and the usage text on
//! stderr.

use datacube_dp::prelude::*;
use datacube_dp::service::protocol;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};

/// The seed the binary passes to the synthetic dataset generators.
const DATA_SEED: u64 = 20130401;

/// Runs the binary in an empty directory, so no `data/` file can stand in
/// for the synthetic records.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_datacube-dp"))
        .args(args)
        .current_dir(work_dir())
        .output()
        .expect("the datacube-dp binary runs")
}

fn work_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_paths");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    })
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = run(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn nltcs_table() -> &'static ContingencyTable {
    static TABLE: OnceLock<ContingencyTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let records = dp_data::synthesize_nltcs(dp_data::nltcs::NLTCS_RECORDS, DATA_SEED);
        ContingencyTable::from_records(&dp_data::nltcs_schema(), &records).unwrap()
    })
}

fn library_plan(
    schema: &Schema,
    k: usize,
    strategy: StrategyKind,
    budgets: Budgeting,
    privacy: PrivacyLevel,
) -> Plan {
    PlanBuilder::marginals(Workload::all_k_way(schema, k).unwrap(), strategy)
        .budgeting(budgets)
        .privacy(privacy)
        .for_schema(schema)
        .compile()
        .unwrap()
}

/// The wire lines of an NLTCS `all_k_way(k)` release batch, one per seed.
fn library_release(
    k: usize,
    strategy: StrategyKind,
    budgets: Budgeting,
    privacy: PrivacyLevel,
    seeds: &[u64],
) -> Vec<u8> {
    let plan = library_plan(&dp_data::nltcs_schema(), k, strategy, budgets, privacy);
    let session = Session::bind(Arc::new(plan), nltcs_table()).unwrap();
    let mut lines = String::new();
    for release in session.release_batch(seeds).unwrap() {
        protocol::write_release(&release, &mut lines);
        lines.push('\n');
    }
    lines.into_bytes()
}

const PURE: PrivacyLevel = PrivacyLevel::Pure { epsilon: 0.5 };

#[test]
fn q1_releases_match_the_library_for_every_strategy_and_budgeting() {
    let strategies = [
        ("f", StrategyKind::Fourier),
        ("q", StrategyKind::Workload),
        ("c", StrategyKind::Cluster),
        ("i", StrategyKind::Identity),
    ];
    let budgetings = [
        ("optimal", Budgeting::Optimal),
        ("uniform", Budgeting::Uniform),
    ];
    for (s, strategy) in strategies {
        for (b, budgets) in budgetings {
            let cli = stdout_of(&[
                "release",
                "--dataset",
                "nltcs",
                "--workload",
                "q1",
                "--strategy",
                s,
                "--budgets",
                b,
                "--epsilon",
                "0.5",
            ]);
            // Without --seed and --batch the binary draws one release at seed 42.
            let lib = library_release(1, strategy, budgets, PURE, &[42]);
            assert!(cli == lib, "q1 --strategy {s} --budgets {b}");
        }
    }
}

#[test]
fn q2_gaussian_and_batched_releases_match_the_library() {
    let base = [
        "release",
        "--dataset",
        "nltcs",
        "--strategy",
        "f",
        "--budgets",
        "optimal",
        "--epsilon",
        "0.5",
    ];
    let with = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        stdout_of(&args)
    };
    let fourier = StrategyKind::Fourier;
    let optimal = Budgeting::Optimal;

    let cli = with(&["--workload", "q2", "--seed", "3"]);
    assert!(
        cli == library_release(2, fourier, optimal, PURE, &[3]),
        "q2"
    );

    let gaussian = PrivacyLevel::Approx {
        epsilon: 0.5,
        delta: 1e-6,
    };
    let cli = with(&["--workload", "q1", "--delta", "1e-6", "--seed", "5"]);
    assert!(
        cli == library_release(1, fourier, optimal, gaussian, &[5]),
        "--delta 1e-6"
    );

    let cli = with(&["--workload", "q1", "--seed", "9", "--batch", "2"]);
    let lib = library_release(1, fourier, optimal, PURE, &[9, 10]);
    assert_eq!(cli.iter().filter(|&&b| b == b'\n').count(), 2);
    assert!(cli == lib, "--seed 9 --batch 2");

    let path = work_dir().join("batch.jsonl");
    let _ = std::fs::remove_file(&path);
    let stdout = with(&[
        "--workload",
        "q1",
        "--seed",
        "9",
        "--batch",
        "2",
        "--output",
        path.to_str().unwrap(),
    ]);
    assert!(stdout.is_empty(), "--output leaves stdout empty");
    assert!(std::fs::read(&path).unwrap() == cli, "--output file bytes");
}

/// FNV-1a of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// The lines of `release --nonnegative` through the library: each release
/// of an NLTCS `all_k_way(k)` batch projected onto non-negative integral
/// synthetic data by `postprocess::project_nonnegative`, then written.
fn library_nonnegative_release(
    k: usize,
    strategy: StrategyKind,
    budgets: Budgeting,
    seeds: &[u64],
) -> Vec<u8> {
    let schema = dp_data::nltcs_schema();
    let plan = library_plan(&schema, k, strategy, budgets, PURE);
    let session = Session::bind(Arc::new(plan), nltcs_table()).unwrap();
    let mut lines = String::new();
    for mut release in session.release_batch(seeds).unwrap() {
        if let Answers::Marginals(marginals) = &mut release.answers {
            let options = dp_core::postprocess::ProjectOptions::default();
            let projected =
                dp_core::postprocess::project_nonnegative(schema.domain_bits(), marginals, options);
            *marginals = projected.unwrap().1;
        }
        protocol::write_release(&release, &mut lines);
        lines.push('\n');
    }
    lines.into_bytes()
}

/// `release --nonnegative` prints the library's projection of the
/// library's releases, byte for byte, with the digests pinned before
/// releases held one answer buffer.
#[test]
fn nonnegative_releases_match_the_library_and_pinned_digests() {
    let with = |extra: &[&str]| {
        let mut args = vec!["release", "--dataset", "nltcs", "--epsilon", "0.5"];
        args.extend_from_slice(extra);
        args.push("--nonnegative");
        stdout_of(&args)
    };

    let cli = with(&[
        "--workload",
        "q1",
        "--strategy",
        "f",
        "--budgets",
        "optimal",
        "--seed",
        "9",
        "--batch",
        "2",
    ]);
    assert_eq!(fnv1a(&cli), 0x6d07e08e0c703275, "q1 F+");
    let lib = library_nonnegative_release(1, StrategyKind::Fourier, Budgeting::Optimal, &[9, 10]);
    assert!(cli == lib, "q1 F+");

    let cli = with(&[
        "--workload",
        "q2",
        "--strategy",
        "q",
        "--budgets",
        "uniform",
        "--seed",
        "3",
    ]);
    assert_eq!(fnv1a(&cli), 0x3473d97d91053d86, "q2 Q");
    let lib = library_nonnegative_release(2, StrategyKind::Workload, Budgeting::Uniform, &[3]);
    assert!(cli == lib, "q2 Q");
}

#[test]
fn plan_documents_match_the_library() {
    for (name, schema) in [
        ("adult", dp_data::adult_schema()),
        ("nltcs", dp_data::nltcs_schema()),
    ] {
        let mut args = vec![
            "plan",
            "--dataset",
            name,
            "--workload",
            "q1",
            "--strategy",
            "f",
            "--budgets",
            "optimal",
            "--epsilon",
            "0.5",
        ];
        let cli = stdout_of(&args);
        let plan = library_plan(&schema, 1, StrategyKind::Fourier, Budgeting::Optimal, PURE);
        let doc = serde_json::to_string_pretty(&plan).unwrap() + "\n";
        assert!(cli == doc.as_bytes(), "plan --dataset {name}");

        let path = work_dir().join(format!("plan-{name}.json"));
        let _ = std::fs::remove_file(&path);
        args.extend(["--output", path.to_str().unwrap()]);
        assert!(
            stdout_of(&args).is_empty(),
            "plan --output leaves stdout empty"
        );
        assert!(
            std::fs::read(&path).unwrap() == cli,
            "plan --dataset {name} --output file bytes"
        );
    }
}

#[test]
fn refused_lines_exit_1_with_the_usage_text() {
    let usage = String::from_utf8(stdout_of(&["help"])).unwrap();
    assert!(usage.starts_with("datacube-dp"));
    for args in [
        &["release", "--batch", "0"][..],
        &["plan", "--seed", "1"][..],
        &["frobnicate"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.ends_with(&usage), "{args:?}: {stderr}");
    }
}
