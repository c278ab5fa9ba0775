//! End-to-end benchmark of the budget-metered release service.
//!
//! Drives a real `dp_service::Server` over loopback TCP, in this process,
//! with closed-loop `Client` connections, under one of three workloads
//! (see `bench.rs` and `BENCHMARK.json`). Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload marginal_wire --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run records client spans in alternate slices of
//! its window, replays a sample of its requests through each layer's
//! public functions, and carries the per-layer metrics instead. The line
//! before it is the run record (seed, cores, build, revision, sample
//! counts, not-applicable layers). The exit code is non-zero when any
//! correctness gate fails.

mod bench;
mod calib;
mod inputs;
mod replay;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::{Call, Op, Workload};
use inputs::{Inputs, Scale};
use serde::Value;
use trace::{median, percentile, Recorder};

/// End-to-end metrics: (name, unit), measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("release_p50_ms", "ms"),
    ("release_cpu_us", "us"),
];

/// Per-layer metrics: (name, unit), reported by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.compile_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.budget_solves", "count"),
    ("registry.cache_hits", "count"),
    ("registry.cache_misses", "count"),
    ("core.release_us", "us"),
    ("core.batch_release_us", "us"),
    ("core.batch_parallel_eff", "ratio"),
    ("core.obs_rows", "count"),
    ("noise.cells_per_s", "1/s"),
    ("linalg.gls_solve_ms", "ms"),
    ("core.ingest_us", "us"),
    ("protocol.req_encode_us", "us"),
    ("protocol.req_decode_us", "us"),
    ("protocol.resp_encode_us", "us"),
    ("protocol.resp_decode_us", "us"),
    ("protocol.resp_bytes", "bytes"),
    ("service.handle_us", "us"),
    ("service.overhead_us", "us"),
    ("accountant.admit_us", "us"),
    ("wal.batches", "count"),
    ("wal.records", "count"),
    ("wal.mean_batch", "count"),
    ("wal.max_batch", "count"),
    ("wire.rtt_us", "us"),
    ("wire.residual_us", "us"),
    ("wire.release_per_s", "1/s"),
    ("wire.release_p90_ms", "ms"),
    ("wire.release_p99_ms", "ms"),
    ("wire.failed_share", "share"),
    ("client.retries", "count"),
    ("client.sheds", "count"),
    ("stream.ingest_per_s", "1/s"),
    ("stream.ingest_p50_us", "us"),
    ("stream.ingest_p99_us", "us"),
    ("trace.release_per_s", "1/s"),
    ("trace.overhead_share", "share"),
];

/// Slices of a traced run's window: even ones untraced, odd ones traced.
const TRACE_SLICES: u32 = 4;

#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub not_applicable: Vec<&'static str>,
    pub record: Value,
}

impl Outcome {
    pub fn line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(value)),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect();
        render(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }
}

fn render(value: &Value) -> String {
    dp_service::protocol::render_line(value)
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may run from a plain copy of the tree.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Releases granted per second in each of `windows` equal parts of the
/// measured window (by completion time).
fn window_rates(calls: &[&Call], sched: &bench::Schedule, windows: u32) -> Vec<f64> {
    let mut granted = vec![0.0; windows as usize];
    for c in calls {
        if let Some(w) = sched.slice(c.end.min(sched.end), windows) {
            granted[w as usize] += f64::from(c.releases);
        }
    }
    let width = sched.measured_s() / f64::from(windows);
    granted.iter().map(|g| g / width).collect()
}

/// Runs one workload for `seconds` and checks its outputs.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(seed, scale);
    let out = package_dir().join("out");
    let dir = out.join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));

    // Set up repeatedly; the last deployment serves the load.
    let mut setup_s = Vec::new();
    let mut violations = Vec::new();
    let distinct = workload.specs(&inputs).len() as u64;
    let mut setup_probes = Vec::new();
    let mut setup_ratio = Vec::new();
    let dep = loop {
        let i = setup_s.len();
        setup_probes.push(calib::probe_ms());
        let dep = bench::deploy(workload, &inputs, &dir.join(format!("setup{i}")))?;
        setup_s.push(dep.setup_s);
        setup_ratio.push(dep.setup_s / setup_probes[i]);
        if dep.budget_solves != distinct {
            violations.push(format!(
                "set-up {i}: {} budget solves for {distinct} distinct plans",
                dep.budget_solves
            ));
        }
        let more = setup_s.len() < scale.setups
            || (setup_s.iter().sum::<f64>() < scale.setup_total_s && setup_s.len() < 40);
        if !more {
            break dep;
        }
        dep.teardown()?;
    };

    let warmup = Duration::from_secs_f64((seconds * 0.1).min(1.0));
    let slices = if traced { TRACE_SLICES } else { 1 };
    let sched = bench::Schedule::new(warmup, Duration::from_secs_f64(seconds), slices);
    let rec = traced.then(Recorder::new);
    let cpu_start = calib::process_cpu_s();
    let (logs, probes) = bench::drive(workload, &dep, seed, scale, sched, rec.as_ref())?;
    let probe_cpu_s: f64 = probes.iter().map(|p| p.cpu_s).sum();
    let cpu_s = calib::process_cpu_s() - cpu_start - probe_cpu_s;
    let load_probes: Vec<f64> = probes.iter().map(|p| p.reading.wall_ms).collect();
    // > 1 when the host runs slower than the reference host.
    let slowdown = median(&load_probes) / calib::REFERENCE_MS;
    violations.extend(bench::gates(workload, &inputs, &dep, &logs)?);

    let calls: Vec<&Call> = logs.iter().flat_map(|l| &l.calls).collect();
    let releases: Vec<&Call> = calls
        .iter()
        .copied()
        .filter(|c| c.op == Op::Release)
        .collect();
    let latencies: Vec<f64> = releases.iter().map(|c| c.latency_ms()).collect();
    let attempted = calls.len() as u64;
    let failed_calls = calls.iter().filter(|c| !c.ok).count() as u64;
    let p50 = percentile(&latencies, 0.5);
    let p90 = percentile(&latencies, 0.9);

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut not_applicable = Vec::new();
    let mut spans_file = Value::Null;
    let mut raw_metrics = Vec::new();
    if traced {
        let rec = rec.as_ref().expect("a traced run has a recorder");
        let layers = replay::replay(workload, &inputs, scale, &dep, &logs, rec, &dir)?;
        let mut values = layers.values;
        not_applicable = layers.not_applicable;
        values.push((
            "wire.failed_share",
            failed_calls as f64 / attempted.max(1) as f64,
        ));
        values.push(("wire.release_p90_ms", p90.value));
        values.push(("wire.release_p99_ms", percentile(&latencies, 0.99).value));
        let ingests: Vec<&Call> = calls
            .iter()
            .copied()
            .filter(|c| c.op == Op::Ingest)
            .collect();
        if ingests.is_empty() {
            for name in [
                "stream.ingest_per_s",
                "stream.ingest_p50_us",
                "stream.ingest_p99_us",
            ] {
                values.push((name, 0.0));
                not_applicable.push(name);
            }
        } else {
            let us: Vec<f64> = ingests.iter().map(|c| c.latency_ms() * 1e3).collect();
            let ok = ingests.iter().filter(|c| c.ok).count() as f64;
            values.push(("stream.ingest_per_s", ok / sched.measured_s()));
            values.push(("stream.ingest_p50_us", percentile(&us, 0.5).value));
            values.push(("stream.ingest_p99_us", percentile(&us, 0.99).value));
        }
        let rates = window_rates(&releases, &sched, TRACE_SLICES);
        let untraced: f64 = rates.iter().step_by(2).sum();
        let traced_rate: f64 = rates.iter().skip(1).step_by(2).sum();
        values.push(("wire.release_per_s", untraced / f64::from(TRACE_SLICES / 2)));
        values.push((
            "trace.release_per_s",
            traced_rate / f64::from(TRACE_SLICES / 2),
        ));
        values.push(("trace.overhead_share", 1.0 - traced_rate / untraced));
        for &(name, unit) in PER_LAYER {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("layer metric {name} was not measured"))?;
            metrics.push((name, value, unit));
        }
        std::fs::create_dir_all(&out).map_err(bench::err)?;
        let path = out.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        trace::write_spans(&path, &rec.spans()).map_err(bench::err)?;
        spans_file = text(path.display().to_string());
    } else {
        for &(name, unit) in END_TO_END {
            let raw = match name {
                "setup_s" => median(&setup_s),
                "release_p50_ms" => p50.value,
                "release_cpu_us" => {
                    let granted: usize = logs
                        .iter()
                        .flat_map(|l| &l.sent)
                        .map(|s| s.seeds.len())
                        .sum();
                    cpu_s * 1e6 / granted.max(1) as f64
                }
                _ => unreachable!("every end-to-end metric is computed"),
            };
            raw_metrics.push((name.to_string(), num(raw)));
            // Times are stated at the reference host speed (see calib.rs).
            let value = match name {
                "setup_s" => median(&setup_ratio) * calib::REFERENCE_MS,
                _ => raw / slowdown,
            };
            metrics.push((name, value, unit));
        }
    }
    let wal_hist = match dep.service().accountant().wal_stats() {
        Some(w) => Value::Array(w.size_hist.iter().map(|&c| num(c as f64)).collect()),
        None => Value::Null,
    };
    dep.teardown()?;
    let _ = std::fs::remove_dir_all(&dir);

    let mut correct = violations.is_empty() && failed_calls == 0;
    for m in &mut metrics {
        if !m.1.is_finite() {
            violations.push(format!("{} is not finite", m.0));
            m.1 = 0.0;
            correct = false;
        }
    }
    let record = Value::Object(vec![
        ("workload".into(), text(workload.name())),
        ("seed".into(), num(seed as f64)),
        ("trace".into(), Value::Bool(traced)),
        ("seconds".into(), num(seconds)),
        ("nproc".into(), num(rayon::current_num_threads() as f64)),
        (
            "profile".into(),
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_revision".into(),
            text(git_revision(
                package_dir().parent().unwrap_or(Path::new(".")),
            )),
        ),
        ("connections".into(), num(workload.connections() as f64)),
        ("loop".into(), text("closed")),
        ("setups".into(), num(setup_s.len() as f64)),
        ("release_calls".into(), num(releases.len() as f64)),
        ("release_p50_samples".into(), num(p50.samples as f64)),
        (
            "release_p99_tail_samples".into(),
            num((p50.samples / 100) as f64),
        ),
        (
            "not_applicable".into(),
            Value::Array(not_applicable.iter().map(|&n| text(n)).collect()),
        ),
        ("cpu_s".into(), num(cpu_s)),
        ("host_probes".into(), num(load_probes.len() as f64)),
        ("host_probe_setup_ms".into(), num(median(&setup_probes))),
        ("host_probe_ms".into(), num(median(&load_probes))),
        (
            "host_probe_compute_ms".into(),
            num(median(
                &probes
                    .iter()
                    .map(|p| p.reading.compute_ms)
                    .collect::<Vec<_>>(),
            )),
        ),
        (
            "host_probe_memory_ms".into(),
            num(median(
                &probes
                    .iter()
                    .map(|p| p.reading.memory_ms)
                    .collect::<Vec<_>>(),
            )),
        ),
        ("peak_rss_mb".into(), num(peak_rss_mb())),
        ("raw_metrics".into(), Value::Object(raw_metrics)),
        ("wal_size_hist".into(), wal_hist),
        ("spans_file".into(), spans_file),
        (
            "violations".into(),
            Value::Array(violations.iter().map(|v| text(v.as_str())).collect()),
        ),
        (
            "errors".into(),
            Value::Array(
                logs.iter()
                    .flat_map(|l| &l.errors)
                    .map(|e| text(e.as_str()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed: failed_calls + violations.len() as u64,
        metrics,
        not_applicable,
        record,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <marginal_wire|range_engine|durable_stream> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::FULL,
    ) {
        Ok(outcome) => {
            println!(
                "{}",
                render(&Value::Object(vec![(
                    "record".into(),
                    outcome.record.clone()
                )]))
            );
            println!("{}", outcome.line());
            if !outcome.correct {
                eprintln!("perfbench: correctness gate failed; see the record's violations");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Set-up counts budget solves on a process-wide counter, so runs in
    /// one test process must not overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn tiny(workload: Workload, seed: u64, traced: bool) -> Outcome {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        run(workload, seed, 0.4, traced, Scale::TINY).expect("tiny run completes")
    }

    fn parse(line: &str) -> Value {
        dp_service::protocol::parse_line(line).expect("result line is JSON")
    }

    fn keys(value: &Value) -> Vec<String> {
        match value {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("expected an object"),
        }
    }

    #[test]
    fn tiny_untraced_runs_print_every_end_to_end_metric() {
        for workload in Workload::ALL {
            let outcome = tiny(workload, 7, false);
            assert!(outcome.correct, "{workload:?}: {}", render(&outcome.record));
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let line = parse(&outcome.line());
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get_field("metrics").expect("metrics");
            let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
            assert_eq!(keys(metrics), expected, "{workload:?}");
            for &(name, unit) in END_TO_END {
                let m = metrics.get_field(name).expect("metric is printed");
                assert_eq!(m.get_field("unit").and_then(Value::as_str), Some(unit));
                let v = m
                    .get_field("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v > 0.0, "{workload:?} {name} = {v}");
            }
        }
    }

    #[test]
    fn tiny_traced_runs_report_every_layer_or_mark_it_not_applicable() {
        let expected_na: [(Workload, &[&str]); 3] = [
            (
                Workload::MarginalWire,
                &[
                    "linalg.gls_solve_ms",
                    "core.ingest_us",
                    "wal.batches",
                    "wal.records",
                    "wal.mean_batch",
                    "wal.max_batch",
                    "stream.ingest_per_s",
                    "stream.ingest_p50_us",
                    "stream.ingest_p99_us",
                ],
            ),
            (
                Workload::RangeEngine,
                &[
                    "core.ingest_us",
                    "wal.batches",
                    "wal.records",
                    "wal.mean_batch",
                    "wal.max_batch",
                    "stream.ingest_per_s",
                    "stream.ingest_p50_us",
                    "stream.ingest_p99_us",
                ],
            ),
            (Workload::DurableStream, &["linalg.gls_solve_ms"]),
        ];
        for (workload, na) in expected_na {
            let outcome = tiny(workload, 8, true);
            assert!(outcome.correct, "{workload:?}: {}", render(&outcome.record));
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, expected, "{workload:?}");
            let mut got_na = outcome.not_applicable.clone();
            got_na.sort_unstable();
            let mut want_na = na.to_vec();
            want_na.sort_unstable();
            assert_eq!(got_na, want_na, "{workload:?}");
            for &(name, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{workload:?} {name}");
                if na.contains(&name) {
                    assert_eq!(value, 0.0, "{workload:?} {name} is n/a");
                }
            }
            let measured = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
            for name in [
                "core.release_us",
                "service.handle_us",
                "wire.rtt_us",
                "noise.cells_per_s",
            ] {
                assert!(measured(name) > 0.0, "{workload:?} {name}");
            }
            let spans = outcome
                .record
                .get_field("spans_file")
                .and_then(Value::as_str);
            let text = std::fs::read_to_string(spans.expect("traced runs write spans")).unwrap();
            let first_child = text
                .lines()
                .map(parse)
                .find(|s| s.get_field("parent").is_some_and(|p| p.as_f64().is_some()));
            assert!(first_child.is_some(), "spans link children to parents");
        }
    }

    #[test]
    fn benchmark_json_matches_the_metrics_printed() {
        let path = package_dir().join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"));
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get_field(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get_field(f).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get_field("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get_field("name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload range_engine --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.workload, Workload::RangeEngine);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.5, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload range_engine --seconds 1",
            "--workload range_engine --seed 1 --seconds 0",
            "--workload range_engine --seed 1 --seconds 1 --trace 2",
            "--workload range_engine --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn seeds_make_the_inputs() {
        let a = Inputs::generate(5, Scale::TINY);
        let b = Inputs::generate(5, Scale::TINY);
        let c = Inputs::generate(6, Scale::TINY);
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.ranges.ranges(), b.ranges.ranges());
        assert_eq!(a.table.counts(), b.table.counts());
        assert_ne!(a.ranges.ranges(), c.ranges.ranges());
    }
}
