//! wirebench: end-to-end and per-layer numbers for the WIRE simulator,
//! controller and campaign runner on four workloads.
//!
//! ```text
//! wirebench [--seed N] [--seconds S] [--out FILE]
//!     every workload, one child process at a time, untraced then traced;
//!     prints `workload metric value unit` lines and writes a results file
//! wirebench --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|check]
//!     one run of one workload in this process; the last stdout line is
//!     the result object
//! wirebench calibrate [--runs R] [--seconds S] [--out FILE]
//!     every workload R times untraced on seeds 1..=R; reports each
//!     end-to-end metric's spread (IQR / median)
//! wirebench check
//!     smoke run of every workload at the small scale, traced and untraced
//! ```
//!
//! Every mode exits non-zero when any check fails.

mod measure;
mod report;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use measure::{RunSpec, END_TO_END};
use report::{metrics_json, result_line, Metric};
use wire_telemetry::json::{self, Json};
use workloads::{Scale, Workload, CAMPAIGN_THREADS, DEFAULT_SEED};

/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wirebench [calibrate [--runs R] | check] [--workload W] [--seed N] \
         [--seconds S] [--trace 0|1] [--scale full|check] [--out FILE]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

#[derive(Default)]
struct Args {
    mode: Option<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    scale: Option<Scale>,
    runs: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "calibrate" | "check" if a.mode.is_none() => a.mode = Some(flag.clone()),
            "--workload" => {
                let w = value("a workload name")?;
                a.workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace {t:?}: want 0 or 1")),
                }
            }
            "--scale" => {
                a.scale = Some(match value("full or check")?.as_str() {
                    "full" => Scale::FULL,
                    "check" => Scale::CHECK,
                    s => return Err(format!("--scale {s:?}: want full or check")),
                })
            }
            "--runs" => {
                let r: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if r < 2 {
                    return Err("--runs needs at least 2 runs for a spread".into());
                }
                a.runs = Some(r);
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return usage();
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let ok = match (args.mode.as_deref(), args.workload) {
        (None, Some(workload)) => run_one(&RunSpec {
            workload,
            seed,
            seconds,
            trace: args.trace,
            scale: args.scale.unwrap_or(Scale::FULL),
        }),
        (None, None) => run_all(seed, seconds, args.out.as_deref()),
        (Some("calibrate"), None) => {
            calibrate(args.runs.unwrap_or(5), seconds, args.out.as_deref())
        }
        (Some("check"), None) => smoke(),
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process: metric lines, then the result object.
fn run_one(spec: &RunSpec) -> bool {
    let outcome = measure::run(spec);
    let name = spec.workload.name();
    for m in &outcome.metrics {
        println!("{}", m.line(name));
    }
    for e in &outcome.errors {
        eprintln!("wirebench: {name}: FAILED: {e}");
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.headline(spec.trace)
        )
    );
    outcome.correct()
}

/// What a child run reported.
struct ChildRun {
    ok: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Run this binary on one workload in a child process and wait for it.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &str) -> ChildRun {
    let failed = ChildRun {
        ok: false,
        metrics: Vec::new(),
        attempted: 1,
        failed: 1,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wirebench: cannot locate own executable: {e}");
            return failed;
        }
    };
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--scale", scale])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: cannot run {}: {e}", workload.name());
            return failed;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let metrics = stdout
        .lines()
        .filter_map(Metric::parse_line)
        .filter(|(w, _)| w == workload.name())
        .map(|(_, m)| m)
        .collect();
    let Some((correct, attempted, failed_ops)) =
        stdout.lines().last().and_then(report::parse_result)
    else {
        eprintln!("wirebench: {} printed no result object", workload.name());
        return failed;
    };
    ChildRun {
        ok: correct && output.status.success(),
        metrics,
        attempted,
        failed: failed_ops,
    }
}

/// Host facts recorded with every results file.
fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json::obj(vec![
        ("cpu", json::s(&cpu)),
        ("nproc", json::u(nproc)),
        ("rustc", json::s(&rustc)),
    ])
}

fn threads(workload: Workload) -> u64 {
    match workload {
        Workload::Campaign => CAMPAIGN_THREADS as u64,
        _ => 1,
    }
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/wirebench")
}

fn write_results(path: &Path, json: &Json) -> bool {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(path, report::pretty(json)));
    match written {
        Ok(()) => {
            eprintln!("wirebench: wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("wirebench: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Every workload untraced then traced, one child at a time.
fn run_all(seed: u64, seconds: f64, out: Option<&Path>) -> bool {
    let mut ok = true;
    let mut per_workload = Vec::new();
    for w in Workload::ALL {
        let plain = child(w, seed, seconds, false, "full");
        let traced = child(w, seed, seconds, true, "full");
        for m in plain.metrics.iter().chain(&traced.metrics) {
            println!("{}", m.line(w.name()));
        }
        let correct = plain.ok && traced.ok;
        if !correct {
            eprintln!("wirebench: {} FAILED", w.name());
        }
        ok &= correct;
        per_workload.push((
            w.name().to_string(),
            json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("threads", json::u(threads(w))),
                ("attempted", json::u(plain.attempted + traced.attempted)),
                ("failed", json::u(plain.failed + traced.failed)),
                ("end_to_end", metrics_json(&plain.metrics)),
                ("per_layer", metrics_json(&traced.metrics)),
            ]),
        ));
    }
    let json = json::obj(vec![
        ("benchmark", json::s("wirebench")),
        ("seed", json::u(seed)),
        ("seconds", json::num(seconds)),
        ("host", host()),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let path = out.map_or_else(|| results_dir().join("latest.json"), Path::to_path_buf);
    write_results(&path, &json) && ok
}

/// Every workload `runs` times untraced on seeds 1..=runs: the spread of
/// each end-to-end metric across seeds, the statistic its regression bound
/// must clear.
fn calibrate(runs: usize, seconds: f64, out: Option<&Path>) -> bool {
    let mut ok = true;
    let mut per_workload = Vec::new();
    println!(
        "{:<10} {:<16} {:>14} {:>8} {:>6} verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in Workload::ALL {
        let children: Vec<ChildRun> = (1..=runs as u64)
            .map(|seed| child(w, seed, seconds, false, "full"))
            .collect();
        ok &= children.iter().all(|c| c.ok);
        let mut rows = Vec::new();
        for (name, unit, bound) in END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.metrics.iter().find(|m| m.name == name))
                .map(|m| m.value)
                .collect();
            let med = wire_core::median(&values).unwrap_or(f64::NAN);
            let spread = stats::spread(&values).unwrap_or(f64::NAN);
            // a bound must clear the spread with room to spare
            let verdict = if spread < bound / 3.0 {
                "steady"
            } else if spread < bound {
                "within bound"
            } else {
                "exceeds bound"
            };
            println!(
                "{:<10} {name:<16} {med:>14.6} {spread:>8.4} {bound:>6} {verdict}",
                w.name()
            );
            rows.push((
                name.to_string(),
                json::obj(vec![
                    ("unit", json::s(unit)),
                    ("median", json::num(med)),
                    ("spread", json::num(spread)),
                    ("bound", json::num(bound)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(json::num).collect()),
                    ),
                    ("verdict", json::s(verdict)),
                ]),
            ));
        }
        per_workload.push((w.name().to_string(), Json::Obj(rows)));
    }
    let json = json::obj(vec![
        ("benchmark", json::s("wirebench calibrate")),
        ("runs", json::u(runs as u64)),
        ("seconds", json::num(seconds)),
        ("host", host()),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let path = out.map_or_else(|| results_dir().join("calibration.json"), Path::to_path_buf);
    write_results(&path, &json) && ok
}

/// The smoke check: small inputs, short runs, the invariant checker on
/// every campaign cell.
fn smoke() -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let run = child(w, DEFAULT_SEED, 1.0, trace, "check");
            for m in &run.metrics {
                println!("{}", m.line(w.name()));
            }
            if !run.ok {
                eprintln!(
                    "wirebench check: {} (trace {}) FAILED",
                    w.name(),
                    trace as u8
                );
            }
            ok &= run.ok;
        }
    }
    println!("wirebench check: {}", if ok { "ok" } else { "FAILED" });
    ok
}
