//! Streaming-observability overhead bench: proves the two contract claims
//! of the `wire-obs` crate on a large ensemble and writes the evidence to
//! `results/BENCH_obs.json`.
//!
//! 1. **Bounded memory** — the recorder's peak retained telemetry state is
//!    independent of the number of workflows K: a K = 10^5 ensemble retains
//!    no more than [`MAX_STATE_GROWTH`] × the K = 10^3 peak, because every
//!    per-workflow and per-prediction entry is pruned on completion and the
//!    window ring evicts to a coarse total.
//! 2. **Small fixed overhead** — an ensemble run with a [`StreamingRecorder`]
//!    attached stays within [`MAX_OVERHEAD_FRAC`] of the same run on the
//!    free `NoopRecorder` path, and produces byte-for-byte identical
//!    simulation results (observe, never perturb).
//!
//! * default: K ∈ {10^3, 10^4, 10^5}; prints a table and writes the JSON.
//! * `--check`: K ∈ {10^3, 10^5} only (CI smoke); still writes the JSON
//!   with `"mode": "check"` and exits non-zero if either claim fails.

use std::fmt::Write as _;
use std::time::Instant;
use wire_campaign::figures::results_dir;
use wire_dag::Millis;
use wire_obs::StreamingRecorder;
use wire_planner::StaticPolicy;
use wire_simcloud::{CloudConfig, RunResult, Session, TransferModel};
use wire_workloads::linear_stage;

/// Streaming wall time may exceed the noop wall time by at most this
/// fraction (documented budget; typical measured overhead is far smaller,
/// the slack absorbs CI timer noise).
const MAX_OVERHEAD_FRAC: f64 = 0.50;

/// Peak retained state at K = 10^5 may exceed the K = 10^3 peak by at most
/// this factor — i.e. retained telemetry bytes must NOT scale with K.
const MAX_STATE_GROWTH: f64 = 1.25;

/// Tasks per member workflow (one parallel stage of 60 s tasks).
const TASKS_PER_WORKFLOW: usize = 2;
const TASK_SECS: u64 = 60;
/// Arrival spacing; below the member makespan, so a handful of workflows
/// are always in flight — the recorder's active set stays small and K only
/// stretches the virtual timeline.
const SPACING_SECS: u64 = 30;
/// Static pool size — comfortably above the steady-state demand of
/// `TASKS_PER_WORKFLOW · TASK_SECS / SPACING_SECS = 4` slots, so the ready
/// queue (and the recorder's active-workflow set) stays bounded at any K.
const POOL: u32 = 8;

/// The engine rebuilds an O(arrived-tasks) monitor snapshot every MAPE
/// tick, so a fixed interval would make the ensemble O(K · ticks) — an
/// engine property, not a recorder one. The policy is a static pool (ticks
/// never change scheduling), so the bench holds the *tick count* constant
/// across K instead: interval = virtual span / TARGET_TICKS. This keeps the
/// noop-vs-streaming comparison about the recorder.
const TARGET_TICKS: u64 = 500;

fn bench_cfg(k: usize) -> CloudConfig {
    let span_secs = k as u64 * SPACING_SECS;
    let interval_secs = (span_secs / TARGET_TICKS).max(10);
    CloudConfig {
        initial_instances: POOL,
        ..CloudConfig::linear_analysis(Millis::from_mins(15), Millis::from_secs(interval_secs))
    }
}

fn run_k(k: usize, obs: Option<&StreamingRecorder>) -> RunResult {
    let (wf, prof) = linear_stage(TASKS_PER_WORKFLOW, Millis::from_secs(TASK_SECS));
    let mut session = Session::new(bench_cfg(k))
        .transfer(TransferModel::none())
        .policy(StaticPolicy::new(POOL))
        .seed(1);
    for i in 0..k {
        session = session.submit_at(Millis::from_secs(i as u64 * SPACING_SECS), &wf, &prof);
    }
    match obs {
        Some(rec) => session
            .recording(rec.clone())
            .run()
            .expect("streaming ensemble completes"),
        None => session.run().expect("noop ensemble completes"),
    }
}

struct BenchCell {
    k: usize,
    noop_wall_ms: f64,
    streaming_wall_ms: f64,
    overhead_frac: f64,
    events: u64,
    peak_state_bytes: u64,
    final_state_bytes: u64,
}

fn time_best(reps: usize, mut f: impl FnMut() -> RunResult) -> (f64, RunResult) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

fn run_cell(k: usize) -> BenchCell {
    // best-of is the least noisy estimator for deterministic runs; fewer
    // reps at large K to keep the bench bounded
    let reps = if k >= 100_000 { 2 } else { 3 };
    let (noop_s, noop_res) = time_best(reps, || run_k(k, None));
    let mut obs_last = StreamingRecorder::new();
    let (stream_s, stream_res) = time_best(reps, || {
        let obs = StreamingRecorder::new();
        let r = run_k(k, Some(&obs));
        obs_last = obs;
        r
    });

    // observe, never perturb: the recorder must not change the simulation
    assert_eq!(noop_res.makespan, stream_res.makespan, "K={k}");
    assert_eq!(noop_res.charging_units, stream_res.charging_units, "K={k}");
    let snap = obs_last.snapshot();
    assert_eq!(
        snap.counter("workflow_completed"),
        k as u64,
        "K={k}: every workflow lifecycle observed"
    );

    let health = obs_last.health();
    BenchCell {
        k,
        noop_wall_ms: noop_s * 1e3,
        streaming_wall_ms: stream_s * 1e3,
        overhead_frac: (stream_s - noop_s) / noop_s.max(1e-9),
        events: health.events_total,
        peak_state_bytes: obs_last.peak_state_bytes() as u64,
        final_state_bytes: obs_last.state_bytes() as u64,
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let sizes: &[usize] = if check {
        &[1_000, 100_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    println!(
        "streaming-observability overhead: K × linear_stage({TASKS_PER_WORKFLOW}, \
         {TASK_SECS}s), arrivals every {SPACING_SECS}s, static pool"
    );
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>10} {:>12} {:>12}",
        "K", "noop ms", "streaming ms", "overhead", "events", "peak state", "final state"
    );
    let cells: Vec<BenchCell> = sizes.iter().map(|&k| run_cell(k)).collect();
    for c in &cells {
        println!(
            "{:>8} {:>12.1} {:>14.1} {:>9.1}% {:>10} {:>10} B {:>10} B",
            c.k,
            c.noop_wall_ms,
            c.streaming_wall_ms,
            c.overhead_frac * 100.0,
            c.events,
            c.peak_state_bytes,
            c.final_state_bytes
        );
    }

    let small = cells.first().expect("at least one cell");
    let large = cells.last().expect("at least one cell");
    let state_growth = large.peak_state_bytes as f64 / small.peak_state_bytes.max(1) as f64;
    let worst_overhead = cells
        .iter()
        .map(|c| c.overhead_frac)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\npeak state growth K={} → K={}: {state_growth:.3}× (budget ≤ {MAX_STATE_GROWTH}×)",
        small.k, large.k
    );
    println!(
        "worst streaming overhead: {:.1}% (budget ≤ {:.0}%)",
        worst_overhead * 100.0,
        MAX_OVERHEAD_FRAC * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"streaming recorder vs noop, K x linear_stage({TASKS_PER_WORKFLOW}, {TASK_SECS}s)\","
    );
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if check { "check" } else { "full" }
    );
    let _ = writeln!(json, "  \"max_overhead_frac\": {MAX_OVERHEAD_FRAC},");
    let _ = writeln!(json, "  \"max_state_growth\": {MAX_STATE_GROWTH},");
    let _ = writeln!(json, "  \"state_growth\": {state_growth:.4},");
    let _ = writeln!(json, "  \"worst_overhead_frac\": {worst_overhead:.4},");
    let _ = writeln!(
        json,
        "  \"peak_rss_bytes\": {},",
        wire_bench::peak_rss_bytes()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into())
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"noop_wall_ms\": {:.2}, \"streaming_wall_ms\": {:.2}, \
             \"overhead_frac\": {:.4}, \"events\": {}, \"peak_state_bytes\": {}, \
             \"final_state_bytes\": {}}}",
            c.k,
            c.noop_wall_ms,
            c.streaming_wall_ms,
            c.overhead_frac,
            c.events,
            c.peak_state_bytes,
            c.final_state_bytes
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("[json: {}]", path.display());

    let mut failed = false;
    if state_growth > MAX_STATE_GROWTH {
        eprintln!(
            "FAIL: peak retained state scales with K ({state_growth:.3}× > {MAX_STATE_GROWTH}×)"
        );
        failed = true;
    }
    if worst_overhead > MAX_OVERHEAD_FRAC {
        eprintln!(
            "FAIL: streaming overhead {:.1}% exceeds the {:.0}% budget",
            worst_overhead * 100.0,
            MAX_OVERHEAD_FRAC * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
