//! MAPE hot-path trajectory benchmark: a fixed fig2-style sweep (single
//! linear stage, WIRE policy, idealized single-slot instances) timed with
//! the engine's per-tick controller clock, written to
//! `results/BENCH_plan_tick.json` so successive PRs can track the
//! controller's per-tick cost.
//!
//! * default: N ∈ {100, 1000, 4000}; prints a table and writes the JSON.
//! * `--check`: N = 1000 only (CI smoke); still writes the JSON with
//!   `"mode": "check"`.
//!
//! The JSON reports, per cell: MAPE tick count, median / p90 controller
//! microseconds per tick, total controller wall, end-to-end run wall,
//! controller share of run wall, and simulated tasks per wall-second.
//! `baseline_n1000_median_tick_us` pins the pre-optimization cost of the
//! N = 1000 cell (measured on this machine class before the scratch-reuse
//! work landed); `speedup_n1000_vs_baseline` is the current win against it.

use std::fmt::Write as _;
use std::time::Instant;
use wire_campaign::figures::results_dir;
use wire_dag::Millis;
use wire_planner::WirePolicy;
use wire_simcloud::{CloudConfig, Session, TransferModel};
use wire_telemetry::{Recorder, TelemetryEvent, TickStats};
use wire_workloads::linear_stage;

/// Minimal recorder keeping one controller-µs sample per MAPE tick — no
/// locks, no journal, so the engine's hot path is measured undisturbed.
#[derive(Default)]
struct TickSampler {
    tick_us: Vec<u64>,
}

impl Recorder for TickSampler {
    fn record(&mut self, _at: Millis, _event: TelemetryEvent) {}
    fn tick(&mut self, _at: Millis, stats: TickStats) {
        self.tick_us.push(stats.controller_micros);
    }
}

/// Median controller µs/tick of the N = 1000 cell measured immediately
/// before the zero-allocation MAPE work: this same binary compiled against
/// the pre-optimization commit (the one that vendored the RNG and pinned
/// the goldens), run warm on the same machine (median of 3 runs: 32/33/30).
const BASELINE_N1000_MEDIAN_TICK_US: f64 = 32.0;

/// Stage runtime R and charging unit U of the sweep (fig2's R < U regime;
/// the control interval becomes min(R, U)/20 = 3 s as in
/// `wire_campaign::Cell::linear`).
const STAGE_RUNTIME_SECS: u64 = 60;
const CHARGING_UNIT_MINS: u64 = 15;

struct Cell {
    n: usize,
    ticks: usize,
    median_tick_us: f64,
    p90_tick_us: f64,
    controller_wall_ms: f64,
    run_wall_ms: f64,
    controller_share: f64,
    tasks_per_wall_sec: f64,
}

fn run_cell(n: usize) -> Cell {
    let r = Millis::from_secs(STAGE_RUNTIME_SECS);
    let u = Millis::from_mins(CHARGING_UNIT_MINS);
    let interval = Millis::from_ms((r.as_ms().min(u.as_ms()) / 20).max(1_000));
    let cfg = CloudConfig::linear_analysis(u, interval);
    let (wf, prof) = linear_stage(n, r);

    let mut sampler = TickSampler::default();
    let t0 = Instant::now();
    let res = Session::new(cfg)
        .transfer(TransferModel::none())
        .policy(WirePolicy::default())
        .seed(1)
        .recording(&mut sampler)
        .submit(&wf, &prof)
        .run()
        .expect("linear stage completes");
    let run_wall = t0.elapsed();

    let mut tick_us = sampler.tick_us;
    assert!(!tick_us.is_empty(), "run produced no MAPE ticks");
    tick_us.sort_unstable();
    let median = tick_us[tick_us.len() / 2] as f64;
    let p90 = tick_us[((tick_us.len() * 9) / 10).min(tick_us.len() - 1)] as f64;
    let controller_ms = res.controller_wall.as_secs_f64() * 1e3;
    let run_ms = run_wall.as_secs_f64() * 1e3;

    Cell {
        n,
        ticks: tick_us.len(),
        median_tick_us: median,
        p90_tick_us: p90,
        controller_wall_ms: controller_ms,
        run_wall_ms: run_ms,
        controller_share: controller_ms / run_ms,
        tasks_per_wall_sec: n as f64 / run_wall.as_secs_f64().max(1e-9),
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let sizes: &[usize] = if check { &[1000] } else { &[100, 1000, 4000] };

    println!(
        "MAPE plan-tick sweep: linear stage, R={STAGE_RUNTIME_SECS}s, \
         U={CHARGING_UNIT_MINS}min, wire policy"
    );
    println!(
        "{:>6} {:>7} {:>16} {:>13} {:>16} {:>12} {:>10} {:>14}",
        "N",
        "ticks",
        "median µs/tick",
        "p90 µs/tick",
        "controller ms",
        "run wall ms",
        "share",
        "tasks/wall-s"
    );

    let cells: Vec<Cell> = sizes.iter().map(|&n| run_cell(n)).collect();
    for c in &cells {
        println!(
            "{:>6} {:>7} {:>16.1} {:>13.1} {:>16.2} {:>12.2} {:>9.2}% {:>14.0}",
            c.n,
            c.ticks,
            c.median_tick_us,
            c.p90_tick_us,
            c.controller_wall_ms,
            c.run_wall_ms,
            c.controller_share * 100.0,
            c.tasks_per_wall_sec
        );
    }

    let n1000 = cells
        .iter()
        .find(|c| c.n == 1000)
        .expect("sweep includes N=1000");
    let speedup = if BASELINE_N1000_MEDIAN_TICK_US > 0.0 {
        BASELINE_N1000_MEDIAN_TICK_US / n1000.median_tick_us.max(1e-9)
    } else {
        0.0
    };
    if BASELINE_N1000_MEDIAN_TICK_US > 0.0 {
        println!(
            "\nN=1000 median tick: {:.1} µs vs pre-change baseline {:.1} µs → {:.2}×",
            n1000.median_tick_us, BASELINE_N1000_MEDIAN_TICK_US, speedup
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"sweep\": \"linear_stage fig2-style, wire policy, R={STAGE_RUNTIME_SECS}s, U={CHARGING_UNIT_MINS}min\","
    );
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if check { "check" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"baseline_n1000_median_tick_us\": {BASELINE_N1000_MEDIAN_TICK_US:.1},"
    );
    let _ = writeln!(json, "  \"speedup_n1000_vs_baseline\": {speedup:.3},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"ticks\": {}, \"median_tick_us\": {:.1}, \"p90_tick_us\": {:.1}, \
             \"controller_wall_ms\": {:.2}, \"run_wall_ms\": {:.2}, \
             \"controller_share\": {:.4}, \"tasks_per_wall_sec\": {:.0}}}",
            c.n,
            c.ticks,
            c.median_tick_us,
            c.p90_tick_us,
            c.controller_wall_ms,
            c.run_wall_ms,
            c.controller_share,
            c.tasks_per_wall_sec
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = results_dir().join("BENCH_plan_tick.json");
    std::fs::write(&path, json).expect("write BENCH_plan_tick.json");
    println!("[json: {}]", path.display());
}
