//! Service-scale traffic bench: drives the `wire traffic` simulator across
//! rising arrival counts and writes the evidence to
//! `results/BENCH_traffic.json`.
//!
//! Two claims, asserted (non-zero exit on failure):
//!
//! 1. **Scale** — 10^6 workflow arrivals complete on one core in minutes,
//!    every arrival accounted for.
//! 2. **Bounded memory** — peak RSS grows far sublinearly in the arrival
//!    count K (tenant sessions are bounded and sequentialized per worker;
//!    budget [`MAX_RSS_GROWTH`] × across K = 10^4 → 10^6).
//!
//! Runs K ∈ {10^4, 10^5, 10^6}, prints a table and writes the JSON.

use std::fmt::Write as _;
use std::time::Instant;
use wire_bench::peak_rss_bytes;
use wire_campaign::figures::results_dir;
use wire_campaign::{run_traffic, TrafficReport, TrafficSpec};

/// Peak RSS after the K = 10^6 cell may exceed the post-K = 10^4 mark by at
/// most this factor (the K itself grows 100×).
const MAX_RSS_GROWTH: f64 = 10.0;

/// Every cell runs single-threaded: the scale claim is "minutes on one
/// core", and single-core walls divide cleanly into per-event costs.
const THREADS: usize = 1;

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

struct Cell {
    k: usize,
    completed: u64,
    events: u64,
    charging_units: u64,
    wall_s: f64,
    digest: u64,
    peak_rss: Option<u64>,
}

fn run_cell(k: usize) -> Cell {
    let spec = TrafficSpec::with_total(k);
    let t0 = Instant::now();
    let report: TrafficReport = run_traffic(&spec, Some(THREADS));
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.completed_workflows,
        spec.total_arrivals() as u64,
        "K={k}: every arrival completes"
    );
    Cell {
        k,
        completed: report.completed_workflows,
        events: report.events_total,
        charging_units: report.charging_units,
        wall_s,
        digest: report.digest,
        peak_rss: peak_rss_bytes(),
    }
}

fn events_per_sec(c: &Cell) -> f64 {
    c.events as f64 / c.wall_s.max(1e-9)
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument '{arg}' (the traffic bench takes no flags)");
        std::process::exit(2);
    }
    println!("traffic bench: Poisson workflow arrivals across 1000-workflow tenants, single core");
    println!(
        "{:>9} {:>10} {:>11} {:>10} {:>13} {:>13} {:>12}",
        "K", "wall s", "events", "arr/s", "events/s", "digest", "peak RSS"
    );
    // ascending K so each cell's VmHWM high-water mark brackets its own
    // net contribution
    let cells: Vec<Cell> = SIZES
        .iter()
        .map(|&k| {
            let c = run_cell(k);
            println!(
                "{:>9} {:>10.2} {:>11} {:>10.0} {:>13.0} {:>13.8x} {:>12}",
                c.k,
                c.wall_s,
                c.events,
                c.completed as f64 / c.wall_s.max(1e-9),
                events_per_sec(&c),
                c.digest >> 32,
                c.peak_rss
                    .map(|b| format!("{:.1} MB", b as f64 / 1e6))
                    .unwrap_or_else(|| "n/a".into()),
            );
            c
        })
        .collect();

    let (first, last) = (&cells[0], cells.last().unwrap());
    let rss_growth = match (first.peak_rss, last.peak_rss) {
        (Some(small), Some(large)) => Some(large as f64 / small.max(1) as f64),
        _ => None,
    };
    if let Some(g) = rss_growth {
        println!(
            "\npeak RSS growth K={} -> K={}: {g:.2}x for a 100x larger stream (budget <= {MAX_RSS_GROWTH}x)",
            first.k, last.k
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"wire traffic: K-sweep, single-threaded\","
    );
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"max_rss_growth\": {MAX_RSS_GROWTH},");
    match rss_growth {
        Some(g) => {
            let _ = writeln!(json, "  \"rss_growth\": {g:.4},");
        }
        None => {
            let _ = writeln!(json, "  \"rss_growth\": null,");
        }
    }
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"completed_workflows\": {}, \"events\": {}, \
             \"charging_units\": {}, \"wall_s\": {:.3}, \"arrivals_per_sec\": {:.1}, \
             \"events_per_sec\": {:.1}, \"digest\": \"{:016x}\", \"peak_rss_bytes\": {}}}",
            c.k,
            c.completed,
            c.events,
            c.charging_units,
            c.wall_s,
            c.completed as f64 / c.wall_s.max(1e-9),
            events_per_sec(c),
            c.digest,
            c.peak_rss
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_traffic.json");
    std::fs::write(&path, json).expect("write BENCH_traffic.json");
    println!("[json: {}]", path.display());

    if let Some(g) = rss_growth.filter(|&g| g > MAX_RSS_GROWTH) {
        eprintln!("FAIL: peak RSS grew {g:.2}x across a 100x stream (budget <= {MAX_RSS_GROWTH}x)");
        std::process::exit(1);
    }
}
