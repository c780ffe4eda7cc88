//! Service-scale traffic bench: drives the `wire traffic` simulator across
//! rising arrival counts and writes the evidence to
//! `results/BENCH_traffic.json`.
//!
//! Three claims, asserted (non-zero exit on failure):
//!
//! 1. **Throughput** — the indexed engine core sustains ≥ [`MIN_SPEEDUP`] ×
//!    the events/sec of the naive pre-indexing core (legacy binary-heap
//!    event queue, full per-tick linear scans, dense per-stage observation)
//!    *on the same stream*, with byte-identical digests — the in-binary
//!    baseline is recorded in the JSON.
//! 2. **Scale** — the full run completes 10^6 workflow arrivals on one
//!    core in minutes.
//! 3. **Bounded memory** — peak RSS grows far sublinearly in the arrival
//!    count K (tenant sessions are bounded and sequentialized per worker;
//!    budget [`MAX_RSS_GROWTH`] × across K = 10^4 → 10^6).
//!
//! * default: indexed K ∈ {10^4, 10^5, 10^6} plus the naive baseline at
//!   K = 10^4; prints a table and writes the JSON.
//! * `--check`: indexed and naive at K = 10^4 only (CI smoke); still writes
//!   the JSON with `"mode": "check"`.

use std::fmt::Write as _;
use std::time::Instant;
use wire_bench::peak_rss_bytes;
use wire_campaign::figures::results_dir;
use wire_campaign::{run_traffic, TrafficReport, TrafficSpec};

/// Indexed events/sec must be at least this multiple of the naive core's on
/// the same K = 10^4 stream.
const MIN_SPEEDUP: f64 = 5.0;

/// Peak RSS after the K = 10^6 cell may exceed the post-K = 10^4 mark by at
/// most this factor (the K itself grows 100×).
const MAX_RSS_GROWTH: f64 = 10.0;

/// Every cell runs single-threaded: the scale claim is "minutes on one
/// core", and single-core walls divide cleanly into per-event costs.
const THREADS: usize = 1;

struct Cell {
    k: usize,
    naive: bool,
    completed: u64,
    events: u64,
    charging_units: u64,
    wall_s: f64,
    digest: u64,
    peak_rss: Option<u64>,
}

fn run_cell(k: usize, naive: bool) -> Cell {
    let spec = TrafficSpec {
        naive,
        ..TrafficSpec::with_total(k)
    };
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
        naive,
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
    let check = std::env::args().any(|a| a == "--check");
    let sizes: &[usize] = if check {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    println!(
        "traffic bench: Poisson workflow arrivals across 1000-workflow tenants, \
         single core, indexed vs naive engine core"
    );
    println!(
        "{:>9} {:>8} {:>10} {:>11} {:>10} {:>13} {:>13} {:>12}",
        "K", "core", "wall s", "events", "arr/s", "events/s", "digest", "peak RSS"
    );
    let print_cell = |c: &Cell| {
        println!(
            "{:>9} {:>8} {:>10.2} {:>11} {:>10.0} {:>13.0} {:>13.8x} {:>12}",
            c.k,
            if c.naive { "naive" } else { "indexed" },
            c.wall_s,
            c.events,
            c.completed as f64 / c.wall_s.max(1e-9),
            events_per_sec(c),
            c.digest >> 32,
            c.peak_rss
                .map(|b| format!("{:.1} MB", b as f64 / 1e6))
                .unwrap_or_else(|| "n/a".into()),
        );
    };

    // ascending K so each cell's VmHWM high-water mark brackets its own
    // net contribution; the naive baseline runs last (same K as the first
    // cell, so it cannot move the RSS comparison)
    let cells: Vec<Cell> = sizes.iter().map(|&k| run_cell(k, false)).collect();
    for c in &cells {
        print_cell(c);
    }
    let baseline = run_cell(sizes[0], true);
    print_cell(&baseline);

    let indexed_small = &cells[0];
    assert_eq!(
        indexed_small.digest, baseline.digest,
        "core swap moved the K={} digest",
        baseline.k
    );
    let speedup = events_per_sec(indexed_small) / events_per_sec(&baseline);
    let rss_growth = match (indexed_small.peak_rss, cells.last().unwrap().peak_rss) {
        (Some(small), Some(large)) if !check => Some(large as f64 / small.max(1) as f64),
        _ => None,
    };
    println!(
        "\nindexed vs naive events/sec at K={}: {speedup:.1}x (budget >= {MIN_SPEEDUP}x)",
        baseline.k
    );
    if let Some(g) = rss_growth {
        println!(
            "peak RSS growth K={} -> K={}: {g:.2}x for a 100x larger stream (budget <= {MAX_RSS_GROWTH}x)",
            cells[0].k,
            cells.last().unwrap().k
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"wire traffic: indexed vs naive engine core, single-threaded\","
    );
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if check { "check" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"min_events_speedup\": {MIN_SPEEDUP},");
    let _ = writeln!(json, "  \"events_speedup\": {speedup:.3},");
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
    let all: Vec<&Cell> = cells.iter().chain(std::iter::once(&baseline)).collect();
    for (i, c) in all.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"core\": \"{}\", \"completed_workflows\": {}, \"events\": {}, \
             \"charging_units\": {}, \"wall_s\": {:.3}, \"arrivals_per_sec\": {:.1}, \
             \"events_per_sec\": {:.1}, \"digest\": \"{:016x}\", \"peak_rss_bytes\": {}}}",
            c.k,
            if c.naive { "naive" } else { "indexed" },
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
        json.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_traffic.json");
    std::fs::write(&path, json).expect("write BENCH_traffic.json");
    println!("[json: {}]", path.display());

    let mut failed = false;
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: indexed core is only {speedup:.1}x the naive events/sec (budget >= {MIN_SPEEDUP}x)"
        );
        failed = true;
    }
    if let Some(g) = rss_growth {
        if g > MAX_RSS_GROWTH {
            eprintln!(
                "FAIL: peak RSS grew {g:.2}x across a 100x stream (budget <= {MAX_RSS_GROWTH}x)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
