//! Differential tests for the campaign runner: thread count and cache state
//! must be unobservable in campaign outputs.
//!
//! * the same spec at 1 and 8 worker threads produces byte-identical CSV
//!   bytes and the same golden cost/makespan values;
//! * a warm-cache rerun executes zero cells and still produces the same
//!   bytes;
//! * corrupt cache entries (truncated or garbled) are detected, counted and
//!   recomputed — never served;
//! * invariant violations come back sorted by cell, identically at any
//!   thread count.

use std::path::PathBuf;

use common::GOLDEN;
use wire::core::experiment::{cloud_config, ExperimentGrid, Setting};
use wire::prelude::*;
use wire_campaign::{
    cache, cache_key, grid_cells, grid_results_from, run_campaign, CacheMode, CampaignConfig, Cell,
};

mod common;

/// A small but non-trivial spec: a 2-workload grid (both grid dimensions
/// exercised) plus Figure 2-style linear cells, 20 cells total.
fn spec() -> (ExperimentGrid, Vec<Cell>) {
    let grid = ExperimentGrid::paper(vec![WorkloadId::Tpch6S, WorkloadId::PageRankS], 1);
    let mut cells = grid_cells(&grid);
    for n in [10, 100] {
        for ru in [1.5, 4.0] {
            let u = Millis::from_secs(60);
            cells.push(Cell::linear(n, u.scale(ru), u));
        }
    }
    (grid, cells)
}

fn uncached(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads: Some(threads),
        mode: CacheMode::Off,
        ..Default::default()
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wire-campaign-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The CSV the fig5 front-end archives, rendered from campaign outputs via
/// `wire_core`'s own aggregation path.
fn campaign_csv(grid: &ExperimentGrid, outputs: &[wire_campaign::CellOutput]) -> String {
    wire::core::to_csv(&wire::core::flatten(&grid_results_from(grid, outputs)))
}

#[test]
fn thread_count_is_unobservable() {
    let (grid, cells) = spec();
    let one = run_campaign(&cells, &uncached(1));
    let eight = run_campaign(&cells, &uncached(8));
    assert_eq!(one.executed, cells.len());
    assert_eq!(eight.executed, cells.len());
    assert_eq!(
        one.outputs, eight.outputs,
        "outputs differ across thread counts"
    );

    let n = grid_cells(&grid).len();
    let csv_one = campaign_csv(&grid, &one.outputs[..n]);
    let csv_eight = campaign_csv(&grid, &eight.outputs[..n]);
    assert_eq!(
        csv_one.as_bytes(),
        csv_eight.as_bytes(),
        "CSV bytes differ across thread counts"
    );
}

#[test]
fn campaign_matches_golden_values_at_any_thread_count() {
    // every pinned (workload, setting, u, seed) row tests/golden.rs asserts
    // on a direct cell run: the campaign path must reproduce them exactly
    let cells: Vec<Cell> = GOLDEN
        .iter()
        .map(|&(w, s, u, seed, _, _)| Cell::grid(w, s, Millis::from_mins(u), seed))
        .collect();
    for threads in [1, 4] {
        let report = run_campaign(&cells, &uncached(threads));
        assert_eq!(report.outputs.len(), GOLDEN.len());
        for (out, &(w, s, u, seed, units, makespan_ms)) in report.outputs.iter().zip(GOLDEN) {
            assert_eq!(
                (out.charging_units, out.makespan_ms),
                (units, makespan_ms),
                "{} / {} / u={u} / seed={seed} at {threads} thread(s)",
                w.name(),
                s.label()
            );
        }
    }
}

#[test]
fn warm_cache_executes_nothing_and_changes_nothing() {
    let (grid, cells) = spec();
    let dir = temp_cache("warm");
    let cfg = CampaignConfig {
        threads: Some(4),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cfg);
    let warm = run_campaign(&cells, &cfg);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold.executed, cells.len());
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(warm.executed, 0, "warm run must not execute any session");
    assert_eq!(warm.cache_hits, cells.len());
    assert_eq!(cold.outputs, warm.outputs);

    let n = grid_cells(&grid).len();
    assert_eq!(
        campaign_csv(&grid, &cold.outputs[..n]).as_bytes(),
        campaign_csv(&grid, &warm.outputs[..n]).as_bytes(),
        "cache state changed CSV bytes"
    );
}

#[test]
fn spot_cells_are_thread_and_cache_invariant_with_pinned_costs() {
    // The quick spot-figure cells for Genome S (the `wire campaign spot
    // --quick` rows): legacy on-demand procurement, a mixed fleet keeping
    // half the launches on-demand, and all-spot steering, at eviction means
    // of 15 and 60 minutes. Mirrors `figures::spot` cell construction.
    let u = Millis::from_mins(1);
    let w = WorkloadId::EpigenomicsS;
    let mk = |mtbe: u64, floor: Option<f64>| -> Cell {
        let base = cloud_config(Setting::Wire, u);
        match floor {
            None => Cell::wire(w, base, SteeringConfig::default(), 1),
            Some(f) => {
                let slots = base.slots_per_instance;
                let cfg = base.with_families(vec![
                    FamilySpec::new("od", slots, 1000),
                    FamilySpec::new("spot", slots, 1000).spot(Millis::from_mins(mtbe), 400),
                ]);
                Cell::wire(
                    w,
                    cfg,
                    SteeringConfig {
                        spot_on_demand_floor: Some(f),
                        ..SteeringConfig::default()
                    },
                    1,
                )
            }
        }
    };
    let cells = vec![
        mk(15, None),
        mk(15, Some(0.5)),
        mk(15, Some(0.0)),
        mk(60, None),
        mk(60, Some(0.5)),
        mk(60, Some(0.0)),
    ];

    let one = run_campaign(&cells, &uncached(1));
    let four = run_campaign(&cells, &uncached(4));
    assert_eq!(
        one.outputs, four.outputs,
        "spot cells depend on thread count"
    );

    // a warm cache round-trips every priced field byte-identically
    let dir = temp_cache("spot");
    let cfg = CampaignConfig {
        threads: Some(2),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cfg);
    let warm = run_campaign(&cells, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.executed, 0, "warm spot rerun must be all cache hits");
    assert_eq!(cold.outputs, one.outputs);
    assert_eq!(warm.outputs, one.outputs);

    // pinned economics: on-demand is flat at $80 regardless of the eviction
    // rate; all-spot is far cheaper; and the mixed fleet's bill shifts with
    // the eviction rate — WIRE's cost edge measurably depends on mtbe
    let cost = |i: usize| one.outputs[i].cost_milli;
    assert_eq!(
        (cost(0), cost(3)),
        (80_000, 80_000),
        "on-demand baseline moved"
    );
    assert_eq!((cost(1), cost(2)), (79_800, 44_800), "mtbe=15 bills moved");
    assert_eq!((cost(4), cost(5)), (67_200, 44_800), "mtbe=60 bills moved");
    assert!(
        one.outputs[2].evictions > one.outputs[5].evictions,
        "a 4× faster eviction rate must evict more instances"
    );
    assert_eq!(
        one.outputs[0].evictions, 0,
        "legacy procurement cannot evict"
    );
}

#[test]
fn budget_cells_are_thread_and_cache_invariant_with_pinned_costs() {
    // The quick budget-figure cells (`wire campaign budget --quick`):
    // unconstrained baselines for Genome S and TPCH-6 L at a 1-minute unit,
    // then ceilings at 0.1× and 1.0× each baseline's natural bill. Mirrors
    // `figures::budget` cell construction, including the ceiling rounding.
    let u = Millis::from_mins(1);
    let workloads = [WorkloadId::EpigenomicsS, WorkloadId::Tpch6L];
    let baseline = |w| {
        Cell::wire(
            w,
            cloud_config(Setting::Wire, u),
            SteeringConfig::default(),
            1,
        )
    };
    let budgeted = |w, base_cost_milli: u64, frac: f64| {
        let ceiling = ((base_cost_milli as f64 * frac).round() as u64).max(1);
        Cell::wire(
            w,
            cloud_config(Setting::Wire, u).with_budget(ceiling),
            SteeringConfig::default(),
            1,
        )
    };

    let baselines = run_campaign(&workloads.map(baseline), &uncached(1));
    // pinned natural bills — the ceilings below derive from these
    let base_costs: Vec<u64> = baselines.outputs.iter().map(|o| o.cost_milli).collect();
    assert_eq!(
        base_costs,
        [80_000, 45_000],
        "unconstrained baselines moved"
    );

    let cells: Vec<Cell> = workloads
        .iter()
        .zip(&base_costs)
        .flat_map(|(&w, &cost)| [budgeted(w, cost, 0.1), budgeted(w, cost, 1.0)])
        .collect();

    let one = run_campaign(&cells, &uncached(1));
    let four = run_campaign(&cells, &uncached(4));
    assert_eq!(
        one.outputs, four.outputs,
        "budget cells depend on thread count"
    );

    // a warm cache round-trips every budgeted field byte-identically
    let dir = temp_cache("budget");
    let cfg = CampaignConfig {
        threads: Some(2),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cfg);
    let warm = run_campaign(&cells, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.executed, 0, "warm budget rerun must be all cache hits");
    assert_eq!(cold.outputs, one.outputs);
    assert_eq!(warm.outputs, one.outputs);

    // pinned economics (results/budget.csv quick rows): a 0.1× ceiling
    // throttles growth — cheaper peak, longer makespan — while a 1.0×
    // ceiling reproduces the unconstrained run exactly
    let cost = |i: usize| one.outputs[i].cost_milli;
    assert_eq!((cost(0), cost(2)), (74_000, 29_000), "0.1× ceilings moved");
    assert_eq!((cost(1), cost(3)), (80_000, 45_000), "1.0× ceilings moved");
    for (i, w) in [(1usize, 0usize), (3, 1)] {
        assert_eq!(
            one.outputs[i].makespan_ms, baselines.outputs[w].makespan_ms,
            "a full-bill ceiling must not slow the run down"
        );
    }
    for (i, w) in [(0usize, 0usize), (2, 1)] {
        assert!(
            one.outputs[i].makespan_ms > baselines.outputs[w].makespan_ms,
            "a 0.1× ceiling must cost makespan (cell {i})"
        );
    }
}

#[test]
fn corrupt_cache_entries_are_detected_and_recomputed() {
    let (_, cells) = spec();
    let dir = temp_cache("corrupt");
    let cfg = CampaignConfig {
        threads: Some(2),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cfg);

    // truncate one entry and garble another, leaving the rest intact
    let truncated = cache::entry_path(&dir, cache_key(&cells[0]));
    let text = std::fs::read_to_string(&truncated).unwrap();
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    let garbled = cache::entry_path(&dir, cache_key(&cells[7]));
    let mut bytes = std::fs::read(&garbled).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    std::fs::write(&garbled, &bytes).unwrap();

    let repaired = run_campaign(&cells, &cfg);
    assert_eq!(
        repaired.corrupt_entries, 2,
        "both bad entries must be flagged"
    );
    assert_eq!(repaired.executed, 2, "exactly the bad cells recompute");
    assert_eq!(repaired.cache_hits, cells.len() - 2);
    assert_eq!(
        repaired.outputs, cold.outputs,
        "recomputed cells must agree"
    );

    // and the recompute heals the cache: a third run is all hits
    let healed = run_campaign(&cells, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(healed.executed, 0);
    assert_eq!(healed.outputs, cold.outputs);
}

#[test]
fn violations_are_sorted_by_cell_at_any_thread_count() {
    // two restart-guard mutants among clean cells. The later one ticks
    // three times as often, so its cost hint is higher and heaviest-first
    // finishes it before the earlier one even on a single thread.
    let mut late = Cell::restart_probe(true);
    late.cfg.mape_interval = Millis::from_mins(1);
    let mut cells = grid_cells(&ExperimentGrid::paper(vec![WorkloadId::Tpch6S], 1));
    cells.insert(1, Cell::restart_probe(true));
    cells.insert(5, Cell::restart_probe(false));
    cells.push(late);
    let mutants = [1, cells.len() - 1];
    let checked = |threads| CampaignConfig {
        check: true,
        ..uncached(threads)
    };
    let one = run_campaign(&cells, &checked(1)).violations;
    let four = run_campaign(&cells, &checked(4)).violations;
    assert_eq!(one, four, "violation order depends on thread count");
    let offenders: Vec<usize> = one.iter().map(|v| v.cell).collect();
    assert!(
        offenders.windows(2).all(|w| w[0] <= w[1]),
        "violations not sorted by cell: {offenders:?}"
    );
    for m in mutants {
        assert!(offenders.contains(&m), "mutant cell {m} not reported");
    }
    assert!(
        offenders.iter().all(|i| mutants.contains(i)),
        "a clean cell reported a violation: {offenders:?}"
    );
}
