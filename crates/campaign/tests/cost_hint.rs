//! `Cell::cost_hint` is the key the campaign runner sorts its misses by
//! (heaviest first). Pin the ranking that decides the campaign's critical
//! path, its monotonicity, and that it depends on the spec alone.

use rayon::prelude::*;
use wire_campaign::{grid_cells, Cell};
use wire_core::experiment::ExperimentGrid;
use wire_dag::Millis;
use wire_workloads::WorkloadId;

fn fig2(n: usize, ru: f64) -> Cell {
    let u = Millis::from_mins(1);
    Cell::linear(n, u.scale(ru), u)
}

#[test]
fn heaviest_figure2_cells_outrank_the_paper_grid() {
    let top = fig2(1000, 1000.0).cost_hint();
    let second = fig2(1000, 400.0).cost_hint();
    assert!(top > second, "{top} <= {second}");
    let grid = grid_cells(&ExperimentGrid::paper(WorkloadId::ALL.to_vec(), 3));
    for cell in &grid {
        assert!(
            second > cell.cost_hint(),
            "{} ({}) outranks the N=1000, R/U=400 cell ({second})",
            cell.label(),
            cell.cost_hint()
        );
    }
}

#[test]
fn hint_is_monotone_in_n_and_r() {
    let ns = [1, 10, 100, 1000];
    let rus = [1.5, 2.0, 4.0, 10.0, 40.0, 100.0, 400.0, 1000.0];
    for &ru in &rus {
        for w in ns.windows(2) {
            assert!(fig2(w[0], ru).cost_hint() < fig2(w[1], ru).cost_hint());
        }
    }
    for &n in &ns {
        for w in rus.windows(2) {
            assert!(fig2(n, w[0]).cost_hint() < fig2(n, w[1]).cost_hint());
        }
    }
}

#[test]
fn hint_depends_on_the_spec_alone() {
    let mut cells = grid_cells(&ExperimentGrid::paper(WorkloadId::SMALL.to_vec(), 1));
    cells.push(fig2(1000, 1000.0));
    cells.push(Cell::restart_probe(false));
    cells.push(Cell::restart_probe(true));
    let sequential: Vec<u64> = cells.iter().map(Cell::cost_hint).collect();
    let cloned: Vec<u64> = cells.clone().iter().map(Cell::cost_hint).collect();
    assert_eq!(sequential, cloned);
    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let pooled: Vec<u64> = pool.install(|| cells.par_iter().map(|c| c.cost_hint()).collect());
        assert_eq!(pooled, sequential, "hints moved at {threads} thread(s)");
    }
    // the restart probe's fixed 8 × 2 min + 8 × 25 min over its 3 min ticks
    assert_eq!(Cell::restart_probe(false).cost_hint(), 72);
}
