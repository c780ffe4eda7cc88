//! Run the paper's Epigenomics (Genome S) workflow under all four resource
//! management settings and compare cost and makespan, with a pool-size
//! timeline for the WIRE run.
//!
//! ```sh
//! cargo run --release --example epigenomics_autoscale
//! ```

use wire::campaign::Cell;
use wire::core::experiment::{cloud_config, Setting};
use wire::prelude::*;

fn sparkline(timeline: &[(Millis, u32)], makespan: Millis, buckets: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = timeline.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    let mut out = String::new();
    for i in 0..buckets {
        let t = makespan.scale(i as f64 / buckets as f64);
        // pool size in effect at time t
        let size = timeline
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .map(|&(_, c)| c)
            .unwrap_or(0);
        let idx = (size as usize * (GLYPHS.len() - 1)) / max as usize;
        out.push(GLYPHS[idx]);
    }
    out
}

fn main() {
    let workload = WorkloadId::EpigenomicsS;
    let u = Millis::from_mins(15);
    let seed = 1;

    println!(
        "Epigenomics (Genome S): {} tasks, charging unit {u}\n",
        workload.generate(seed).0.num_tasks()
    );
    println!(
        "{:<22} {:>12} {:>14} {:>10} {:>9}",
        "setting", "cost (units)", "makespan", "peak pool", "restarts"
    );

    let mut wire_run: Option<RunResult> = None;
    for setting in Setting::ALL {
        let result = Cell::grid(workload, setting, u, seed).run(None, None);
        println!(
            "{:<22} {:>12} {:>14} {:>10} {:>9}",
            setting.label(),
            result.charging_units,
            result.makespan.to_string(),
            result.peak_instances,
            result.restarts
        );
        if setting == Setting::Wire {
            wire_run = Some(result);
        }
    }

    let wire_run = wire_run.expect("wire setting ran");
    println!(
        "\nWIRE pool size over time (0 → {}):\n  {}",
        wire_run.makespan,
        sparkline(&wire_run.pool_timeline, wire_run.makespan, 60)
    );
    let cfg = cloud_config(Setting::Wire, u);
    println!(
        "\nWIRE paid utilization: {:.1}%  (site: {} instances × {} slots)",
        100.0 * wire_run.paid_utilization(u, cfg.slots_per_instance),
        cfg.site_capacity,
        cfg.slots_per_instance,
    );
}
