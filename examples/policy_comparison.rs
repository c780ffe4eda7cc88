//! Sweep the charging unit for one workload and show the cost/performance
//! trade-off of every policy — the essence of Figures 5 and 6 on a single
//! workload, as a library-user-facing example.
//!
//! ```sh
//! cargo run --release --example policy_comparison [-- pagerank-l]
//! ```

use wire::campaign::Cell;
use wire::core::experiment::{Setting, CHARGING_UNITS_MINS};
use wire::prelude::*;

fn pick_workload() -> WorkloadId {
    match std::env::args().nth(1).as_deref() {
        Some("genome-s") => WorkloadId::EpigenomicsS,
        Some("genome-l") => WorkloadId::EpigenomicsL,
        Some("tpch1-s") => WorkloadId::Tpch1S,
        Some("tpch1-l") => WorkloadId::Tpch1L,
        Some("tpch6-s") => WorkloadId::Tpch6S,
        Some("tpch6-l") => WorkloadId::Tpch6L,
        Some("pagerank-l") => WorkloadId::PageRankL,
        _ => WorkloadId::PageRankS,
    }
}

fn main() {
    let workload = pick_workload();
    println!("workload: {}\n", workload.name());
    println!(
        "{:<22} {:>8} {:>14} {:>14} {:>8}",
        "setting", "u (min)", "cost (units)", "makespan", "util %"
    );
    for setting in Setting::ALL {
        for &u_min in &CHARGING_UNITS_MINS {
            let u = Millis::from_mins(u_min);
            let r = Cell::grid(workload, setting, u, 7).run(None, None);
            println!(
                "{:<22} {:>8} {:>14} {:>14} {:>8.1}",
                setting.label(),
                u_min,
                r.charging_units,
                r.makespan.to_string(),
                100.0 * r.paid_utilization(u, 4),
            );
        }
        println!();
    }
    println!("Reading guide: full-site buys speed with idle units; wire tracks");
    println!("the DAG's width to keep utilization high, trading a bounded");
    println!("slowdown for a multiple lower bill (paper §IV-E).");
}
