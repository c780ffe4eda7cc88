//! Export the pool-size timeline of one run per setting — the data behind a
//! "pool size over time" utilization plot (companion to Figures 5/6).

use wire_bench::quick_mode;
use wire_campaign::figures::emit;
use wire_core::experiment::{run_setting, Setting};
use wire_core::Table;
use wire_dag::Millis;
use wire_workloads::WorkloadId;

fn main() {
    let workload = if quick_mode() {
        WorkloadId::Tpch6S
    } else {
        WorkloadId::EpigenomicsS
    };
    let u = Millis::from_mins(15);
    let mut t = Table::new(["setting", "t (s)", "pool size"]);
    for setting in Setting::ALL {
        let r = run_setting(workload, setting, u, 1);
        for &(at, size) in &r.pool_timeline {
            t.push_row([
                setting.label().to_string(),
                format!("{:.0}", at.as_secs_f64()),
                size.to_string(),
            ]);
        }
    }
    emit(
        &format!("Pool-size timelines for {} (u = 15 min)", workload.name()),
        "timeline",
        &t,
    );
}
