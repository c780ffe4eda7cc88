//! Deadline-aware scaling (extension): sweep the deadline and watch WIRE
//! trade cost for speed by modulating Algorithm 3's fill target — the
//! §IV-A "aggressiveness" knob driven by a completion-time projection.
//!
//! ```sh
//! cargo run --release --example deadline_scaling
//! ```

use wire::planner::GrowAheadWirePolicy;
use wire::prelude::*;

fn main() {
    let (wf, prof) = WorkloadId::PageRankL.generate(5);
    let cfg = CloudConfig::default();
    println!(
        "workload: {} ({} tasks, aggregate {})\n",
        wf.name(),
        wf.num_tasks(),
        prof.aggregate()
    );
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>8}",
        "deadline", "units", "makespan", "met?", "peak"
    );
    for deadline_mins in [600u64, 180, 120, 90, 60] {
        let deadline = Millis::from_mins(deadline_mins);
        let r = Session::new(cfg.clone())
            .transfer(TransferModel::default())
            .policy(GrowAheadWirePolicy::new(deadline))
            .seed(5)
            .submit(&wf, &prof)
            .run()
            .expect("completes");
        println!(
            "{:>12} {:>10} {:>12} {:>10} {:>8}",
            format!("{deadline_mins} min"),
            r.charging_units,
            r.makespan.to_string(),
            if r.makespan <= deadline { "yes" } else { "no" },
            r.peak_instances,
        );
    }
    println!();
    println!("Tighter deadlines flip the controller into urgent mode (fill");
    println!("target 0.1u instead of 1.0u), buying parallelism with partially");
    println!("used charging units. Impossible deadlines are missed anyway —");
    println!("stage barriers, launch lag and the serial prologue bound how");
    println!("fast any pool can finish — but the controller still shaves the");
    println!("makespan at a modest extra cost.");
}
