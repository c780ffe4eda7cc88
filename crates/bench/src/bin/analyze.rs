//! Offline analysis of an archived campaign (`results/campaign.csv`, written
//! by `wire campaign fig5`): per-cell summaries plus paired wire-vs-full-site
//! statistics, without re-running any simulation.

use wire_core::{paired, parse_csv, summarize, FlatRun};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/campaign.csv".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            eprintln!("run `wire campaign fig5` first to produce it");
            std::process::exit(1);
        }
    };
    let rows = parse_csv(&text).expect("valid campaign csv");
    println!("loaded {} runs from {path}\n", rows.len());
    print!("{}", summarize(&rows).render());

    // paired wire vs full-site per (workload, u): same seeds, lower = better
    println!("\npaired comparison (full-site vs wire, same seeds):\n");
    println!(
        "{:<14} {:>8} {:>16} {:>18} {:>18}",
        "workload", "u (min)", "cost ratio", "makespan ratio", "wire cheaper in"
    );
    let mut keys: Vec<(String, String)> = rows
        .iter()
        .map(|r| (r.workload.clone(), format!("{}", r.charging_unit_mins)))
        .collect();
    keys.sort();
    keys.dedup();
    for (w, u) in keys {
        let pick = |setting: &str| -> Vec<&FlatRun> {
            let mut v: Vec<&FlatRun> = rows
                .iter()
                .filter(|r| {
                    r.workload == w
                        && format!("{}", r.charging_unit_mins) == u
                        && r.setting == setting
                })
                .collect();
            v.sort_by_key(|r| r.repetition);
            v
        };
        let full = pick("full-site");
        let wire = pick("wire");
        if full.len() != wire.len() || full.is_empty() {
            continue;
        }
        let fc: Vec<f64> = full.iter().map(|r| r.cost_units as f64).collect();
        let wc: Vec<f64> = wire.iter().map(|r| r.cost_units as f64).collect();
        let fm: Vec<f64> = full.iter().map(|r| r.makespan_secs).collect();
        let wm: Vec<f64> = wire.iter().map(|r| r.makespan_secs).collect();
        let cost = paired(&fc, &wc).expect("same lengths");
        let mk = paired(&fm, &wm).expect("same lengths");
        println!(
            "{:<14} {:>8} {:>15.2}x {:>17.2}x {:>17.0}%",
            w,
            u,
            1.0 / cost.mean_ratio.max(1e-9),
            mk.mean_ratio,
            100.0 * cost.frac_b_better
        );
    }
}
