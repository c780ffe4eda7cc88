//! Regenerate Figure 4: CDFs of task-performance prediction error.
//!
//! For each workload × stage class (short/medium/long), pool the signed
//! prediction errors over eligible stages × repetitions × 5 random task
//! orders and print the CDF plus the summary statistics §IV-D quotes:
//! average |error| and the fraction of tasks within 1 s (short/medium) or
//! 15 % (long).

use wire_bench::quick_mode;
use wire_campaign::figures::{emit, save_csv};
use wire_core::prediction::{stage_order_spread, PredictionStudy};
use wire_core::Table;
use wire_predictor::StageClass;

use wire_workloads::WorkloadId;

fn main() {
    let study = PredictionStudy {
        workloads: WorkloadId::ALL.to_vec(),
        repetitions: if quick_mode() { 1 } else { 3 },
        task_orders: 5,
        base_seed: 0xF164,
    };
    println!(
        "eligible multi-task stages across Table I: {} (paper: 45)",
        study.eligible_stages()
    );

    let buckets = study.run();

    let mut t = Table::new([
        "workload",
        "class",
        "stages",
        "samples",
        "mean |err|",
        "P(|err| ≤ 1 s / 15 %)",
        "p5",
        "median",
        "p95",
    ]);
    let mut series = Table::new(["workload", "class", "x", "cdf"]);
    for b in &buckets {
        let (tolerance, unit) = match b.class {
            StageClass::Long => (0.15, "15%"),
            _ => (1.0, "1s"),
        };
        let _ = unit;
        t.push_row([
            b.workload.to_string(),
            b.class.label().to_string(),
            b.stages.to_string(),
            b.cdf.len().to_string(),
            format!("{:.3}", b.cdf.mean_abs().unwrap_or(0.0)),
            format!("{:.1}%", 100.0 * b.cdf.fraction_abs_le(tolerance)),
            format!("{:.3}", b.cdf.quantile(0.05).unwrap_or(0.0)),
            format!("{:.3}", b.cdf.quantile(0.5).unwrap_or(0.0)),
            format!("{:.3}", b.cdf.quantile(0.95).unwrap_or(0.0)),
        ]);
        // CDF series over the paper's plotting ranges: ±10 s (short/medium),
        // ±1 relative (long)
        let (lo, hi) = match b.class {
            StageClass::Long => (-1.0, 1.0),
            _ => (-10.0, 10.0),
        };
        for (x, f) in b.cdf.series(lo, hi, 41) {
            series.push_row([
                b.workload.to_string(),
                b.class.label().to_string(),
                format!("{x:.3}"),
                format!("{f:.4}"),
            ]);
        }
    }
    emit(
        "Figure 4 — prediction-error summary per workload and stage class",
        "fig4_summary",
        &t,
    );
    let p = save_csv("fig4_cdf_series", &series);
    println!("[cdf series csv: {}]", p.display());

    // §IV-D task-order analysis: spread of mean |error| across 5 orders.
    // Paper: 29/34 short+medium stages ≤ 1.8 s spread; 8/11 long ≤ 15.2 %;
    // outliers have 5–17 tasks.
    let mut spread_t = Table::new(["workload", "stage", "class", "tasks", "spread (s or rel)"]);
    let mut sm_within = 0usize;
    let mut sm_total = 0usize;
    let mut long_within = 0usize;
    let mut long_total = 0usize;
    for id in WorkloadId::ALL {
        let (wf, prof) = id.generate(study.base_seed);
        for stage in wf.stage_ids() {
            if wf.stage(stage).len() < 2 {
                continue;
            }
            let sp = stage_order_spread(&wf, &prof, stage, study.task_orders, 0xD1CE);
            match sp.class {
                StageClass::Long => {
                    long_total += 1;
                    if sp.spread <= 0.152 {
                        long_within += 1;
                    }
                }
                _ => {
                    sm_total += 1;
                    if sp.spread <= 1.8 {
                        sm_within += 1;
                    }
                }
            }
            spread_t.push_row([
                id.name().to_string(),
                wf.stage(stage).name.clone(),
                sp.class.label().to_string(),
                sp.tasks.to_string(),
                format!("{:.3}", sp.spread),
            ]);
        }
    }
    emit(
        "§IV-D task-order spread per stage (paper: 29/34 s+m ≤ 1.8 s, 8/11 long ≤ 15.2%)",
        "fig4_order_spread",
        &spread_t,
    );
    println!("short+medium stages within 1.8 s spread: {sm_within}/{sm_total} (paper 29/34)");
    println!("long stages within 15.2% spread: {long_within}/{long_total} (paper 8/11)");
}
