//! The paper artifacts that bypass the cell cache: Table I, Figure 4 and
//! the §IV-D order spread, the pool-size timelines, and the offline paired
//! analysis of an archived campaign. `table1`, `fig4` and `analyze` run no
//! simulation cells; `timeline` runs four cells directly through
//! [`Cell::run`], because a pool timeline is not part of a cached
//! [`CellOutput`](crate::CellOutput).

use std::path::Path;

use wire_core::experiment::Setting;
use wire_core::prediction::{stage_order_spread, PredictionStudy};
use wire_core::{paired, parse_csv, summarize, FlatRun, Table};
use wire_dag::{width_profile, Millis};
use wire_predictor::StageClass;
use wire_workloads::WorkloadId;

use crate::figures::{emit, results_dir, save_csv, FigureOutcome, FigureRunner};
use crate::Cell;

impl FigureRunner {
    /// Table I — workflow characteristics, paper-reported vs generated.
    pub fn table1(&self) -> FigureOutcome {
        let mut t = Table::new([
            "run",
            "framework",
            "data GB (paper)",
            "data GB (ours)",
            "stages",
            "agg hours (paper)",
            "agg hours (ours)",
            "tasks (paper)",
            "tasks (ours)",
            "tasks/stage (paper)",
            "tasks/stage (ours)",
            "stage mean s (paper)",
            "stage mean s (ours)",
        ]);
        for id in WorkloadId::ALL {
            let row = id.paper_row();
            let (wf, prof) = id.generate(1);
            let wp = width_profile(&wf);
            let min_w = wf.stages().iter().map(|s| s.len()).min().unwrap();
            let means: Vec<f64> = wf
                .stage_ids()
                .map(|s| prof.stage_mean_secs(&wf, s))
                .collect();
            let min_m = means.iter().copied().fold(f64::INFINITY, f64::min);
            let max_m = means.iter().copied().fold(0.0_f64, f64::max);
            t.push_row([
                row.name.to_string(),
                row.framework.to_string(),
                format!("{}", row.data_gb),
                format!("{:.3}", id.spec().total_input_bytes as f64 / 1e9),
                format!("{}", wf.num_stages()),
                format!("{}", row.aggregate_hours),
                format!("{:.3}", prof.aggregate().as_secs_f64() / 3600.0),
                format!("{}", row.total_tasks),
                format!("{}", wf.num_tasks()),
                format!("{}–{}", row.tasks_per_stage.0, row.tasks_per_stage.1),
                format!("{}–{}", min_w, wp.max_width()),
                format!(
                    "{}–{}",
                    row.avg_stage_exec_secs.0, row.avg_stage_exec_secs.1
                ),
                format!("{:.2}–{:.2}", min_m, max_m),
            ]);
        }
        emit(
            "Table I — example workflows (paper vs generated, seed 1)",
            "table1",
            &t,
        );
        FigureOutcome::default()
    }

    /// Figure 4 — CDFs of task-performance prediction error.
    ///
    /// For each workload × stage class (short/medium/long), pool the signed
    /// prediction errors over eligible stages × repetitions × 5 random task
    /// orders and print the CDF plus the summary statistics §IV-D quotes:
    /// average |error| and the fraction of tasks within 1 s (short/medium)
    /// or 15 % (long). Then the §IV-D task-order spread per stage.
    pub fn fig4(&self) -> FigureOutcome {
        let study = PredictionStudy {
            workloads: WorkloadId::ALL.to_vec(),
            repetitions: self.by_size(1, 3),
            task_orders: 5,
            base_seed: 0xF164,
        };
        println!(
            "eligible multi-task stages across Table I: {} (paper: 45)",
            study.eligible_stages()
        );

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
        for b in &study.run() {
            // tolerance and CDF plotting range: absolute seconds for
            // short/medium stages, relative error for long ones
            let (tolerance, lo, hi) = match b.class {
                StageClass::Long => (0.15, -1.0, 1.0),
                _ => (1.0, -10.0, 10.0),
            };
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
        let (mut sm_within, mut sm_total, mut long_within, mut long_total) = (0, 0, 0, 0);
        for id in WorkloadId::ALL {
            let (wf, prof) = id.generate(study.base_seed);
            for stage in wf.stage_ids() {
                if wf.stage(stage).len() < 2 {
                    continue;
                }
                let sp = stage_order_spread(&wf, &prof, stage, study.task_orders, 0xD1CE);
                let (within, total, bound) = match sp.class {
                    StageClass::Long => (&mut long_within, &mut long_total, 0.152),
                    _ => (&mut sm_within, &mut sm_total, 1.8),
                };
                *total += 1;
                if sp.spread <= bound {
                    *within += 1;
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
        FigureOutcome::default()
    }

    /// The pool-size timeline of one run per setting — the data behind a
    /// "pool size over time" utilization plot (companion to Figures 5/6).
    pub fn timeline(&self) -> FigureOutcome {
        let workload = self.by_size(WorkloadId::Tpch6S, WorkloadId::EpigenomicsS);
        let u = Millis::from_mins(15);
        let mut t = Table::new(["setting", "t (s)", "pool size"]);
        for setting in Setting::ALL {
            let r = Cell::grid(workload, setting, u, 1).run(None, None);
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
        FigureOutcome::default()
    }

    /// Offline analysis of the archived campaign `results/campaign.csv`
    /// (written by [`FigureRunner::fig5`]): per-cell summaries plus paired
    /// wire-vs-full-site statistics, without re-running any simulation.
    /// Errors when the file is missing or malformed.
    pub fn analyze(&self) -> Result<FigureOutcome, String> {
        analyze_file(&results_dir().join("campaign.csv"))?;
        Ok(FigureOutcome::default())
    }
}

fn analyze_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run `wire campaign fig5` first to produce it)",
            path.display()
        )
    })?;
    let rows = parse_csv(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("loaded {} runs from {}\n", rows.len(), path.display());
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
        let (full, wire) = (pick("full-site"), pick("wire"));
        let costs =
            |runs: &[&FlatRun]| -> Vec<f64> { runs.iter().map(|r| r.cost_units as f64).collect() };
        let makespans =
            |runs: &[&FlatRun]| -> Vec<f64> { runs.iter().map(|r| r.makespan_secs).collect() };
        // `paired` is None for empty or unequal sides: such a key is skipped
        let (Some(cost), Some(mk)) = (
            paired(&costs(&full), &costs(&wire)),
            paired(&makespans(&full), &makespans(&wire)),
        ) else {
            continue;
        };
        // a side with all-zero cost or makespan has no meaningful ratio
        let saving = 1.0 / cost.mean_ratio;
        if !saving.is_finite() || !mk.mean_ratio.is_finite() {
            return Err(format!(
                "{}: {w} at u={u}: non-finite paired ratio (cost {saving}, makespan {})",
                path.display(),
                mk.mean_ratio
            ));
        }
        println!(
            "{:<14} {:>8} {:>15.2}x {:>17.2}x {:>17.0}%",
            w,
            u,
            saving,
            mk.mean_ratio,
            100.0 * cost.frac_b_better
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wire-analyze-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("campaign.csv")
    }

    #[test]
    fn analyze_reports_a_missing_csv() {
        let path = scratch("missing");
        let _ = std::fs::remove_file(&path);
        let err = analyze_file(&path).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert!(err.contains("wire campaign fig5"), "{err}");
    }

    #[test]
    fn analyze_reports_a_garbled_csv() {
        let path = scratch("garbled");
        let header = "workload,setting,u_mins,rep,cost_units,makespan_secs,peak_instances,restarts,busy_slot_secs,wasted_slot_secs";
        for text in [
            String::new(),
            "not,a,campaign\n".to_string(),
            format!("{header}\nTPCH-6 S,wire,15,0,3"),
            format!("{header}\nTPCH-6 S,wire,fifteen,0,3,1,1,0,1,0"),
            // well-formed, but a zero cost leaves no finite cost saving
            format!(
                "{header}\nTPCH-6 S,full-site,15,0,0,60,1,0,1,0\nTPCH-6 S,wire,15,0,3,60,1,0,1,0"
            ),
            format!(
                "{header}\nTPCH-6 S,full-site,15,0,3,60,1,0,1,0\nTPCH-6 S,wire,15,0,0,60,1,0,1,0"
            ),
        ] {
            std::fs::write(&path, &text).unwrap();
            assert!(analyze_file(&path).is_err(), "accepted {text:?}");
        }
        std::fs::write(&path, format!("{header}\nTPCH-6 S,wire,15,0,3,1,1,0,1,0\n")).unwrap();
        assert_eq!(analyze_file(&path), Ok(()));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
