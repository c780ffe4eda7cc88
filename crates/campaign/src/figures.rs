//! Figure/table regeneration as thin front-ends over the campaign runner —
//! the code behind `wire campaign <target>`.
//!
//! Each front-end builds its sweep once, as `(row key, cell)` pairs; the
//! cells shard across the thread pool, completed cells are served from the
//! content-addressed cache, and the outputs come back paired with their row
//! keys in spec order, which keeps every regenerated `results/*.csv`
//! byte-identical regardless of thread count or cache state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wire_core::experiment::{
    best_makespan_secs, cloud_config, cloud_config_for, headline, ExperimentGrid, GridResult,
    Setting, CHARGING_UNITS_MINS,
};
use wire_core::prediction::stage_prediction_errors_with;
use wire_core::{fmt_mean_std, line_chart, Series, Table};
use wire_dag::Millis;
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::{SteeringConfig, WirePolicy};
use wire_predictor::Estimator;
use wire_simcloud::{FamilySpec, RunResult, SchedulerSpec, Session, TransferModel};
use wire_telemetry::{Recorder, TelemetryEvent, TelemetryHandle, TickStats};
use wire_workloads::WorkloadId;

use crate::cell::{CellOutput, CellWorkload, PolicyKind, TransferKind};
use crate::runner::{run_campaign, CacheMode, CampaignConfig, CampaignReport, CellViolation};
use crate::Cell;

/// The Figure 2/3 anchor: U for Figure 2, R for Figure 3.
const MINUTE: Millis = Millis::from_mins(1);

/// Growth-heavy Table I workloads for the spot and budget sweeps (the
/// quick sweeps take the first two).
const GROWTH_HEAVY: [WorkloadId; 4] = [
    WorkloadId::EpigenomicsS,
    WorkloadId::Tpch6L,
    WorkloadId::Tpch1L,
    WorkloadId::PageRankL,
];

/// Directory (relative to the workspace root) where CSVs land.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a table as `results/<name>.csv` and return the path.
pub fn save_csv(name: &str, table: &Table) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    path
}

/// Print a titled table and persist its CSV.
pub fn emit(title: &str, name: &str, table: &Table) {
    println!("\n== {title} ==\n");
    print!("{}", table.render());
    let path = save_csv(name, table);
    println!("[csv: {}]", path.display());
}

/// Aggregate campaign statistics for one figure regeneration.
#[derive(Debug, Default)]
pub struct FigureOutcome {
    pub cells: usize,
    pub executed: usize,
    pub cache_hits: usize,
    pub corrupt_entries: usize,
    pub violations: Vec<CellViolation>,
    /// Deterministic observability aggregate across every campaign this
    /// figure ran, merged in spec order (see [`CampaignReport::obs`]).
    pub obs: ObsSnapshot,
}

impl FigureOutcome {
    fn absorb(&mut self, report: &CampaignReport) {
        self.cells += report.outputs.len();
        self.executed += report.executed;
        self.cache_hits += report.cache_hits;
        self.corrupt_entries += report.corrupt_entries;
        self.violations.extend(report.violations.iter().cloned());
        self.obs.merge(&report.obs);
    }

    /// Fold another figure's outcome into this one (used by the CLI to
    /// aggregate across `--all` targets before writing the snapshot).
    pub fn absorb_outcome(&mut self, other: &FigureOutcome) {
        self.cells += other.cells;
        self.executed += other.executed;
        self.cache_hits += other.cache_hits;
        self.corrupt_entries += other.corrupt_entries;
        self.violations.extend(other.violations.iter().cloned());
        self.obs.merge(&other.obs);
    }
}

/// Write the merged campaign observability snapshot as
/// `results/OBS_snapshot.json` and return the path. The bytes are canonical
/// (fixed field order, integer-only, no wall-clock facts), so two campaigns
/// over the same spec produce identical files at any thread count and for
/// any cache state.
pub fn save_obs_snapshot(obs: &ObsSnapshot) -> PathBuf {
    let path = results_dir().join("OBS_snapshot.json");
    std::fs::write(&path, obs.to_json_string()).expect("write obs snapshot");
    path
}

/// The figure/table front-ends, parameterized by campaign knobs and the
/// `--quick` sweep reduction.
pub struct FigureRunner {
    pub cfg: CampaignConfig,
    pub quick: bool,
    /// Restrict the [`FigureRunner::schedulers`] sweep to one scheduler
    /// (`--scheduler <tag>`); `None` sweeps [`SchedulerSpec::ALL`].
    pub scheduler: Option<SchedulerSpec>,
}

impl FigureRunner {
    /// Run one sweep through the campaign. Each row pairs the key its
    /// front-end renders a table row from with the cell that produces it;
    /// the rows come back in the same order, each key paired with its
    /// cell's output.
    fn sweep<K>(&self, rows: Vec<(K, Cell)>, outcome: &mut FigureOutcome) -> Vec<(K, CellOutput)> {
        let (keys, cells): (Vec<K>, Vec<Cell>) = rows.into_iter().unzip();
        let report = run_campaign(&cells, &self.cfg);
        outcome.absorb(&report);
        keys.into_iter().zip(report.outputs).collect()
    }

    /// Execute a §IV-C grid through the campaign, rebuilding the
    /// [`GridResult`] shape `wire_core`'s aggregation expects.
    fn grid_results(&self, grid: &ExperimentGrid, outcome: &mut FigureOutcome) -> Vec<GridResult> {
        let report = run_campaign(&grid_cells(grid), &self.cfg);
        outcome.absorb(&report);
        grid_results_from(grid, &report.outputs)
    }

    /// `quick` under `--quick`, `full` otherwise.
    pub(crate) fn by_size<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The full paper grid this module's Figure 5/6/headline front-ends run.
    pub fn paper_grid(&self) -> ExperimentGrid {
        ExperimentGrid::paper(
            self.by_size(WorkloadId::SMALL.to_vec(), WorkloadId::ALL.to_vec()),
            self.by_size(2, 3),
        )
    }

    /// Figure 2 — steering policy vs optimal, R > U.
    pub fn fig2(&self) -> FigureOutcome {
        let ratios: &[f64] = self.by_size(
            &[1.5, 4.0, 40.0],
            &[1.5, 2.0, 4.0, 10.0, 40.0, 100.0, 400.0, 1000.0],
        );
        self.linear_figure(
            "fig2",
            "Figure 2 — steering policy vs optimal, R > U (u = 1 min)",
            "R/U",
            ratios,
            |ru| (MINUTE.scale(ru), MINUTE),
        )
    }

    /// Figure 3 — steering policy vs optimal, R ≤ U.
    pub fn fig3(&self) -> FigureOutcome {
        let ratios: &[f64] = self.by_size(
            &[1.0, 10.0, 100.0],
            &[1.0, 2.0, 4.0, 10.0, 40.0, 100.0, 400.0, 1000.0],
        );
        self.linear_figure(
            "fig3",
            "Figure 3 — steering policy vs optimal, R ≤ U (R = 1 min)",
            "U/R",
            ratios,
            |ur| (MINUTE, MINUTE.scale(ur)),
        )
    }

    /// Figures 2 and 3: the steering policy on one linear stage of N tasks,
    /// swept over the `axis` ratio (`point` maps a ratio to the stage
    /// runtime R and the charging unit U), reported as resource-usage and
    /// completion-time ratios to optimal.
    fn linear_figure(
        &self,
        name: &str,
        title: &str,
        axis: &str,
        ratios: &[f64],
        point: fn(f64) -> (Millis, Millis),
    ) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let ns: &[usize] = self.by_size(&[10, 100], &[10, 100, 1000]);
        let mut rows = Vec::new();
        for &n in ns {
            for &x in ratios {
                let (r, u) = point(x);
                rows.push(((n, x, r, u), Cell::linear(n, r, u)));
            }
        }

        let mut t = Table::new(["N", axis, "resource-usage ratio", "completion-time ratio"]);
        let mut costs: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        let mut times: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for ((n, x, r, u), out) in self.sweep(rows, &mut outcome) {
            let (cost, time) = linear_ratios(&out, n, r, u);
            t.push_row([
                n.to_string(),
                format!("{x}"),
                format!("{cost:.3}"),
                format!("{time:.3}"),
            ]);
            costs.entry(n).or_default().push((x, cost));
            times.entry(n).or_default().push((x, time));
            eprintln!("{name}: N={n} {axis}={x} cost={cost:.3} time={time:.3}");
        }
        for (what, points) in [("resource-usage", costs), ("completion-time", times)] {
            let series: Vec<Series> = points
                .into_iter()
                .map(|(n, p)| Series::new(format!("N={n}"), p))
                .collect();
            let chart_title = format!("{what} ratio vs {axis} (log x)");
            println!("{}", line_chart(&chart_title, &series, 64, 12, true));
        }
        emit(title, name, &t);
        outcome
    }

    /// Figure 5 — resource cost across settings and charging units, plus the
    /// archived raw campaign CSV [`FigureRunner::analyze`] reloads.
    pub fn fig5(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let grid = self.paper_grid();
        eprintln!(
            "fig5: running {} cells × {} reps ...",
            grid.workloads.len() * grid.settings.len() * grid.charging_units.len(),
            grid.repetitions
        );
        let results = self.grid_results(&grid, &mut outcome);

        let mut t = Table::new([
            "workload",
            "setting",
            "u (min)",
            "cost (units, mean±std)",
            "paid utilization",
            "restarts",
        ]);
        for g in &results {
            let c = g.cell();
            t.push_row([
                g.workload.name().to_string(),
                g.setting.label().to_string(),
                format!("{}", g.charging_unit.as_mins_f64() as u64),
                fmt_mean_std(c.cost_mean, c.cost_std),
                format!("{:.2}", c.utilization_mean),
                format!("{:.1}", c.restarts_mean),
            ]);
        }
        emit(
            "Figure 5 — resource cost across settings and charging units",
            "fig5",
            &t,
        );
        let rows = wire_core::flatten(&results);
        let path = results_dir().join("campaign.csv");
        std::fs::write(&path, wire_core::to_csv(&rows)).expect("write campaign csv");
        println!("[campaign csv: {}]", path.display());
        outcome
    }

    /// Figure 6 — relative execution time across settings and charging units.
    pub fn fig6(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let grid = self.paper_grid();
        eprintln!(
            "fig6: running {} cells × {} reps ...",
            grid.workloads.len() * grid.settings.len() * grid.charging_units.len(),
            grid.repetitions
        );
        let results = self.grid_results(&grid, &mut outcome);

        let mut t = Table::new([
            "workload",
            "setting",
            "u (min)",
            "relative exec time (mean±std)",
            "makespan (min, mean)",
        ]);
        for &w in &grid.workloads {
            let best = best_makespan_secs(&results, w).expect("workload has runs");
            for g in results.iter().filter(|g| g.workload == w) {
                let rel: Vec<f64> = g
                    .runs
                    .iter()
                    .map(|r| r.makespan.as_secs_f64() / best)
                    .collect();
                let mean = wire_core::mean(&rel).unwrap_or(0.0);
                let std = wire_core::std_dev(&rel).unwrap_or(0.0);
                t.push_row([
                    g.workload.name().to_string(),
                    g.setting.label().to_string(),
                    format!("{}", g.charging_unit.as_mins_f64() as u64),
                    fmt_mean_std(mean, std),
                    format!("{:.1}", g.cell().makespan_mean_secs / 60.0),
                ]);
            }
        }
        emit(
            "Figure 6 — relative execution time across settings and charging units",
            "fig6",
            &t,
        );
        outcome
    }

    /// Headline claims (§I / §IV-E).
    pub fn headline(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let grid = self.paper_grid();
        eprintln!("headline: running the full grid ...");
        let results = self.grid_results(&grid, &mut outcome);

        let h = headline(&results).expect("grid produced wire and full-site cells");
        let mut t = Table::new(["metric", "paper", "measured"]);
        t.push_row([
            "full-site cost / wire cost (min–max)".to_string(),
            "4.93–14.66".to_string(),
            format!("{:.2}–{:.2}", h.cost_ratio_min, h.cost_ratio_max),
        ]);
        t.push_row([
            "wire slowdown vs best (min–max)".to_string(),
            "1.02–3.57".to_string(),
            format!("{:.2}–{:.2}", h.slowdown_min, h.slowdown_max),
        ]);
        t.push_row([
            "wire runs within 2x of best".to_string(),
            "83.75%".to_string(),
            format!("{:.1}%", 100.0 * h.frac_within_2x),
        ]);

        let u1 = Millis::from_mins(1);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for g in results
            .iter()
            .filter(|g| g.setting == Setting::Wire && g.charging_unit == u1)
        {
            let best = best_makespan_secs(&results, g.workload).unwrap();
            for r in &g.runs {
                let s = r.makespan.as_secs_f64() / best;
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        t.push_row([
            "wire slowdown at u = 1 min (min–max)".to_string(),
            "1.02–1.65".to_string(),
            format!("{lo:.2}–{hi:.2}"),
        ]);
        emit("Headline claims (§I / §IV-E)", "headline", &t);
        outcome
    }

    /// §III-C/D ablations: first-five priority, waste threshold, fill
    /// target, oracle comparison and the estimator study.
    pub fn ablation(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let workloads = self.by_size(
            vec![WorkloadId::Tpch6S, WorkloadId::PageRankS],
            WorkloadId::SMALL.to_vec(),
        );
        let wire_cfg = || cloud_config(Setting::Wire, Millis::from_mins(15));
        let steered = |w, steering| Cell::wire(w, wire_cfg(), steering, 1);

        // --- first-five priority -------------------------------------------
        let mut rows = Vec::new();
        for &w in &workloads {
            for ff in [true, false] {
                let mut cfg = wire_cfg();
                cfg.scheduler = SchedulerSpec::Fifo { first_five: ff };
                rows.push(((w, ff), Cell::wire(w, cfg, SteeringConfig::default(), 1)));
            }
        }
        let mut t = Table::new(["workload", "first-five", "cost (units)", "makespan (min)"]);
        for ((w, ff), res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                ff.to_string(),
                res.charging_units.to_string(),
                makespan_mins(&res),
            ]);
        }
        emit(
            "Ablation — first-five-per-stage priority",
            "ablation_firstfive",
            &t,
        );

        // --- waste threshold sweep ------------------------------------------
        let mut rows = Vec::new();
        for &w in &workloads {
            for frac in [0.0, 0.1, 0.2, 0.4, 0.8] {
                let steering = SteeringConfig {
                    waste_fraction: frac,
                    ..SteeringConfig::default()
                };
                rows.push(((w, frac), steered(w, steering)));
            }
        }
        let mut t = Table::new([
            "workload",
            "threshold (·u)",
            "cost (units)",
            "makespan (min)",
            "restarts",
        ]);
        for ((w, frac), res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                format!("{frac}"),
                res.charging_units.to_string(),
                makespan_mins(&res),
                res.restarts.to_string(),
            ]);
        }
        emit(
            "Ablation — waste/restart threshold (paper default 0.2·u)",
            "ablation_threshold",
            &t,
        );

        // --- fill target (utilization aggressiveness, §IV-A) ----------------
        let mut rows = Vec::new();
        for &w in &workloads {
            for fill in [1.0, 0.75, 0.5, 0.25] {
                let steering = SteeringConfig {
                    fill_target: fill,
                    ..SteeringConfig::default()
                };
                rows.push(((w, fill), steered(w, steering)));
            }
        }
        let mut t = Table::new([
            "workload",
            "fill target",
            "cost (units)",
            "makespan (min)",
            "peak pool",
        ]);
        for ((w, fill), res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                format!("{fill}"),
                res.charging_units.to_string(),
                makespan_mins(&res),
                res.peak_instances.to_string(),
            ]);
        }
        emit(
            "Ablation — Algorithm 3 fill target (cost/speed aggressiveness)",
            "ablation_fill",
            &t,
        );

        // --- online prediction vs oracle (§IV-E robustness) -----------------
        let mut rows = Vec::new();
        for &w in &workloads {
            rows.push((w, steered(w, SteeringConfig::default())));
            rows.push((w, Cell::oracle(w, wire_cfg(), 1)));
        }
        let mut t = Table::new(["workload", "policy", "cost (units)", "makespan (min)"]);
        for (w, res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                res.policy.clone(),
                res.charging_units.to_string(),
                makespan_mins(&res),
            ]);
        }
        emit(
            "Ablation — online prediction vs ground-truth oracle (§IV-E robustness)",
            "ablation_oracle",
            &t,
        );

        // --- estimator choice (§III-C median vs mean vs three-sigma) --------
        // pure prediction-error computation: no sessions, nothing to cache
        let mut t = Table::new(["workload", "estimator", "mean |err| (s)", "P(|err| ≤ 1 s)"]);
        for &w in &workloads {
            let (wf, prof) = w.generate(1);
            for est in Estimator::ALL {
                let mut errs: Vec<f64> = Vec::new();
                for stage in wf.stage_ids() {
                    if wf.stage(stage).len() < 2 {
                        continue;
                    }
                    for order in 0..3 {
                        errs.extend(
                            stage_prediction_errors_with(&wf, &prof, stage, order, est).errors,
                        );
                    }
                }
                let n = errs.len().max(1) as f64;
                let mean_abs = errs.iter().map(|e| e.abs()).sum::<f64>() / n;
                let within = errs.iter().filter(|e| e.abs() <= 1.0).count() as f64 / n;
                t.push_row([
                    w.name().to_string(),
                    est.label().to_string(),
                    format!("{mean_abs:.3}"),
                    format!("{:.1}%", 100.0 * within),
                ]);
            }
        }
        emit(
            "Ablation — central-tendency estimator (paper argues for the median)",
            "ablation_estimator",
            &t,
        );
        outcome
    }

    /// §IV-E prediction-policy usage during wire runs.
    pub fn policies(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let workloads = self.by_size(WorkloadId::SMALL.to_vec(), WorkloadId::ALL.to_vec());
        let mut rows = Vec::new();
        for &w in &workloads {
            for u_min in [1u64, 15] {
                let u = Millis::from_mins(u_min);
                let cfg = cloud_config_for(Setting::Wire, u, w.spec().total_input_bytes);
                rows.push(((w, u_min), Cell::wire(w, cfg, SteeringConfig::default(), 1)));
            }
        }

        let mut t = Table::new([
            "workload",
            "u (min)",
            "P1 no-obs",
            "P2 running",
            "P3 completed",
            "P4 group",
            "P5 ogd",
            "P4+P5 share",
        ]);
        for ((w, u_min), out) in self.sweep(rows, &mut outcome) {
            let uses = out.policy_uses;
            let total: u64 = uses.iter().sum::<u64>().max(1);
            let informed = uses[3] + uses[4];
            t.push_row([
                w.name().to_string(),
                u_min.to_string(),
                uses[0].to_string(),
                uses[1].to_string(),
                uses[2].to_string(),
                uses[3].to_string(),
                uses[4].to_string(),
                format!("{:.1}%", 100.0 * informed as f64 / total as f64),
            ]);
        }
        emit(
            "§IV-E — prediction-policy usage during wire runs",
            "policy_usage",
            &t,
        );
        outcome
    }

    /// Policies × schedulers sweep (DESIGN.md §12): every
    /// [`SchedulerSpec`] under the wire autoscaler and the pure-reactive
    /// baseline, on the Table I workloads. Shows whether prediction-driven
    /// scaling still wins when the framework's placement is smarter than
    /// FIFO, and where the per-workflow portfolio lands.
    pub fn schedulers(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let workloads = self.by_size(
            vec![WorkloadId::Tpch6S, WorkloadId::PageRankS],
            WorkloadId::SMALL.to_vec(),
        );
        let specs: Vec<SchedulerSpec> = match self.scheduler {
            Some(one) => vec![one],
            None => SchedulerSpec::ALL.to_vec(),
        };
        let u = Millis::from_mins(15);

        let mut rows = Vec::new();
        for &w in &workloads {
            for setting in [Setting::Wire, Setting::PureReactive] {
                for &spec in &specs {
                    let mut cfg = cloud_config_for(setting, u, w.spec().total_input_bytes);
                    cfg.scheduler = spec;
                    let cell = Cell {
                        workload: CellWorkload::Catalog(w),
                        policy: PolicyKind::from_setting(setting),
                        cfg,
                        transfer: TransferKind::Default,
                        seed: 1,
                    };
                    rows.push(((w, setting, spec), cell));
                }
            }
        }

        let mut t = Table::new([
            "workload",
            "policy",
            "scheduler",
            "cost (units)",
            "makespan (min)",
            "restarts",
        ]);
        for ((w, setting, spec), res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                setting.label().to_string(),
                spec.tag().to_string(),
                res.charging_units.to_string(),
                makespan_mins(&res),
                res.restarts.to_string(),
            ]);
        }
        emit(
            "Scheduler portfolio — policies × schedulers",
            "schedulers",
            &t,
        );
        outcome
    }

    /// Spot-market procurement sweep (DESIGN.md §13): WIRE's bill and
    /// completion time under on-demand, mixed and all-spot procurement as
    /// the provider's eviction rate varies. The spot tier sells the same
    /// instance shape at 40 % of the on-demand price; the figure shows
    /// where eviction-induced rework erodes that discount.
    pub fn spot(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        // growth-heavy workloads: the steering only touches *new* launches,
        // so a workload that finishes on its initial instance has no spot
        // exposure and teaches the figure nothing
        let workloads = self.by_size(&GROWTH_HEAVY[..2], &GROWTH_HEAVY[..]);
        let mtbe_mins: &[u64] = self.by_size(&[15, 60], &[15, 30, 60, 120]);
        // (label, fraction of launches kept on-demand): None = legacy
        // homogeneous procurement, 0.0 = steer everything spot-ward
        let procurements: [(&str, Option<f64>); 3] = [
            ("on-demand", None),
            ("mixed", Some(0.5)),
            ("spot", Some(0.0)),
        ];
        let u = Millis::from_mins(1);

        let mut rows = Vec::new();
        for &w in workloads {
            for &mtbe in mtbe_mins {
                for (label, floor) in procurements {
                    let base = cloud_config(Setting::Wire, u);
                    let cell = match floor {
                        None => Cell::wire(w, base, SteeringConfig::default(), 1),
                        Some(floor) => {
                            let slots = base.slots_per_instance;
                            let cfg = base.with_families(vec![
                                FamilySpec::new("od", slots, 1000),
                                FamilySpec::new("spot", slots, 1000)
                                    .spot(Millis::from_mins(mtbe), 400),
                            ]);
                            let steering = SteeringConfig {
                                spot_on_demand_floor: Some(floor),
                                ..SteeringConfig::default()
                            };
                            Cell::wire(w, cfg, steering, 1)
                        }
                    };
                    rows.push(((w, mtbe, label), cell));
                }
            }
        }
        eprintln!("spot: running {} cells ...", rows.len());

        let mut t = Table::new([
            "workload",
            "mtbe (min)",
            "procurement",
            "cost ($)",
            "units",
            "makespan (min)",
            "evictions",
            "restarts",
        ]);
        for ((w, mtbe, label), res) in self.sweep(rows, &mut outcome) {
            t.push_row([
                w.name().to_string(),
                mtbe.to_string(),
                label.to_string(),
                dollars(res.cost_milli),
                res.charging_units.to_string(),
                makespan_mins(&res),
                res.evictions.to_string(),
                res.restarts.to_string(),
            ]);
        }
        emit(
            "Spot procurement — cost vs eviction rate (spot at 40 % of on-demand)",
            "spot",
            &t,
        );
        outcome
    }

    /// Budget-constrained steering sweep (DESIGN.md §14): WIRE's completion
    /// time as the spend ceiling tightens. Phase one runs each workload
    /// unconstrained to learn its natural bill; phase two replays it under
    /// ceilings at fixed fractions of that bill. The figure reports the
    /// slowdown (budgeted makespan / unconstrained makespan, in milli) per
    /// budget fraction — the cost/speed trade §IV-A gestures at, made
    /// explicit.
    pub fn budget(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        // growth-heavy Table I workloads: the throttle only bites when the
        // steering actually wants to grow past the initial pool
        let workloads = self.by_size(&GROWTH_HEAVY[..2], &GROWTH_HEAVY[..]);
        // committed spend crosses the knee early in a run (growth is
        // front-loaded), so the interesting ceilings sit well below the
        // natural bill; 1.0 anchors the unconstrained end
        let fractions: &[f64] = self.by_size(&[0.1, 1.0], &[0.05, 0.1, 0.25, 0.5, 1.0]);
        let wire_cell = |w, cfg| Cell::wire(w, cfg, SteeringConfig::default(), 1);
        let u = Millis::from_mins(1);

        // phase one: the unconstrained baseline fixes each workload's
        // natural bill and makespan
        let rows: Vec<_> = workloads
            .iter()
            .map(|&w| (w, wire_cell(w, cloud_config(Setting::Wire, u))))
            .collect();
        eprintln!("budget: running {} baseline cells ...", rows.len());
        let baselines = self.sweep(rows, &mut outcome);

        // phase two: ceilings as fractions of the baseline bill
        let mut rows = Vec::new();
        for (w, base) in &baselines {
            for &frac in fractions {
                let ceiling = ((base.cost_milli as f64 * frac).round() as u64).max(1);
                let cfg = cloud_config(Setting::Wire, u).with_budget(ceiling);
                rows.push(((*w, frac, ceiling, base.makespan_ms), wire_cell(*w, cfg)));
            }
        }
        eprintln!("budget: running {} budgeted cells ...", rows.len());

        let mut t = Table::new([
            "workload",
            "budget fraction",
            "ceiling ($)",
            "cost ($)",
            "units",
            "makespan (min)",
            "slowdown (milli)",
        ]);
        for ((w, frac, ceiling, base_makespan_ms), res) in self.sweep(rows, &mut outcome) {
            // slowdown in milli (1000 = baseline speed), integer so the
            // CSV stays platform-independent
            let slowdown_milli = res.makespan_ms * 1000 / base_makespan_ms.max(1);
            t.push_row([
                w.name().to_string(),
                format!("{frac:.2}"),
                dollars(ceiling),
                dollars(res.cost_milli),
                res.charging_units.to_string(),
                makespan_mins(&res),
                slowdown_milli.to_string(),
            ]);
        }
        emit(
            "Budget-constrained steering — slowdown vs budget fraction",
            "budget",
            &t,
        );
        outcome
    }

    /// §IV-F controller overhead. Timing is the product here, so this
    /// front-end always executes fresh (the cache is bypassed regardless of
    /// the runner's cache mode) while still sharding across the pool.
    pub fn overhead(&self) -> FigureOutcome {
        let mut outcome = FigureOutcome::default();
        let workloads = self.by_size(WorkloadId::SMALL.to_vec(), WorkloadId::ALL.to_vec());
        let fresh = FigureRunner {
            cfg: CampaignConfig {
                mode: CacheMode::Off,
                ..self.cfg.clone()
            },
            quick: self.quick,
            scheduler: self.scheduler,
        };
        let mut rows = Vec::new();
        for &w in &workloads {
            let agg = w.generate(1).1.aggregate().as_secs_f64();
            for u_min in CHARGING_UNITS_MINS {
                let cfg = cloud_config(Setting::Wire, Millis::from_mins(u_min));
                rows.push((
                    (w, u_min, agg),
                    Cell::wire(w, cfg, SteeringConfig::default(), 1),
                ));
            }
        }

        let mut t = Table::new([
            "workload",
            "u (min)",
            "mape iters",
            "controller wall (ms)",
            "controller µs/tick",
            "controller share (%)",
            "aggregate task time (s)",
            "time overhead (%)",
            "controller state (KB)",
        ]);
        for ((w, u_min, agg), res) in fresh.sweep(rows, &mut outcome) {
            let run_wall_s = res.exec_wall_us as f64 / 1e6;
            let wall_ms = res.controller_wall_us as f64 / 1000.0;
            let per_tick_us = wall_ms * 1e3 / (res.mape_iterations.max(1) as f64);
            t.push_row([
                w.name().to_string(),
                u_min.to_string(),
                res.mape_iterations.to_string(),
                format!("{wall_ms:.2}"),
                format!("{per_tick_us:.1}"),
                format!("{:.2}", 100.0 * wall_ms / 1000.0 / run_wall_s.max(1e-9)),
                format!("{agg:.0}"),
                format!("{:.4}", 100.0 * wall_ms / 1000.0 / agg),
                format!("{:.1}", res.state_bytes as f64 / 1024.0),
            ]);
        }
        emit(
            "§IV-F — WIRE controller overhead (paper: ≤16 KB, 0.011–0.49% of task time)",
            "overhead",
            &t,
        );
        telemetry_overhead(&workloads, self.quick);
        outcome
    }
}

/// The campaign cells of a §IV-C grid, enumerated (workload, setting, unit)
/// outer, repetition inner — the order [`grid_results_from`] regroups.
pub fn grid_cells(grid: &ExperimentGrid) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &w in &grid.workloads {
        for &s in &grid.settings {
            for &u in &grid.charging_units {
                for k in 0..grid.repetitions {
                    cells.push(Cell::grid(w, s, u, grid.base_seed + k as u64));
                }
            }
        }
    }
    cells
}

/// Regroup [`grid_cells`]-ordered campaign outputs into the [`GridResult`]
/// rows `wire_core`'s aggregation (and `flatten`/`to_csv`) expects.
pub fn grid_results_from(grid: &ExperimentGrid, outputs: &[CellOutput]) -> Vec<GridResult> {
    let mut results = Vec::new();
    let mut it = outputs.iter();
    for &w in &grid.workloads {
        for &s in &grid.settings {
            for &u in &grid.charging_units {
                let runs: Vec<RunResult> = (0..grid.repetitions)
                    .map(|_| it.next().expect("one output per cell").to_run_result())
                    .collect();
                results.push(GridResult {
                    workload: w,
                    setting: s,
                    charging_unit: u,
                    runs,
                });
            }
        }
    }
    results
}

/// The two Figure 2/3 ratios from a linear-stage cell output: billed time
/// over optimal usage `N·R`, and makespan over optimal time `R`.
fn linear_ratios(out: &CellOutput, n: usize, r: Millis, u: Millis) -> (f64, f64) {
    let optimal_usage = r.as_ms() as f64 * n as f64;
    let billed = out.charging_units as f64 * u.as_ms() as f64;
    let cost_ratio = billed / optimal_usage;
    let time_ratio = out.makespan_ms as f64 / r.as_ms() as f64;
    (cost_ratio, time_ratio)
}

/// A cell's makespan in minutes, as the figure tables print it.
fn makespan_mins(out: &CellOutput) -> String {
    format!("{:.1}", Millis::from_ms(out.makespan_ms).as_mins_f64())
}

/// A milli-dollar amount in dollars, as the figure tables print it.
fn dollars(milli: u64) -> String {
    format!("{:.3}", milli as f64 / 1000.0)
}

/// Best-of-`reps` wall time for each run closure (the minimum is the least
/// noisy estimator for short deterministic runs). The closures take turns
/// within every rep, each rep starting one closure later, so neither host
/// drift nor running order favours any of them.
fn time_best<const N: usize>(
    reps: usize,
    runs: [&mut dyn FnMut() -> RunResult; N],
) -> [(f64, RunResult); N] {
    let mut best = [f64::INFINITY; N];
    let mut last: [Option<RunResult>; N] = std::array::from_fn(|_| None);
    for rep in 0..reps {
        for k in 0..N {
            let i = (rep + k) % N;
            let t0 = Instant::now();
            let r = runs[i]();
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
            last[i] = Some(r);
        }
    }
    std::array::from_fn(|i| (best[i], last[i].take().expect("reps >= 1")))
}

/// A recorder that reports itself disabled and counts every call that
/// reaches it anyway.
#[derive(Debug, Default)]
struct DisabledCounter {
    records: u64,
    ticks: u64,
}

impl Recorder for DisabledCounter {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: Millis, _event: TelemetryEvent) {
        self.records += 1;
    }

    fn tick(&mut self, _at: Millis, _stats: TickStats) {
        self.ticks += 1;
    }
}

/// The no-op path's guarantee, checked by count rather than by clock: over
/// the same session as the timed runs, a recorder whose `enabled()` is
/// `false` receives no `record` or `tick` call, so every hook stays behind
/// its guard and compiles away for [`wire_telemetry::NoopRecorder`].
/// Returns the run, which must not differ from an unrecorded one.
fn assert_disabled_recorder_is_silent(
    name: &str,
    cfg: &wire_simcloud::CloudConfig,
    wf: &wire_dag::Workflow,
    prof: &wire_dag::ExecProfile,
) -> RunResult {
    let mut silent = DisabledCounter::default();
    let r = Session::new(cfg.clone())
        .transfer(TransferModel::default())
        .policy(WirePolicy::default())
        .seed(1)
        .recording(&mut silent)
        .submit(wf, prof)
        .run()
        .expect("silent run completes");
    assert_eq!(
        (silent.records, silent.ticks),
        (0, 0),
        "{name}: a disabled recorder received {} record and {} tick calls",
        silent.records,
        silent.ticks
    );
    r
}

/// Compare the default `NoopRecorder` path against bounded-memory streaming
/// aggregation and full in-memory recording. The no-op path is the one every
/// non-observed run takes; the telemetry hooks must compile away when nobody
/// listens, which [`assert_disabled_recorder_is_silent`] checks by counting
/// calls. The timing columns show what streaming and full recording cost
/// relative to it.
fn telemetry_overhead(workloads: &[WorkloadId], quick: bool) {
    let reps = if quick { 15 } else { 25 };
    let u = Millis::from_mins(15);
    let mut t = Table::new([
        "workload",
        "noop (ms)",
        "streaming (ms)",
        "streaming cost (%)",
        "recording (ms)",
        "recording cost (%)",
        "events",
        "decisions",
    ]);
    for &w in workloads {
        let (wf, prof) = w.generate(1);
        let cfg = cloud_config(Setting::Wire, u);
        let mut captured = (0usize, 0usize);
        let [(noop_s, noop_res), (stream_s, stream_res), (rec_s, rec_res)] = time_best(
            reps,
            [
                &mut || {
                    Session::new(cfg.clone())
                        .transfer(TransferModel::default())
                        .policy(WirePolicy::default())
                        .seed(1)
                        .submit(&wf, &prof)
                        .run()
                        .expect("noop run completes")
                },
                &mut || {
                    let obs = StreamingRecorder::new();
                    let policy = WirePolicy::default().with_obs(obs.clone());
                    Session::new(cfg.clone())
                        .transfer(TransferModel::default())
                        .policy(policy)
                        .seed(1)
                        .recording(obs.clone())
                        .submit(&wf, &prof)
                        .run()
                        .expect("streaming run completes")
                },
                &mut || {
                    let handle = TelemetryHandle::new();
                    let policy = WirePolicy::default().with_telemetry(handle.clone());
                    let r = Session::new(cfg.clone())
                        .transfer(TransferModel::default())
                        .policy(policy)
                        .seed(1)
                        .recording(handle.clone())
                        .submit(&wf, &prof)
                        .run()
                        .expect("recorded run completes");
                    let buffer = handle.take();
                    captured = (buffer.events.len(), buffer.decisions.len());
                    r
                },
            ],
        );
        // recording must observe, never perturb
        assert_eq!(noop_res.makespan, rec_res.makespan, "{}", w.name());
        assert_eq!(noop_res.makespan, stream_res.makespan, "{}", w.name());
        assert_eq!(
            noop_res.charging_units,
            rec_res.charging_units,
            "{}",
            w.name()
        );
        assert_eq!(
            noop_res.charging_units,
            stream_res.charging_units,
            "{}",
            w.name()
        );
        let silent_res = assert_disabled_recorder_is_silent(w.name(), &cfg, &wf, &prof);
        assert_eq!(noop_res.makespan, silent_res.makespan, "{}", w.name());
        t.push_row([
            w.name().to_string(),
            format!("{:.2}", noop_s * 1e3),
            format!("{:.2}", stream_s * 1e3),
            format!("{:.2}", 100.0 * (stream_s - noop_s) / noop_s),
            format!("{:.2}", rec_s * 1e3),
            format!("{:.2}", 100.0 * (rec_s - noop_s) / noop_s),
            captured.0.to_string(),
            captured.1.to_string(),
        ]);
    }
    emit(
        "telemetry overhead — NoopRecorder vs streaming aggregation vs full recording",
        "telemetry-overhead",
        &t,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_receives_no_calls() {
        let (wf, prof) = WorkloadId::Tpch6S.generate(1);
        let cfg = cloud_config(Setting::Wire, Millis::from_mins(15));
        let r = assert_disabled_recorder_is_silent("tpch6-s", &cfg, &wf, &prof);
        assert_eq!(r.task_records.len(), wf.num_tasks());
    }
}
