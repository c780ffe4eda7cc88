//! The §IV-C experiment grid: workflows × settings × charging units × reps.
//!
//! Settings (§IV-C3): *full-site* (static 12 instances), *pure-reactive*,
//! *reactive-conserving* and *wire*, each monitored/re-planned every 3 minutes
//! on an ExoGENI-like site (12 × 4-slot instances, 3-minute lag), across
//! charging units of 1/15/30/60 minutes. Each run is repeated with distinct
//! seeds (the paper uses 3–7 repetitions per setting).

use serde::{Deserialize, Serialize};
use wire_dag::Millis;
use wire_planner::{PureReactive, ReactiveConserving, StaticPolicy, WirePolicy};
use wire_simcloud::{CloudConfig, RunResult, ScalingPolicy, SchedulerSpec};
use wire_workloads::WorkloadId;

use crate::stats;

/// Charging units evaluated in the paper (§IV-B), minutes.
pub const CHARGING_UNITS_MINS: [u64; 4] = [1, 15, 30, 60];

/// The four resource-management settings of §IV-C3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Setting {
    FullSite,
    PureReactive,
    ReactiveConserving,
    Wire,
}

impl Setting {
    pub const ALL: [Setting; 4] = [
        Setting::FullSite,
        Setting::PureReactive,
        Setting::ReactiveConserving,
        Setting::Wire,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Setting::FullSite => "full-site",
            Setting::PureReactive => "pure-reactive",
            Setting::ReactiveConserving => "reactive-conserving",
            Setting::Wire => "wire",
        }
    }
}

/// The ExoGENI-like cloud configuration for one setting and charging unit.
pub fn cloud_config(setting: Setting, charging_unit: Millis) -> CloudConfig {
    cloud_config_for(setting, charging_unit, 0)
}

/// Like [`cloud_config`], with the run's serial setup/teardown extended by
/// dataset staging at the site's shared storage bandwidth (50 MB/s, capped at
/// 15 minutes): Pegasus stages workflow inputs in before root tasks fire and
/// stages outputs out afterwards.
pub fn cloud_config_for(
    setting: Setting,
    charging_unit: Millis,
    dataset_bytes: u64,
) -> CloudConfig {
    let staging = Millis::from_secs_f64(dataset_bytes as f64 / 50.0e6).min(Millis::from_mins(15));
    let base = CloudConfig {
        charging_unit,
        run_setup: CloudConfig::default().run_setup + staging,
        run_teardown: CloudConfig::default().run_teardown + staging.scale(0.3),
        ..CloudConfig::default()
    };
    match setting {
        // the full-site runs start (and stay) at the site maximum
        Setting::FullSite => CloudConfig {
            initial_instances: base.site_capacity,
            // the unmodified framework has no first-five patch
            scheduler: SchedulerSpec::plain_fifo(),
            ..base
        },
        Setting::PureReactive => CloudConfig {
            scheduler: SchedulerSpec::plain_fifo(),
            ..base
        },
        Setting::ReactiveConserving => CloudConfig {
            scheduler: SchedulerSpec::plain_fifo(),
            ..base
        },
        Setting::Wire => base,
    }
}

/// Construct the scaling policy a setting uses (the single home for the
/// setting→policy mapping; the CLI and examples reuse it).
pub fn build_policy(setting: Setting, cfg: &CloudConfig) -> Box<dyn ScalingPolicy + Send> {
    match setting {
        Setting::FullSite => Box::new(StaticPolicy::full_site(cfg.site_capacity)),
        Setting::PureReactive => Box::new(PureReactive),
        Setting::ReactiveConserving => Box::new(ReactiveConserving::default()),
        Setting::Wire => Box::new(WirePolicy::default()),
    }
}

/// One grid cell: a (workload, setting, charging-unit) combination and its
/// repeated runs.
#[derive(Debug, Clone)]
pub struct GridResult {
    pub workload: WorkloadId,
    pub setting: Setting,
    pub charging_unit: Millis,
    pub runs: Vec<RunResult>,
}

/// Aggregates of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    pub cost_mean: f64,
    pub cost_std: f64,
    pub makespan_mean_secs: f64,
    pub makespan_std_secs: f64,
    pub utilization_mean: f64,
    pub restarts_mean: f64,
    pub n: usize,
}

impl GridResult {
    pub fn cell(&self) -> GridCell {
        let costs: Vec<f64> = self.runs.iter().map(|r| r.charging_units as f64).collect();
        let makespans: Vec<f64> = self.runs.iter().map(|r| r.makespan.as_secs_f64()).collect();
        let utils: Vec<f64> = self
            .runs
            .iter()
            .map(|r| {
                r.paid_utilization(
                    self.charging_unit,
                    cloud_config(self.setting, self.charging_unit).slots_per_instance,
                )
            })
            .collect();
        let restarts: Vec<f64> = self.runs.iter().map(|r| r.restarts as f64).collect();
        GridCell {
            cost_mean: stats::mean(&costs).unwrap_or(0.0),
            cost_std: stats::std_dev(&costs).unwrap_or(0.0),
            makespan_mean_secs: stats::mean(&makespans).unwrap_or(0.0),
            makespan_std_secs: stats::std_dev(&makespans).unwrap_or(0.0),
            utilization_mean: stats::mean(&utils).unwrap_or(0.0),
            restarts_mean: stats::mean(&restarts).unwrap_or(0.0),
            n: self.runs.len(),
        }
    }
}

/// A full §IV-C experiment grid, as a spec: `wire-campaign` turns it into
/// cells and executes them. Repetition `k` of a workload uses seed
/// `base_seed + k`, shared across settings so all four policies face the
/// *same* run realization (paired comparison).
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    pub workloads: Vec<WorkloadId>,
    pub settings: Vec<Setting>,
    pub charging_units: Vec<Millis>,
    pub repetitions: usize,
    pub base_seed: u64,
}

impl ExperimentGrid {
    /// The paper's full grid over the given workloads with `reps` repetitions.
    pub fn paper(workloads: Vec<WorkloadId>, reps: usize) -> Self {
        ExperimentGrid {
            workloads,
            settings: Setting::ALL.to_vec(),
            charging_units: CHARGING_UNITS_MINS
                .iter()
                .map(|&m| Millis::from_mins(m))
                .collect(),
            repetitions: reps,
            base_seed: 0xC0FFEE,
        }
    }
}

/// Best (lowest) mean makespan for a workload across every setting and
/// charging unit — the normalization basis of Figure 6's *relative execution
/// time*.
pub fn best_makespan_secs(results: &[GridResult], workload: WorkloadId) -> Option<f64> {
    results
        .iter()
        .filter(|g| g.workload == workload)
        .map(|g| g.cell().makespan_mean_secs)
        .filter(|m| *m > 0.0)
        .min_by(|a, b| a.partial_cmp(b).expect("finite makespans"))
}

/// Headline aggregates (§I / §IV-E): wire cost vs full-site cost, wire
/// slowdown vs the best run, and the fraction of wire runs within 2× of best.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    pub cost_ratio_min: f64,
    pub cost_ratio_max: f64,
    pub slowdown_min: f64,
    pub slowdown_max: f64,
    pub frac_within_2x: f64,
}

/// Compute the headline numbers from a finished grid.
pub fn headline(results: &[GridResult]) -> Option<Headline> {
    let mut cost_ratios: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut within = 0usize;
    let mut total = 0usize;
    for g in results.iter().filter(|g| g.setting == Setting::Wire) {
        let best = best_makespan_secs(results, g.workload)?;
        let full = results
            .iter()
            .find(|h| {
                h.workload == g.workload
                    && h.setting == Setting::FullSite
                    && h.charging_unit == g.charging_unit
            })?
            .cell();
        let wire = g.cell();
        if wire.cost_mean > 0.0 {
            cost_ratios.push(full.cost_mean / wire.cost_mean);
        }
        for r in &g.runs {
            let slow = r.makespan.as_secs_f64() / best;
            slowdowns.push(slow);
            total += 1;
            if slow <= 2.0 {
                within += 1;
            }
        }
    }
    if cost_ratios.is_empty() || total == 0 {
        return None;
    }
    let fold = |v: &[f64], init: f64, f: fn(f64, f64) -> f64| v.iter().copied().fold(init, f);
    Some(Headline {
        cost_ratio_min: fold(&cost_ratios, f64::INFINITY, f64::min),
        cost_ratio_max: fold(&cost_ratios, f64::NEG_INFINITY, f64::max),
        slowdown_min: fold(&slowdowns, f64::INFINITY, f64::min),
        slowdown_max: fold(&slowdowns, f64::NEG_INFINITY, f64::max),
        frac_within_2x: within as f64 / total as f64,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A run summary with the given bill and makespan; the aggregation and
    /// CSV paths read only these summary fields.
    fn summary_run(units: u64, makespan_ms: u64, restarts: u32) -> RunResult {
        RunResult {
            policy: "synthetic".into(),
            workflow: WorkloadId::Tpch6S.name().into(),
            makespan: Millis::from_ms(makespan_ms),
            charging_units: units,
            cost_milli: units * 1000,
            instance_time: Millis::from_ms(makespan_ms * units.min(12)),
            peak_instances: units.min(12) as u32,
            instances_launched: units.min(12) as u32,
            busy_slot_time: Millis::from_ms(makespan_ms * 3 + 7),
            wasted_slot_time: Millis::from_ms(250 * restarts as u64),
            restarts,
            failures: 0,
            evictions: 0,
            oom_restarts: 0,
            mape_iterations: makespan_ms / Millis::from_mins(3).as_ms(),
            controller_wall: std::time::Duration::ZERO,
            task_records: Vec::new(),
            instance_bills: Vec::new(),
            pool_timeline: Vec::new(),
            per_workflow: Vec::new(),
        }
    }

    /// TPCH-6 S under full-site and wire at u = 15 min, two repetitions
    /// from `base_seed`, as seed-varied summaries shaped like the pinned
    /// golden runs (12 units ≈ 575 s, 1 unit ≈ 887 s): the smallest grid
    /// `headline` and the CSV path accept.
    pub(crate) fn small_grid(base_seed: u64) -> Vec<GridResult> {
        let u = Millis::from_mins(15);
        let run = |setting, seed: u64| match setting {
            Setting::FullSite => summary_run(12, 574_631 + 997 * seed, 0),
            _ => summary_run(1 + seed % 2, 886_732 + 1_009 * seed, (seed % 3) as u32),
        };
        [Setting::FullSite, Setting::Wire]
            .into_iter()
            .map(|setting| GridResult {
                workload: WorkloadId::Tpch6S,
                setting,
                charging_unit: u,
                runs: (base_seed..base_seed + 2)
                    .map(|seed| run(setting, seed))
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn configs_match_paper_site() {
        for s in Setting::ALL {
            let c = cloud_config(s, Millis::from_mins(15));
            assert_eq!(c.site_capacity, 12);
            assert_eq!(c.slots_per_instance, 4);
            assert_eq!(c.mape_interval, Millis::from_mins(3));
            assert!(c.validate().is_ok());
        }
        assert_eq!(
            cloud_config(Setting::FullSite, Millis::from_mins(1)).initial_instances,
            12
        );
        assert_eq!(
            cloud_config(Setting::Wire, Millis::from_mins(1)).initial_instances,
            1
        );
        assert_eq!(
            cloud_config(Setting::Wire, Millis::from_mins(1)).scheduler,
            SchedulerSpec::first_five()
        );
        assert_eq!(
            cloud_config(Setting::PureReactive, Millis::from_mins(1)).scheduler,
            SchedulerSpec::plain_fifo()
        );
    }

    /// One TPCH-6 S run under `setting`, built from the same config and
    /// policy factories the campaign cells use.
    fn run_tpch6_s(setting: Setting, charging_unit: Millis, seed: u64) -> RunResult {
        let workload = WorkloadId::Tpch6S;
        let (wf, prof) = workload.generate(seed);
        let cfg = cloud_config_for(setting, charging_unit, workload.spec().total_input_bytes);
        let policy = build_policy(setting, &cfg);
        wire_simcloud::Session::new(cfg)
            .transfer(wire_simcloud::TransferModel::default())
            .policy(policy)
            .seed(seed)
            .submit(&wf, &prof)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", setting.label()))
    }

    #[test]
    fn single_cell_runs_all_settings() {
        // the smallest workload keeps this test quick
        for s in Setting::ALL {
            let r = run_tpch6_s(s, Millis::from_mins(15), 1);
            assert_eq!(r.task_records.len(), 33, "{}", s.label());
            assert!(r.charging_units >= 1);
            assert!(!r.makespan.is_zero());
        }
    }

    #[test]
    fn grid_runs_and_aggregates() {
        let results = small_grid(7);
        for g in &results {
            let c = g.cell();
            assert!(c.cost_mean > 0.0);
            assert!(c.makespan_mean_secs > 0.0);
            assert_eq!(c.n, 2);
        }
        let best = best_makespan_secs(&results, WorkloadId::Tpch6S).unwrap();
        // full-site is the faster setting; wire bills 2 and 1 units at seeds 7, 8
        assert_eq!(best, results[0].cell().makespan_mean_secs);
        let h = headline(&results).unwrap();
        assert_eq!((h.cost_ratio_min, h.cost_ratio_max), (8.0, 8.0));
        assert!(h.slowdown_min >= 1.0 - 1e-9);
        assert!((0.0..=1.0).contains(&h.frac_within_2x));
    }

    #[test]
    fn grid_is_deterministic() {
        let u = Millis::from_mins(30);
        let a = run_tpch6_s(Setting::Wire, u, 9);
        let b = run_tpch6_s(Setting::Wire, u, 9);
        assert_eq!(a.charging_units, b.charging_units);
        assert_eq!(a.makespan, b.makespan);
    }
}
