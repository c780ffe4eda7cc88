//! The §IV-C experiment grid: workflows × settings × charging units × reps.
//!
//! Settings (§IV-C3): *full-site* (static 12 instances), *pure-reactive*,
//! *reactive-conserving* and *wire*, each monitored/re-planned every 3 minutes
//! on an ExoGENI-like site (12 × 4-slot instances, 3-minute lag), across
//! charging units of 1/15/30/60 minutes. Each run is repeated with distinct
//! seeds (the paper uses 3–7 repetitions per setting).

use serde::{Deserialize, Serialize};
use wire_dag::Millis;
use wire_obs::{ObsConfig, ObsSnapshot, StreamingRecorder};
use wire_planner::{PureReactive, ReactiveConserving, StaticPolicy, WirePolicy};
use wire_simcloud::{CloudConfig, RunResult, ScalingPolicy, SchedulerSpec, Session, TransferModel};
use wire_telemetry::{Tee, TelemetryBuffer, TelemetryHandle};
use wire_workloads::{EnsembleSpec, WorkloadId};

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

/// Run one workload under one setting and charging unit with the given seed.
pub fn run_setting(
    workload: WorkloadId,
    setting: Setting,
    charging_unit: Millis,
    seed: u64,
) -> RunResult {
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(setting, charging_unit, workload.spec().total_input_bytes);
    let policy = build_policy(setting, &cfg);
    Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .submit(&wf, &prof)
        .run()
        .unwrap_or_else(|e| {
            panic!(
                "{} / {} / u={}: {e}",
                workload.name(),
                setting.label(),
                charging_unit
            )
        })
}

/// Run a whole ensemble (N workflows, staggered arrivals, one shared pool)
/// under one setting and charging unit. Per-workflow makespans and slowdowns
/// land in [`RunResult::per_workflow`].
pub fn run_ensemble(
    spec: &EnsembleSpec,
    setting: Setting,
    charging_unit: Millis,
    seed: u64,
) -> RunResult {
    let members = spec.generate(seed);
    let cfg = cloud_config(setting, charging_unit);
    let policy = build_policy(setting, &cfg);
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed);
    for m in &members {
        session = session.submit_at(m.submit_at, &m.workflow, &m.profile);
    }
    session.run().unwrap_or_else(|e| {
        panic!(
            "ensemble[{}] / {} / u={}: {e}",
            members.len(),
            setting.label(),
            charging_unit
        )
    })
}

/// Like [`run_ensemble`], with the bounded-memory [`StreamingRecorder`]
/// riding the engine (and, under [`Setting::Wire`], the planner's
/// prediction/memoization side-channel). Returns the recorder alongside
/// the result so callers can take the deterministic [`ObsSnapshot`] and
/// the wall-clock health report.
///
/// [`ObsSnapshot`]: wire_obs::ObsSnapshot
pub fn run_ensemble_obs(
    spec: &EnsembleSpec,
    setting: Setting,
    charging_unit: Millis,
    seed: u64,
    obs_cfg: ObsConfig,
) -> (RunResult, StreamingRecorder) {
    let members = spec.generate(seed);
    let cfg = cloud_config(setting, charging_unit);
    let recorder = StreamingRecorder::with_config(obs_cfg);
    let policy: Box<dyn ScalingPolicy + Send> = match setting {
        Setting::Wire => Box::new(WirePolicy::default().with_obs(recorder.clone())),
        other => build_policy(other, &cfg),
    };
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(recorder.clone());
    for m in &members {
        session = session.submit_at(m.submit_at, &m.workflow, &m.profile);
    }
    let result = session.run().unwrap_or_else(|e| {
        panic!(
            "ensemble[{}] / {} / u={}: {e}",
            members.len(),
            setting.label(),
            charging_unit
        )
    });
    recorder.note_session(result.makespan.as_ms(), result.charging_units);
    (result, recorder)
}

/// Like [`run_setting`], with full telemetry: the engine events and (under
/// [`Setting::Wire`]) the MAPE decision journal land in the returned
/// [`TelemetryBuffer`], and a [`StreamingRecorder`] teed beside it yields
/// the [`ObsSnapshot`] with one window per MAPE interval (none evicted) and
/// the prediction-quality join. Together they feed the
/// `wire_telemetry::export` and `wire_obs::export` writers.
pub fn run_setting_telemetry(
    workload: WorkloadId,
    setting: Setting,
    charging_unit: Millis,
    seed: u64,
) -> (RunResult, TelemetryBuffer, ObsSnapshot) {
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(setting, charging_unit, workload.spec().total_input_bytes);
    let handle = TelemetryHandle::new();
    let obs = StreamingRecorder::with_config(ObsConfig::per_interval(cfg.mape_interval));
    let policy: Box<dyn ScalingPolicy + Send> = match setting {
        Setting::Wire => Box::new(
            WirePolicy::default()
                .with_telemetry(handle.clone())
                .with_obs(obs.clone()),
        ),
        other => build_policy(other, &cfg),
    };
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(Tee(handle.clone(), obs.clone()))
        .submit(&wf, &prof)
        .run()
        .unwrap_or_else(|e| {
            panic!(
                "{} / {} / u={}: {e}",
                workload.name(),
                setting.label(),
                charging_unit
            )
        });
    (result, handle.take(), obs.snapshot())
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
    use wire_telemetry::TelemetryEvent;

    /// TPCH-6 S under full-site and wire at u = 15 min, two repetitions
    /// from `base_seed`: the smallest grid `headline` and the CSV path accept.
    pub(crate) fn small_grid(base_seed: u64) -> Vec<GridResult> {
        let u = Millis::from_mins(15);
        [Setting::FullSite, Setting::Wire]
            .into_iter()
            .map(|setting| GridResult {
                workload: WorkloadId::Tpch6S,
                setting,
                charging_unit: u,
                runs: (base_seed..base_seed + 2)
                    .map(|seed| run_setting(WorkloadId::Tpch6S, setting, u, seed))
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

    #[test]
    fn single_cell_runs_all_settings() {
        // the smallest workload keeps this test quick
        for s in Setting::ALL {
            let r = run_setting(WorkloadId::Tpch6S, s, Millis::from_mins(15), 1);
            assert_eq!(r.task_records.len(), 33, "{}", s.label());
            assert!(r.charging_units >= 1);
            assert!(!r.makespan.is_zero());
        }
    }

    #[test]
    fn wire_beats_full_site_on_cost() {
        let u = Millis::from_mins(15);
        let full = run_setting(WorkloadId::Tpch6S, Setting::FullSite, u, 2);
        let wire = run_setting(WorkloadId::Tpch6S, Setting::Wire, u, 2);
        assert!(
            wire.charging_units < full.charging_units,
            "wire {} vs full-site {}",
            wire.charging_units,
            full.charging_units
        );
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
        assert!(best > 0.0);
        let h = headline(&results).unwrap();
        assert!(h.cost_ratio_min > 0.0);
        assert!(h.slowdown_min >= 1.0 - 1e-9);
        assert!((0.0..=1.0).contains(&h.frac_within_2x));
    }

    #[test]
    fn telemetry_run_journals_every_tick_and_changes_nothing() {
        let u = Millis::from_mins(15);
        let (r, buffer, snap) = run_setting_telemetry(WorkloadId::Tpch6S, Setting::Wire, u, 1);
        assert_eq!(r.task_records.len(), 33);
        assert!(!buffer.events.is_empty());
        // one decision journal entry and one MapeTick event per MAPE tick
        assert_eq!(buffer.decisions.len() as u64, r.mape_iterations);
        let ticks = buffer
            .events
            .iter()
            .filter(|(_, ev)| matches!(ev, TelemetryEvent::MapeTick { .. }))
            .count();
        assert_eq!(ticks as u64, r.mape_iterations);
        assert_eq!(snap.counter("mape_tick"), r.mape_iterations);
        // predictions were joined against completions, never more than once
        // per completed task
        let joins = snap.health.pred_abs_err_ms.count;
        assert!(joins > 0 && joins <= snap.counter("task_completed"));
        assert_eq!(snap.windows.evicted_windows, 0);
        // recording must not perturb the simulation
        let plain = run_setting(WorkloadId::Tpch6S, Setting::Wire, u, 1);
        assert_eq!(plain.makespan, r.makespan);
        assert_eq!(plain.charging_units, r.charging_units);
    }

    #[test]
    fn grid_is_deterministic() {
        let u = Millis::from_mins(30);
        let a = run_setting(WorkloadId::Tpch6S, Setting::Wire, u, 9);
        let b = run_setting(WorkloadId::Tpch6S, Setting::Wire, u, 9);
        assert_eq!(a.charging_units, b.charging_units);
        assert_eq!(a.makespan, b.makespan);
    }
}
