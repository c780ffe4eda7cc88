//! Campaign cells: the unit of work a campaign schedules, caches and merges.
//!
//! A [`Cell`] is one fully-resolved `Session::run()` — workload, policy,
//! cloud configuration, transfer model and seed — plus a stable
//! content-addressed [`cache_key`]. Everything the paper's figures need from
//! a run is captured in the deterministic [`CellOutput`] summary, so a cell
//! served from the cache is indistinguishable from one that executed.

use std::time::Instant;

use wire_chaos::{check_decision_journal, InvariantChecker};
use wire_core::experiment::{build_policy, cloud_config, cloud_config_for, Setting};
use wire_dag::{ExecProfile, Millis, Workflow};
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::{OracleWirePolicy, SteeringConfig, WirePolicy};
use wire_simcloud::{CloudConfig, RunError, RunResult, ScalingPolicy, Session, TransferModel};
use wire_telemetry::{Tee, TelemetryHandle};
use wire_workloads::{linear_workflow, EnsembleSpec, WorkloadId};

/// Bumped whenever the cell execution semantics or the [`CellOutput`] cache
/// payload change shape: every previously cached entry becomes unreadable
/// (its key no longer matches) instead of silently serving stale data.
///
/// v7: the streaming recorder joins each prediction against the task's
/// occupancy (exec + transfer), not its exec time alone, so the cached
/// `obs` snapshot moves for every cell with transfers; and `state_bytes`
/// now counts the predictor's retained running-age window. Every older
/// entry is recomputed, never served.
pub const CACHE_FORMAT_VERSION: u32 = 7;

/// What a cell runs.
#[derive(Debug, Clone, PartialEq)]
pub enum CellWorkload {
    /// A Table I catalog workload, generated from the cell seed.
    Catalog(WorkloadId),
    /// The idealized single-stage linear workflow of Figures 2–3.
    LinearStage { n: usize, r: Millis },
    /// The chaos harness's restart-guard probe: one 16-task stage whose
    /// first wave is short and second wave secretly long, so Algorithm 3's
    /// `c_j ≤ 0.2u` guard is the deciding filter. Exists so invariant
    /// checking inside the pool can be proven to have teeth.
    RestartProbe,
}

impl CellWorkload {
    /// Generate the workflow and ground-truth profile for this cell.
    pub fn generate(&self, seed: u64) -> (Workflow, ExecProfile) {
        match self {
            CellWorkload::Catalog(id) => id.generate(seed),
            CellWorkload::LinearStage { n, r } => wire_workloads::linear_stage(*n, *r),
            CellWorkload::RestartProbe => {
                let short = Millis::from_mins(2);
                let long = Millis::from_mins(25);
                let (wf, _) = linear_workflow(&[16], short);
                let mut times = vec![short; 8];
                times.extend(vec![long; 8]);
                (wf, ExecProfile::new(times))
            }
        }
    }

    fn tag(&self) -> String {
        match self {
            CellWorkload::Catalog(id) => format!("catalog:{}", id.name()),
            CellWorkload::LinearStage { n, r } => format!("linear:{n}x{}", r.as_ms()),
            CellWorkload::RestartProbe => "restart-probe".to_string(),
        }
    }
}

/// The scaling policy a cell runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    FullSite,
    PureReactive,
    ReactiveConserving,
    Wire(SteeringConfig),
    /// Ground-truth oracle (§IV-E robustness ablation).
    Oracle,
}

impl PolicyKind {
    /// The §IV-C setting this policy corresponds to (the oracle shares
    /// wire's cloud configuration).
    pub fn setting(&self) -> Setting {
        match self {
            PolicyKind::FullSite => Setting::FullSite,
            PolicyKind::PureReactive => Setting::PureReactive,
            PolicyKind::ReactiveConserving => Setting::ReactiveConserving,
            PolicyKind::Wire(_) | PolicyKind::Oracle => Setting::Wire,
        }
    }

    /// The policy kind a §IV-C grid setting maps to (wire runs get the
    /// default steering knobs).
    pub fn from_setting(setting: Setting) -> PolicyKind {
        match setting {
            Setting::FullSite => PolicyKind::FullSite,
            Setting::PureReactive => PolicyKind::PureReactive,
            Setting::ReactiveConserving => PolicyKind::ReactiveConserving,
            Setting::Wire => PolicyKind::Wire(SteeringConfig::default()),
        }
    }

    fn tag(&self) -> String {
        match self {
            PolicyKind::FullSite => "full-site".to_string(),
            PolicyKind::PureReactive => "pure-reactive".to_string(),
            PolicyKind::ReactiveConserving => "reactive-conserving".to_string(),
            PolicyKind::Wire(s) => {
                let mut t = format!(
                    "wire:wf={:x}:ft={:x}:mut={}",
                    s.waste_fraction.to_bits(),
                    s.fill_target.to_bits(),
                    s.mutation_drop_restart_guard
                );
                // the human label: non-default knobs are appended only when
                // set, so default cells keep their short, familiar labels
                if let Some(floor) = s.spot_on_demand_floor {
                    t.push_str(&format!(":floor={:x}", floor.to_bits()));
                }
                if s.memory_blind_families {
                    t.push_str(":blind");
                }
                if s.budget_knee != wire_planner::DEFAULT_BUDGET_KNEE {
                    t.push_str(&format!(":bknee={:x}", s.budget_knee.to_bits()));
                }
                if s.budget_spend_early {
                    t.push_str(":bspend");
                }
                if s.mutation_ignore_budget_veto {
                    t.push_str(":bmut");
                }
                t
            }
            PolicyKind::Oracle => "oracle".to_string(),
        }
    }
}

/// The transfer model a cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// [`TransferModel::default`]: the calibrated ExoGENI-like testbed.
    Default,
    /// [`TransferModel::none`]: zero-length transfers (Figures 2–3).
    None,
}

impl TransferKind {
    pub fn model(self) -> TransferModel {
        match self {
            TransferKind::Default => TransferModel::default(),
            TransferKind::None => TransferModel::none(),
        }
    }
}

/// One fully-resolved campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub workload: CellWorkload,
    pub policy: PolicyKind,
    pub cfg: CloudConfig,
    pub transfer: TransferKind,
    pub seed: u64,
}

impl Cell {
    /// A §IV-C grid cell: the catalog workload generated from `seed` under
    /// the setting's policy and cloud configuration, with the calibrated
    /// transfer model.
    pub fn grid(workload: WorkloadId, setting: Setting, charging_unit: Millis, seed: u64) -> Cell {
        Cell {
            workload: CellWorkload::Catalog(workload),
            policy: PolicyKind::from_setting(setting),
            cfg: cloud_config_for(setting, charging_unit, workload.spec().total_input_bytes),
            transfer: TransferKind::Default,
            seed,
        }
    }

    /// A Figure 2/3 linear-stage cell (idealized single-slot instances,
    /// continuous-monitoring approximation).
    pub fn linear(n: usize, r: Millis, u: Millis) -> Cell {
        let interval = Millis::from_ms((r.as_ms().min(u.as_ms()) / 20).max(1_000));
        Cell {
            workload: CellWorkload::LinearStage { n, r },
            policy: PolicyKind::Wire(SteeringConfig::default()),
            cfg: CloudConfig::linear_analysis(u, interval),
            transfer: TransferKind::None,
            seed: 1,
        }
    }

    /// A wire run with an explicit cloud configuration and steering knobs
    /// (the ablation sweeps).
    pub fn wire(
        workload: WorkloadId,
        cfg: CloudConfig,
        steering: SteeringConfig,
        seed: u64,
    ) -> Cell {
        Cell {
            workload: CellWorkload::Catalog(workload),
            policy: PolicyKind::Wire(steering),
            cfg,
            transfer: TransferKind::Default,
            seed,
        }
    }

    /// A ground-truth-oracle run under wire's cloud configuration.
    pub fn oracle(workload: WorkloadId, cfg: CloudConfig, seed: u64) -> Cell {
        Cell {
            workload: CellWorkload::Catalog(workload),
            policy: PolicyKind::Oracle,
            cfg,
            transfer: TransferKind::Default,
            seed,
        }
    }

    /// The chaos restart-guard probe (see [`CellWorkload::RestartProbe`]).
    /// With `mutated` the wire policy drops Algorithm 3's `c_j ≤ 0.2u`
    /// guard; campaign-level invariant checking must name the violation.
    pub fn restart_probe(mutated: bool) -> Cell {
        Cell {
            workload: CellWorkload::RestartProbe,
            policy: PolicyKind::Wire(SteeringConfig {
                mutation_drop_restart_guard: mutated,
                ..SteeringConfig::default()
            }),
            cfg: CloudConfig {
                initial_instances: 2,
                ..CloudConfig::exogeni(Millis::from_mins(15))
            },
            transfer: TransferKind::Default,
            seed: 42,
        }
    }

    /// Expected cost of running this cell in task-ticks: aggregate task time
    /// divided by the MAPE interval. Derived from the spec alone (no DAG is
    /// generated), so it costs nothing next to the run it predicts; the
    /// runner starts the heaviest cells first.
    pub fn cost_hint(&self) -> u64 {
        let task_ms = match &self.workload {
            CellWorkload::Catalog(id) => id
                .spec()
                .stages
                .iter()
                .map(|s| s.tasks as f64 * s.mean_exec_secs * 1e3)
                .sum::<f64>() as u64,
            CellWorkload::LinearStage { n, r } => (*n as u64).saturating_mul(r.as_ms()),
            CellWorkload::RestartProbe => {
                8 * (Millis::from_mins(2).as_ms() + Millis::from_mins(25).as_ms())
            }
        };
        task_ms / self.cfg.mape_interval.as_ms().max(1)
    }

    /// Human-readable cell label for progress lines and violation reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/u{}/seed{}",
            self.workload.tag(),
            self.policy.tag(),
            self.cfg.charging_unit.as_mins_f64(),
            self.seed
        )
    }
}

/// FNV-1a 64 accumulator; hand-rolled so keys are stable across std
/// versions and platforms.
struct KeyHasher(u64);

impl std::fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// Content-addressed key of a cell under the current
/// [`CACHE_FORMAT_VERSION`]: a hash of the derived `Debug` rendering of the
/// whole cell (workload, policy and steering knobs, every cloud-configuration
/// field, the resolved transfer model and the seed), so a field added to any
/// of those types moves the key with no edit here. Float `Debug` is
/// shortest-round-trip, so distinct values render distinctly; a toolchain
/// change to the format can only turn hits into misses, never into stale hits.
pub fn cache_key(cell: &Cell) -> u64 {
    cache_key_versioned(cell, CACHE_FORMAT_VERSION)
}

/// [`cache_key`] under an explicit format version (exposed so tests can
/// prove a version bump invalidates every key).
pub fn cache_key_versioned(cell: &Cell, version: u32) -> u64 {
    use std::fmt::Write;
    let mut h = KeyHasher(0xcbf2_9ce4_8422_2325);
    let whole = (
        &cell.workload,
        &cell.policy,
        &cell.cfg,
        cell.transfer.model(),
        cell.seed,
    );
    write!(h, "wire-campaign-cell;v{version};{whole:?}").expect("hashing cannot fail");
    h.0
}

/// The deterministic summary of one executed cell — everything the figure
/// front-ends derive their tables from. The two `*_wall_us` fields are
/// wall-clock measurements (informational; only meaningful on a fresh
/// execution, see the §IV-F overhead front-end which never uses the cache).
///
/// Equality compares only the *deterministic* fields — the wall-clock
/// measurements are excluded, so "same outputs regardless of thread count /
/// cache state" is expressible as plain `==`.
#[derive(Debug, Clone)]
pub struct CellOutput {
    pub policy: String,
    pub workflow: String,
    pub charging_units: u64,
    pub makespan_ms: u64,
    pub instance_time_ms: u64,
    pub peak_instances: u32,
    pub instances_launched: u32,
    pub busy_slot_ms: u64,
    pub wasted_slot_ms: u64,
    pub restarts: u32,
    pub failures: u32,
    /// Total bill in milli-dollars (Σ family unit price × billed units; on
    /// the legacy homogeneous cloud `charging_units × 1000`).
    pub cost_milli: u64,
    /// Spot evictions that reclaimed a running instance.
    pub evictions: u32,
    /// Task restarts caused by OOM kills (subset of `restarts`).
    pub oom_restarts: u32,
    pub mape_iterations: u64,
    /// §IV-E prediction-policy usage counters (all zero for non-wire cells).
    pub policy_uses: [u64; 5],
    /// Wire controller state footprint after the run (zero for non-wire).
    pub state_bytes: u64,
    /// Deterministic streaming-observability aggregates for this cell
    /// (virtual-time facts only; merges across cells in spec order).
    pub obs: ObsSnapshot,
    pub controller_wall_us: u64,
    pub exec_wall_us: u64,
}

impl PartialEq for CellOutput {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.workflow == other.workflow
            && self.charging_units == other.charging_units
            && self.makespan_ms == other.makespan_ms
            && self.instance_time_ms == other.instance_time_ms
            && self.peak_instances == other.peak_instances
            && self.instances_launched == other.instances_launched
            && self.busy_slot_ms == other.busy_slot_ms
            && self.wasted_slot_ms == other.wasted_slot_ms
            && self.restarts == other.restarts
            && self.failures == other.failures
            && self.cost_milli == other.cost_milli
            && self.evictions == other.evictions
            && self.oom_restarts == other.oom_restarts
            && self.mape_iterations == other.mape_iterations
            && self.policy_uses == other.policy_uses
            && self.state_bytes == other.state_bytes
            && self.obs == other.obs
    }
}

impl CellOutput {
    fn from_run(
        res: &RunResult,
        uses: [u64; 5],
        state_bytes: u64,
        obs: ObsSnapshot,
        exec_wall_us: u64,
    ) -> Self {
        CellOutput {
            policy: res.policy.clone(),
            workflow: res.workflow.clone(),
            charging_units: res.charging_units,
            makespan_ms: res.makespan.as_ms(),
            instance_time_ms: res.instance_time.as_ms(),
            peak_instances: res.peak_instances,
            instances_launched: res.instances_launched,
            busy_slot_ms: res.busy_slot_time.as_ms(),
            wasted_slot_ms: res.wasted_slot_time.as_ms(),
            restarts: res.restarts,
            failures: res.failures,
            cost_milli: res.cost_milli,
            evictions: res.evictions,
            oom_restarts: res.oom_restarts,
            mape_iterations: res.mape_iterations,
            policy_uses: uses,
            state_bytes,
            obs,
            controller_wall_us: res.controller_wall.as_micros() as u64,
            exec_wall_us,
        }
    }

    /// Rehydrate a [`RunResult`] carrying exactly the summary fields the
    /// figure aggregation paths read (evaluation-only per-task/per-instance
    /// records are empty). Reusing `wire_core`'s aggregation over these
    /// keeps campaign-regenerated CSVs byte-identical to the originals.
    pub fn to_run_result(&self) -> RunResult {
        RunResult {
            policy: self.policy.clone(),
            workflow: self.workflow.clone(),
            makespan: Millis::from_ms(self.makespan_ms),
            charging_units: self.charging_units,
            instance_time: Millis::from_ms(self.instance_time_ms),
            peak_instances: self.peak_instances,
            instances_launched: self.instances_launched,
            busy_slot_time: Millis::from_ms(self.busy_slot_ms),
            wasted_slot_time: Millis::from_ms(self.wasted_slot_ms),
            restarts: self.restarts,
            failures: self.failures,
            cost_milli: self.cost_milli,
            evictions: self.evictions,
            oom_restarts: self.oom_restarts,
            mape_iterations: self.mape_iterations,
            controller_wall: std::time::Duration::from_micros(self.controller_wall_us),
            task_records: Vec::new(),
            instance_bills: Vec::new(),
            pool_timeline: Vec::new(),
            per_workflow: Vec::new(),
        }
    }
}

/// What one session yields: the full result plus the wire controller's
/// prediction-policy usage and state footprint (zero for other policies).
struct Run {
    result: RunResult,
    policy_uses: [u64; 5],
    state_bytes: u64,
}

/// The optional recorders a run carries; `None` is disabled. The journal is
/// the raw event stream plus (under wire) the MAPE decision journal.
#[derive(Default)]
struct Recorders {
    journal: Option<TelemetryHandle>,
    checker: Option<InvariantChecker>,
    obs: Option<StreamingRecorder>,
}

/// The one session build behind every cell, [`Cell::run`] and
/// [`run_ensemble`]: the policy a [`PolicyKind`] names, with the journal and
/// the streaming recorder wired into the wire controller's side channels, on
/// one shared pool fed `submissions`. A present streaming recorder also
/// notes the session's makespan and bill.
fn run_session(
    kind: &PolicyKind,
    cfg: &CloudConfig,
    transfer: TransferModel,
    seed: u64,
    submissions: &[(Millis, &Workflow, &ExecProfile)],
    rec: Recorders,
) -> Result<Run, RunError> {
    let mut wire = None;
    let mut other: Box<dyn ScalingPolicy>;
    let policy: &mut dyn ScalingPolicy = match kind {
        PolicyKind::Wire(steering) => {
            let mut p = WirePolicy::new(*steering);
            if let Some(h) = &rec.journal {
                p = p.with_telemetry(h.clone());
            }
            if let Some(o) = &rec.obs {
                p = p.with_obs(o.clone());
            }
            wire.insert(p)
        }
        PolicyKind::Oracle => {
            // ground truth is indexed by the tasks of one workflow
            let [(_, _, prof)] = submissions else {
                panic!("an oracle run submits exactly one workflow");
            };
            other = Box::new(OracleWirePolicy::new((*prof).clone(), transfer.clone()));
            other.as_mut()
        }
        baseline => {
            other = build_policy(baseline.setting(), cfg);
            other.as_mut()
        }
    };
    let mut session = Session::new(cfg.clone())
        .transfer(transfer)
        .policy(policy)
        .seed(seed)
        .recording(Tee(rec.journal, Tee(rec.checker, rec.obs.clone())));
    for &(at, wf, prof) in submissions {
        session = session.submit_at(at, wf, prof);
    }
    let result = session.run()?;
    if let Some(o) = &rec.obs {
        o.note_session(result.makespan.as_ms(), result.charging_units);
    }
    let (policy_uses, state_bytes) =
        wire.map_or(([0; 5], 0), |p| (p.policy_uses(), p.state_bytes() as u64));
    Ok(Run {
        result,
        policy_uses,
        state_bytes,
    })
}

impl Cell {
    /// Run this cell with an optional journal (the event stream, plus the
    /// decision journal under wire) and an optional streaming recorder, and
    /// return the full [`RunResult`]. With neither attached the run records
    /// nothing; recorders are observational, so the result is the same
    /// either way.
    pub fn run(
        &self,
        journal: Option<TelemetryHandle>,
        obs: Option<StreamingRecorder>,
    ) -> RunResult {
        let (wf, prof) = self.workload.generate(self.seed);
        self.session(
            &wf,
            &prof,
            Recorders {
                journal,
                checker: None,
                obs,
            },
        )
        .result
    }

    fn session(&self, wf: &Workflow, prof: &ExecProfile, rec: Recorders) -> Run {
        let submissions = [(Millis::ZERO, wf, prof)];
        run_session(
            &self.policy,
            &self.cfg,
            self.transfer.model(),
            self.seed,
            &submissions,
            rec,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", self.label()))
    }
}

/// Run a whole ensemble (N workflows, staggered arrivals, one shared pool)
/// under one §IV-C setting and charging unit, optionally with a streaming
/// recorder riding the engine (and, under wire, the controller's
/// side channel). Per-workflow makespans and slowdowns land in
/// [`RunResult::per_workflow`].
pub fn run_ensemble(
    spec: &EnsembleSpec,
    setting: Setting,
    charging_unit: Millis,
    seed: u64,
    obs: Option<StreamingRecorder>,
) -> RunResult {
    let members = spec.generate(seed);
    let submissions: Vec<_> = members
        .iter()
        .map(|m| (m.submit_at, &m.workflow, &m.profile))
        .collect();
    run_session(
        &PolicyKind::from_setting(setting),
        &cloud_config(setting, charging_unit),
        TransferModel::default(),
        seed,
        &submissions,
        Recorders {
            obs,
            ..Recorders::default()
        },
    )
    .unwrap_or_else(|e| {
        panic!(
            "ensemble[{}] / {} / u={charging_unit}: {e}",
            members.len(),
            setting.label()
        )
    })
    .result
}

/// Execute one cell. With `check` the run is shadowed by
/// [`wire_chaos::InvariantChecker`] (and, for wire policies, the decision
/// journal is audited against the Algorithm 2/3 postconditions); recorders
/// are observational, so checking never changes the output. Returns the
/// deterministic summary and any invariant violations found.
pub fn execute(cell: &Cell, check: bool) -> (CellOutput, Vec<String>) {
    let (wf, prof) = cell.workload.generate(cell.seed);
    let t0 = Instant::now();
    let checker = check.then(|| {
        InvariantChecker::new(&cell.cfg)
            .expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32)
    });
    let journal = (check && matches!(cell.policy, PolicyKind::Wire(_))).then(TelemetryHandle::new);

    // Every cell rides the streaming recorder: its deterministic snapshot
    // travels with the output (and through the cache), so a warm-cache
    // campaign merges the same observability aggregates as a cold one.
    let obs = StreamingRecorder::new();
    let run = cell.session(
        &wf,
        &prof,
        Recorders {
            journal: journal.clone(),
            checker: checker.clone(),
            obs: Some(obs.clone()),
        },
    );
    let output = CellOutput::from_run(
        &run.result,
        run.policy_uses,
        run.state_bytes,
        obs.snapshot(),
        t0.elapsed().as_micros() as u64,
    );

    let mut violations = Vec::new();
    if let Some(c) = &checker {
        if let Some(h) = &journal {
            let buffer = h.take();
            c.absorb_decisions(&buffer.decisions);
            violations.extend(check_decision_journal(&buffer.decisions));
        }
        let report = c.report();
        if !report.is_clean() {
            violations.extend(
                report
                    .render()
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(|l| l.to_string()),
            );
        }
    }
    (output, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_obs::ObsConfig;
    use wire_telemetry::TelemetryEvent;

    #[test]
    fn wire_beats_full_site_on_cost() {
        let u = Millis::from_mins(15);
        let full = Cell::grid(WorkloadId::Tpch6S, Setting::FullSite, u, 2).run(None, None);
        let wire = Cell::grid(WorkloadId::Tpch6S, Setting::Wire, u, 2).run(None, None);
        assert!(
            wire.charging_units < full.charging_units,
            "wire {} vs full-site {}",
            wire.charging_units,
            full.charging_units
        );
    }

    #[test]
    fn telemetry_run_journals_every_tick_and_changes_nothing() {
        let cell = Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1);
        let journal = TelemetryHandle::new();
        let obs = StreamingRecorder::with_config(ObsConfig::per_interval(cell.cfg.mape_interval));
        let r = cell.run(Some(journal.clone()), Some(obs.clone()));
        let (buffer, snap) = (journal.take(), obs.snapshot());
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
        assert_eq!(snap.health.sessions, 1);
        // recording must not perturb the simulation
        let plain = cell.run(None, None);
        assert_eq!(plain.makespan, r.makespan);
        assert_eq!(plain.charging_units, r.charging_units);
        assert_eq!(plain.task_records, r.task_records);
    }
}
