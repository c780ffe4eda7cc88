//! The four workloads: their inputs, made from a seed; one pass over them;
//! and the checks that a pass computed the right answer.
//!
//! Every workload is a closed batch at a fixed input size. Arrivals happen
//! in simulated time, so there is no wall-clock arrival schedule to fall
//! behind.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wire_campaign::{
    cache, cache_key, execute, grid_cells, run_campaign, run_traffic, CacheMode, CampaignConfig,
    Cell, CellOutput, FigureRunner, PolicyKind, TrafficSpec,
};
use wire_core::experiment::{build_policy, cloud_config};
use wire_core::{median, ExperimentGrid, Setting};
use wire_dag::{ExecProfile, Millis, Workflow};
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::{StaticPolicy, SteeringConfig, WirePolicy};
use wire_simcloud::{
    CloudConfig, Engine, Recorder, RunError, RunResult, ScalingPolicy, Scheduler, SchedulerSpec,
    Session, TransferModel,
};
use wire_workloads::WorkloadId;

use crate::report::Metric;
use crate::shadow::Shadow;
use crate::trace::{TracedPolicy, TracedRecorder, TracedScheduler, Tracer};

/// The seed whose outcome digests are pinned below.
pub const DEFAULT_SEED: u64 = 7;

/// Worker threads of the campaign pool; every other workload runs on one.
pub const CAMPAIGN_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tenants, each a steady stream of tiny workflows: the per-tick
    /// fixed cost of the controller on near-idle pools.
    Traffic,
    /// The two slowest Figure 2 cells: the predictor and lookahead over
    /// 1000 live tasks.
    Fig2Tail,
    /// Catalog DAGs arriving into one full-site pool under a static policy:
    /// the engine and the rank schedulers, with the planner bypassed.
    DagBurst,
    /// The paper grid plus the Figure 2 sweep through the cached campaign
    /// runner on two threads, cold cache then warm.
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Traffic,
        Workload::Fig2Tail,
        Workload::DagBurst,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Traffic => "traffic",
            Workload::Fig2Tail => "fig2-tail",
            Workload::DagBurst => "dag-burst",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The outcome digest a pass must reproduce, pinned for one pass at
    /// [`DEFAULT_SEED`] and full scale: a change that moves any unit,
    /// makespan, restart, tick or event count fails the benchmark.
    pub fn pinned_digest(self, seed: u64, scale: Scale) -> Option<u64> {
        (seed == DEFAULT_SEED && scale == Scale::FULL).then_some(match self {
            Workload::Traffic => 0xb690_1e74_6f93_f6d8,
            Workload::Fig2Tail => 0x8bb8_b54b_09bf_963d,
            Workload::DagBurst => 0xe5c1_f89b_ea31_b539,
            Workload::Campaign => 0x5555_e6b8_da20_28eb,
        })
    }
}

/// Input sizes: the measured benchmark, or the quick smoke check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Total traffic arrivals, in tenants of 1000 workflows.
    pub traffic_arrivals: usize,
    /// Figure 2 R/U ratios at N = 1000, U = 1 min.
    pub fig2_ratios: &'static [f64],
    /// Catalog DAGs in the burst.
    pub dags: usize,
    /// The quick campaign grid (small workloads, two repetitions, quick
    /// Figure 2 sweep) with every cell shadowed by the invariant checker.
    pub quick_campaign: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        traffic_arrivals: 20_000,
        fig2_ratios: &[400.0, 1000.0],
        dags: 256,
        quick_campaign: false,
    };

    pub const CHECK: Scale = Scale {
        traffic_arrivals: 10_000,
        fig2_ratios: &[400.0],
        dags: 64,
        quick_campaign: true,
    };
}

/// Which layers a pass wraps.
#[derive(Clone, Copy)]
pub enum Instr<'t> {
    /// Nothing: the program as a user runs it.
    Off,
    /// Policy, recorder and scheduler spans.
    Layers(&'t Tracer),
    /// Policy spans plus the shadow controller on wire sessions.
    Shadow(&'t Tracer),
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the measured work (campaign: the cold-cache run).
    pub wall: Duration,
    /// Workflows run to completion.
    pub workflows: u64,
    /// Tasks completed, by the sessions' telemetry.
    pub tasks: u64,
    /// Telemetry events the sessions emitted.
    pub events: u64,
    /// MAPE ticks.
    pub ticks: u64,
    /// The engine's own clock around every `plan` call.
    pub controller: Duration,
    /// `WirePolicy` prediction-memo (hits, lookups), summed over sessions.
    pub memo: (u64, u64),
    /// FNV-1a over the pass's deterministic outcome.
    pub digest: u64,
    /// Per-cell outputs (fig2-tail, campaign), for the cross-checks.
    pub outputs: Vec<CellOutput>,
    /// Campaign: the warm-cache rerun's wall time.
    pub warm: Duration,
}

/// What a correct pass completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub workflows: u64,
    pub tasks: u64,
}

/// Tasks the sessions' telemetry counted as completed.
fn tasks_of(obs: &ObsSnapshot) -> u64 {
    obs.counter("task_completed")
}

/// FNV-1a, the digest `wire traffic` uses.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Run one session exactly as `Session::run` does — the engine's public
/// generic constructor with the config's scheduler, indexed core — with the
/// layers `instr` names wrapped. `wire` is the steering of a `WirePolicy`,
/// which the shadow controller mirrors.
#[allow(clippy::too_many_arguments)]
fn run_engine<P: ScalingPolicy, R: Recorder>(
    submissions: Vec<(Millis, &Workflow, &ExecProfile)>,
    config: CloudConfig,
    transfer: TransferModel,
    policy: P,
    seed: u64,
    recorder: R,
    instr: Instr<'_>,
    wire: Option<SteeringConfig>,
) -> Result<RunResult, RunError> {
    fn run<P: ScalingPolicy, R: Recorder, S: Scheduler>(
        mut engine: Engine<'_, P, R, S>,
    ) -> Result<RunResult, RunError> {
        engine.naive_core(false);
        engine.run()
    }
    let spec = config.scheduler;
    let sched_cfg = config.clone();
    let build = move |tasks: usize, stages: usize| spec.build(tasks, stages, &sched_cfg);
    match instr {
        Instr::Off => run(Engine::from_submissions_with(
            submissions,
            config,
            transfer,
            policy,
            seed,
            recorder,
            build,
        )?),
        Instr::Layers(t) => run(Engine::from_submissions_with(
            submissions,
            config,
            transfer,
            TracedPolicy::new(policy, t, None),
            seed,
            TracedRecorder::new(recorder, t),
            |tasks, stages| TracedScheduler::new(build(tasks, stages), t),
        )?),
        Instr::Shadow(t) => run(Engine::from_submissions_with(
            submissions,
            config,
            transfer,
            TracedPolicy::new(policy, t, wire.map(Shadow::new)),
            seed,
            recorder,
            build,
        )?),
    }
}

/// Telemetry events behind a cell's streaming snapshot.
fn events_of(out: &CellOutput) -> u64 {
    out.obs
        .counters
        .iter()
        .filter(|(k, _)| k.as_str() != "units_billed_total")
        .map(|(_, n)| n)
        .sum()
}

/// One cell run the way `wire_campaign::execute` runs it unchecked, with
/// the layers `instr` names wrapped.
fn run_cell(
    cell: &Cell,
    wf: &Workflow,
    prof: &ExecProfile,
    instr: Instr<'_>,
) -> Result<(CellOutput, Duration, (u64, u64)), String> {
    let t0 = Instant::now();
    let tm = cell.transfer.model();
    let obs = StreamingRecorder::new();
    let subs = vec![(Millis::ZERO, wf, prof)];
    let fail = |e: RunError| format!("{}: {e}", cell.label());
    let (res, uses, state, memo) = match &cell.policy {
        PolicyKind::Wire(steering) => {
            let mut policy = WirePolicy::new(*steering).with_obs(obs.clone());
            let res = run_engine(
                subs,
                cell.cfg.clone(),
                tm,
                &mut policy,
                cell.seed,
                obs.clone(),
                instr,
                Some(*steering),
            )
            .map_err(fail)?;
            let state = policy.state_bytes() as u64;
            (res, policy.policy_uses(), state, policy.memo_stats())
        }
        PolicyKind::Oracle => {
            return Err(format!(
                "{}: oracle cells are not benchmarked",
                cell.label()
            ))
        }
        baseline => {
            let policy = build_policy(baseline.setting(), &cell.cfg);
            let res = run_engine(
                subs,
                cell.cfg.clone(),
                tm,
                policy,
                cell.seed,
                obs.clone(),
                instr,
                None,
            )
            .map_err(fail)?;
            (res, [0; 5], 0, (0, 0))
        }
    };
    obs.note_session(res.makespan.as_ms(), res.charging_units);
    let out = CellOutput {
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
        state_bytes: state,
        obs: obs.snapshot(),
        controller_wall_us: res.controller_wall.as_micros() as u64,
        exec_wall_us: t0.elapsed().as_micros() as u64,
    };
    Ok((out, res.controller_wall, memo))
}

/// Cells run one after another on this thread, folded into a pass.
#[derive(Default)]
struct CellRuns {
    outputs: Vec<CellOutput>,
    controller: Duration,
    memo: (u64, u64),
}

impl CellRuns {
    fn run(
        &mut self,
        cell: &Cell,
        wf: &Workflow,
        prof: &ExecProfile,
        instr: Instr<'_>,
    ) -> Result<(), String> {
        let (out, controller, (hits, lookups)) = run_cell(cell, wf, prof, instr)?;
        self.outputs.push(out);
        self.controller += controller;
        self.memo.0 += hits;
        self.memo.1 += lookups;
        Ok(())
    }

    fn into_pass(self) -> Pass {
        Pass {
            controller: self.controller,
            memo: self.memo,
            ..cells_pass(self.outputs)
        }
    }
}

/// Fold cell outputs into a pass: counts, the engine's controller clock
/// and a digest of units, makespans, restarts, ticks and events.
fn cells_pass(outputs: Vec<CellOutput>) -> Pass {
    let mut d = Digest::new();
    let mut pass = Pass::default();
    for out in &outputs {
        let events = events_of(out);
        for v in [
            out.charging_units,
            out.makespan_ms,
            out.restarts as u64,
            out.mape_iterations,
            events,
        ] {
            d.u64(v);
        }
        pass.workflows += 1;
        pass.tasks += tasks_of(&out.obs);
        pass.events += events;
        pass.ticks += out.mape_iterations;
        pass.controller += Duration::from_micros(out.controller_wall_us);
    }
    pass.digest = d.0;
    pass.outputs = outputs;
    pass
}

/// A directory under the benchmark package for the campaign's caches
/// (created by the cache's first store), removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        ScratchDir(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tmp")
                .join(format!("{name}-{}", std::process::id())),
        )
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // the shared parent goes too once no run is using it
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Per-tenant stream salt of `wire traffic` (`wire_campaign::traffic`).
const TENANT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

pub struct Traffic {
    spec: TrafficSpec,
    template: (Workflow, ExecProfile),
    arrivals: Vec<Vec<Millis>>,
}

pub struct Fig2 {
    cells: Vec<(Cell, Workflow, ExecProfile)>,
}

pub struct Dags {
    dags: Vec<(Workflow, ExecProfile)>,
    cfg: CloudConfig,
    seed: u64,
}

pub struct Campaign {
    cells: Vec<Cell>,
    /// Each cell's task count, from its generated DAG: what the cell's run
    /// must complete.
    tasks: Vec<u64>,
    check: bool,
    scratch: ScratchDir,
}

/// A workload's inputs, made from the seed.
pub enum Inputs {
    Traffic(Traffic),
    Fig2(Fig2),
    Dags(Dags),
    Campaign(Campaign),
}

/// Figure 2's linear-stage cells: N tasks of runtime R on a U = 1 min
/// charging unit.
fn fig2_cells(ns: &[usize], ratios: &[f64]) -> Vec<Cell> {
    let u = Millis::from_secs(60);
    ns.iter()
        .flat_map(|&n| {
            ratios
                .iter()
                .map(move |&ru| Cell::linear(n, u.scale(ru), u))
        })
        .collect()
}

/// Every `SAMPLE_STRIDE`-th campaign cell is re-executed sequentially by
/// the traced run.
const SAMPLE_STRIDE: usize = 8;

impl Inputs {
    pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        match workload {
            Workload::Traffic => {
                let spec = TrafficSpec {
                    seed,
                    ..TrafficSpec::with_total(scale.traffic_arrivals)
                };
                let template = spec.template();
                let arrivals = (0..spec.tenants).map(|t| spec.arrival_times(t)).collect();
                Inputs::Traffic(Traffic {
                    spec,
                    template,
                    arrivals,
                })
            }
            Workload::Fig2Tail => Inputs::Fig2(Fig2 {
                cells: fig2_cells(&[1000], scale.fig2_ratios)
                    .into_iter()
                    .map(|cell| {
                        let cell = Cell { seed, ..cell };
                        let (wf, prof) = cell.workload.generate(cell.seed);
                        (cell, wf, prof)
                    })
                    .collect(),
            }),
            Workload::DagBurst => Inputs::Dags(Dags {
                dags: (0..scale.dags)
                    .map(|i| {
                        WorkloadId::ALL[i % WorkloadId::ALL.len()]
                            .generate(seed.wrapping_add(i as u64))
                    })
                    .collect(),
                cfg: CloudConfig {
                    scheduler: SchedulerSpec::Portfolio,
                    ..cloud_config(Setting::FullSite, Millis::from_mins(15))
                },
                seed,
            }),
            Workload::Campaign => {
                let (grid, fig2) = if scale.quick_campaign {
                    let runner = FigureRunner {
                        cfg: CampaignConfig::default(),
                        quick: true,
                        scheduler: None,
                    };
                    (
                        runner.paper_grid(),
                        fig2_cells(&[10, 100], &[1.5, 4.0, 40.0]),
                    )
                } else {
                    (
                        ExperimentGrid::paper(WorkloadId::ALL.to_vec(), 3),
                        fig2_cells(
                            &[10, 100, 1000],
                            &[1.5, 2.0, 4.0, 10.0, 40.0, 100.0, 400.0, 1000.0],
                        ),
                    )
                };
                let mut cells = grid_cells(&ExperimentGrid {
                    base_seed: seed,
                    ..grid
                });
                cells.extend(fig2);
                let tasks = cells
                    .iter()
                    .map(|cell| cell.workload.generate(cell.seed).0.num_tasks() as u64)
                    .collect();
                Inputs::Campaign(Campaign {
                    cells,
                    tasks,
                    check: scale.quick_campaign,
                    scratch: ScratchDir::new("campaign"),
                })
            }
        }
    }

    pub fn workload(&self) -> Workload {
        match self {
            Inputs::Traffic(_) => Workload::Traffic,
            Inputs::Fig2(_) => Workload::Fig2Tail,
            Inputs::Dags(_) => Workload::DagBurst,
            Inputs::Campaign(_) => Workload::Campaign,
        }
    }

    /// Does any session run a `WirePolicy` (so the shadow applies)?
    pub fn runs_wire(&self) -> bool {
        !matches!(self, Inputs::Dags(_))
    }

    /// What one pass (`traced = false`) or one traced pass completes.
    pub fn expected(&self, traced: bool) -> Expected {
        let sum = |tasks: &mut dyn Iterator<Item = u64>| {
            tasks.fold(
                Expected {
                    workflows: 0,
                    tasks: 0,
                },
                |e, t| Expected {
                    workflows: e.workflows + 1,
                    tasks: e.tasks + t,
                },
            )
        };
        let dag_tasks = |wf: &Workflow| wf.num_tasks() as u64;
        match self {
            Inputs::Traffic(t) => Expected {
                workflows: t.spec.total_arrivals() as u64,
                tasks: t.spec.total_arrivals() as u64 * dag_tasks(&t.template.0),
            },
            Inputs::Fig2(f) => sum(&mut f.cells.iter().map(|(_, wf, _)| dag_tasks(wf))),
            Inputs::Dags(d) => sum(&mut d.dags.iter().map(|(wf, _)| dag_tasks(wf))),
            Inputs::Campaign(c) if traced => {
                sum(&mut c.tasks.iter().copied().step_by(SAMPLE_STRIDE))
            }
            Inputs::Campaign(c) => sum(&mut c.tasks.iter().copied()),
        }
    }

    /// One pass as a user runs it, untraced.
    pub fn pass(&self) -> Result<Pass, String> {
        match self {
            Inputs::Campaign(c) => c.pass(),
            _ => self.traced_pass(Instr::Off),
        }
    }

    /// The unit of work the traced run times layer by layer. For the
    /// session workloads it is the pass itself; for the campaign, whose
    /// sessions run inside the library's thread pool, it is every
    /// [`SAMPLE_STRIDE`]-th cell re-executed sequentially on this thread.
    pub fn traced_pass(&self, instr: Instr<'_>) -> Result<Pass, String> {
        let t0 = Instant::now();
        let mut pass = match self {
            Inputs::Traffic(t) => t.pass(instr)?,
            Inputs::Fig2(f) => {
                let mut runs = CellRuns::default();
                for (cell, wf, prof) in &f.cells {
                    runs.run(cell, wf, prof, instr)?;
                }
                runs.into_pass()
            }
            Inputs::Dags(d) => d.pass(instr)?,
            Inputs::Campaign(c) => c.sample_pass(instr)?,
        };
        pass.wall = t0.elapsed();
        Ok(pass)
    }

    /// Time to generate every workflow a pass runs (median of three).
    pub fn generate_ms(&self) -> f64 {
        let once = || {
            let t0 = Instant::now();
            match self {
                Inputs::Traffic(t) => {
                    std::hint::black_box(t.spec.template());
                }
                Inputs::Fig2(f) => f.cells.iter().for_each(|(cell, _, _)| {
                    std::hint::black_box(cell.workload.generate(cell.seed));
                }),
                Inputs::Dags(d) => (0..d.dags.len()).for_each(|i| {
                    std::hint::black_box(
                        WorkloadId::ALL[i % WorkloadId::ALL.len()]
                            .generate(d.seed.wrapping_add(i as u64)),
                    );
                }),
                Inputs::Campaign(c) => c.cells.iter().for_each(|cell| {
                    std::hint::black_box(cell.workload.generate(cell.seed));
                }),
            }
            t0.elapsed().as_secs_f64() * 1e3
        };
        median(&[once(), once(), once()]).expect("three samples")
    }

    /// Check a pass against an independent path to the same answer:
    /// `run_traffic`, `execute`, the `Session` builder, or (campaign) the
    /// traced run's sequential re-execution against the pool's outputs.
    pub fn cross_check(&self, reference: &Pass) -> Result<(), String> {
        match self {
            Inputs::Traffic(t) => {
                let report = run_traffic(&t.spec, Some(1));
                if report.digest != reference.digest {
                    return Err(format!(
                        "traffic: mirror digest {:016x} != run_traffic {:016x}",
                        reference.digest, report.digest
                    ));
                }
                if report.completed_workflows != t.spec.total_arrivals() as u64 {
                    return Err("traffic: run_traffic lost workflows".into());
                }
            }
            Inputs::Fig2(f) => {
                for ((cell, _, _), out) in f.cells.iter().zip(&reference.outputs) {
                    let (lib, violations) = execute(cell, false);
                    if &lib != out || !violations.is_empty() {
                        return Err(format!(
                            "fig2-tail: {} differs from execute()",
                            cell.label()
                        ));
                    }
                }
            }
            Inputs::Dags(d) => {
                let via_session = d.pass_via_session()?;
                if via_session != reference.digest {
                    return Err(format!(
                        "dag-burst: digest {:016x} != Session::run {via_session:016x}",
                        reference.digest
                    ));
                }
            }
            Inputs::Campaign(c) => {
                let sample = c.sample_pass(Instr::Off)?;
                let pool = c
                    .cells
                    .iter()
                    .zip(&reference.outputs)
                    .step_by(SAMPLE_STRIDE);
                for ((cell, lib), seq) in pool.zip(&sample.outputs) {
                    if lib != seq {
                        return Err(format!(
                            "campaign: {} differs between the pool and a sequential rerun",
                            cell.label()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Workload-specific per-layer numbers, from one untraced pass.
    pub fn extras(&self, pass: &Pass) -> Result<Vec<Metric>, String> {
        match self {
            Inputs::Campaign(c) => c.extras(pass),
            _ => Ok(Vec::new()),
        }
    }
}

impl Traffic {
    /// Every tenant in turn, as `run_tenant` runs it (same config, seed,
    /// policy and recorder), folded into `run_traffic`'s digest.
    fn pass(&self, instr: Instr<'_>) -> Result<Pass, String> {
        let (wf, prof) = &self.template;
        let mut merged = ObsSnapshot::default();
        let mut d = Digest::new();
        let mut pass = Pass::default();
        for (tenant, arrivals) in self.arrivals.iter().enumerate() {
            let obs = StreamingRecorder::new();
            let mut policy = WirePolicy::default().with_obs(obs.clone());
            let res = run_engine(
                arrivals.iter().map(|&at| (at, wf, prof)).collect(),
                self.spec.config(),
                TransferModel::none(),
                &mut policy,
                self.spec.seed ^ (tenant as u64).wrapping_mul(TENANT_SALT),
                obs.clone(),
                instr,
                Some(SteeringConfig::default()),
            )
            .map_err(|e| format!("traffic tenant {tenant}: {e}"))?;
            let events = obs.health().events_total;
            merged.merge(&obs.snapshot());
            for v in [
                tenant as u64,
                res.per_workflow.len() as u64,
                res.charging_units,
                res.makespan.as_ms(),
                res.restarts as u64,
                res.mape_iterations,
                events,
            ] {
                d.u64(v);
            }
            let (hits, lookups) = policy.memo_stats();
            pass.workflows += res.per_workflow.len() as u64;
            pass.events += events;
            pass.ticks += res.mape_iterations;
            pass.controller += res.controller_wall;
            pass.memo.0 += hits;
            pass.memo.1 += lookups;
        }
        d.bytes(merged.to_json_string().as_bytes());
        pass.tasks = tasks_of(&merged);
        pass.digest = d.0;
        Ok(pass)
    }
}

impl Dags {
    fn submissions(&self) -> Vec<(Millis, &Workflow, &ExecProfile)> {
        self.dags
            .iter()
            .enumerate()
            .map(|(i, (wf, prof))| (Millis::from_secs(60 * i as u64), wf, prof))
            .collect()
    }

    fn digest(res: &RunResult, events: u64) -> u64 {
        let mut d = Digest::new();
        for v in [
            res.charging_units,
            res.makespan.as_ms(),
            res.restarts as u64,
            res.mape_iterations,
            events,
        ] {
            d.u64(v);
        }
        for w in &res.per_workflow {
            d.u64(w.makespan.as_ms());
        }
        d.0
    }

    fn pass(&self, instr: Instr<'_>) -> Result<Pass, String> {
        let obs = StreamingRecorder::new();
        let res = run_engine(
            self.submissions(),
            self.cfg.clone(),
            TransferModel::default(),
            StaticPolicy::full_site(self.cfg.site_capacity),
            self.seed,
            obs.clone(),
            instr,
            None,
        )
        .map_err(|e| format!("dag-burst: {e}"))?;
        let events = obs.health().events_total;
        Ok(Pass {
            workflows: res.per_workflow.len() as u64,
            tasks: tasks_of(&obs.snapshot()),
            events,
            ticks: res.mape_iterations,
            controller: res.controller_wall,
            digest: Self::digest(&res, events),
            ..Pass::default()
        })
    }

    /// The same burst through the public `Session` builder.
    fn pass_via_session(&self) -> Result<u64, String> {
        let obs = StreamingRecorder::new();
        let mut session = Session::new(self.cfg.clone())
            .transfer(TransferModel::default())
            .policy(StaticPolicy::full_site(self.cfg.site_capacity))
            .seed(self.seed)
            .recording(obs.clone());
        for (at, wf, prof) in self.submissions() {
            session = session.submit_at(at, wf, prof);
        }
        let res = session.run().map_err(|e| format!("dag-burst: {e}"))?;
        Ok(Self::digest(&res, obs.health().events_total))
    }
}

impl Campaign {
    fn config(&self, dir: &Path) -> CampaignConfig {
        CampaignConfig {
            threads: Some(CAMPAIGN_THREADS),
            cache_dir: Some(dir.to_path_buf()),
            mode: CacheMode::Resume,
            check: self.check,
            progress: false,
        }
    }

    /// Cold cache into a fresh directory, then a warm rerun that must only
    /// read it back.
    fn pass(&self) -> Result<Pass, String> {
        let dir = self.scratch.0.join("cache");
        let _ = fs::remove_dir_all(&dir);
        let cfg = self.config(&dir);
        let t0 = Instant::now();
        let cold = run_campaign(&self.cells, &cfg);
        let wall = t0.elapsed();
        let t1 = Instant::now();
        let warm = run_campaign(&self.cells, &cfg);
        let warm_wall = t1.elapsed();
        let _ = fs::remove_dir_all(&dir);
        let n = self.cells.len();
        if let Some(v) = cold.violations.first() {
            return Err(format!(
                "campaign: invariant violation in {}: {}",
                v.label, v.message
            ));
        }
        if cold.executed != n || cold.corrupt_entries != 0 {
            return Err(format!(
                "campaign: cold run executed {}/{n} cells",
                cold.executed
            ));
        }
        if warm.cache_hits != n || warm.executed != 0 {
            return Err(format!(
                "campaign: warm run hit {}/{n} cells",
                warm.cache_hits
            ));
        }
        if warm.outputs != cold.outputs || warm.obs != cold.obs {
            return Err("campaign: warm outputs differ from cold".into());
        }
        Ok(Pass {
            wall,
            warm: warm_wall,
            ..cells_pass(cold.outputs)
        })
    }

    /// Every [`SAMPLE_STRIDE`]-th cell, generated and run on this thread as
    /// `execute` runs it.
    fn sample_pass(&self, instr: Instr<'_>) -> Result<Pass, String> {
        let mut runs = CellRuns::default();
        for cell in self.cells.iter().step_by(SAMPLE_STRIDE) {
            let (wf, prof) = cell.workload.generate(cell.seed);
            runs.run(cell, &wf, &prof, instr)?;
        }
        Ok(runs.into_pass())
    }

    /// Pool balance and per-cell cost from the library's own cell clocks,
    /// the warm rerun, and the cache's key/store/load cost per entry.
    fn extras(&self, pass: &Pass) -> Result<Vec<Metric>, String> {
        let exec_us: Vec<f64> = pass.outputs.iter().map(|o| o.exec_wall_us as f64).collect();
        let busy_us: f64 = exec_us.iter().sum();
        let wall_us = pass.wall.as_secs_f64() * 1e6;
        let dir = self.scratch.0.join("cache-timing");
        let _ = fs::remove_dir_all(&dir);
        let (mut key_ns, mut store_ns, mut load_ns) = (0u64, 0u64, 0u64);
        for (cell, out) in self.cells.iter().zip(&pass.outputs) {
            let t0 = Instant::now();
            let key = std::hint::black_box(cache_key(cell));
            let t1 = Instant::now();
            cache::store(&dir, key, out).map_err(|e| format!("cache store: {e}"))?;
            let t2 = Instant::now();
            let back = cache::load(&dir, key).map_err(|e| format!("cache load: {e:?}"))?;
            let t3 = Instant::now();
            if &back != out {
                return Err(format!(
                    "campaign: cache round trip changed {}",
                    cell.label()
                ));
            }
            key_ns += (t1 - t0).as_nanos() as u64;
            store_ns += (t2 - t1).as_nanos() as u64;
            load_ns += (t3 - t2).as_nanos() as u64;
        }
        let _ = fs::remove_dir_all(&dir);
        let n = self.cells.len().max(1) as f64;
        Ok(vec![
            Metric::new(
                "campaign.pool.efficiency",
                busy_us / (CAMPAIGN_THREADS as f64 * wall_us),
                "fraction",
            ),
            Metric::new(
                "campaign.cell.p50_ms",
                median(&exec_us).unwrap_or(0.0) / 1e3,
                "ms",
            ),
            Metric::new(
                "campaign.cell.max_ms",
                exec_us.iter().copied().fold(0.0, f64::max) / 1e3,
                "ms",
            ),
            Metric::new("campaign.warm_s", pass.warm.as_secs_f64(), "s"),
            Metric::new("campaign.cache.key.ns", key_ns as f64 / n, "ns"),
            Metric::new(
                "campaign.cache.store.us_per_entry",
                store_ns as f64 / n / 1e3,
                "us",
            ),
            Metric::new(
                "campaign.cache.load.us_per_entry",
                load_ns as f64 / n / 1e3,
                "us",
            ),
        ])
    }
}
