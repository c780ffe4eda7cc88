//! The engine has one dispatch loop, memory-aware first-fit. A cloud whose
//! memory never binds is one input to it, not a mode of its own: a one-row
//! family table with finite memory and a profile whose claims and peaks
//! always fit must run exactly like the empty table with no profile.
//!
//! The pairs run under a static pool and a pure-reactive pool, across all
//! six scheduler specs, with plain runs, a chaos pool kill at a stage's
//! first dispatch (which re-enters dispatch mid-assignment) and MTBF
//! failures. Each pair must agree on every task record, the pool timeline,
//! the per-instance bills, the charging units, the cost and the telemetry
//! stream. Because both runs share the one loop, the memory-free run is
//! also checked against first-fit read off its own telemetry: every task
//! lands on the lowest-id running instance with a free slot.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire_dag::{ExecProfile, Millis, StageId, TaskId, Workflow, WorkflowBuilder};
use wire_simcloud::{
    CloudConfig, FamilySpec, FaultPlan, InstanceId, MemoryProfile, MonitorSnapshot, PoolPlan,
    RunResult, ScalingPolicy, SchedulerSpec, Session, TelemetryEvent, TelemetryHandle,
    TerminateWhen, TransferModel,
};

/// Task slots per instance.
const SLOTS: u32 = 3;
/// Memory of the one finite-memory row.
const MEM_MB: i64 = 3_000;

/// A fixed pool topped up to `target` instances (wire-planner's
/// `StaticPolicy`).
struct Static(u32);

impl ScalingPolicy for Static {
    fn name(&self) -> &str {
        "static"
    }

    fn plan(&mut self, snap: &MonitorSnapshot<'_>) -> PoolPlan {
        let m = snap.pool_size();
        if m < self.0 {
            PoolPlan::launch(self.0 - m)
        } else {
            PoolPlan::keep()
        }
    }
}

/// Pool = ⌈active tasks / slots⌉ every tick, shrinking at once onto the
/// idlest instances (wire-planner's `PureReactive`).
struct Reactive;

impl ScalingPolicy for Reactive {
    fn name(&self) -> &str {
        "reactive"
    }

    fn plan(&mut self, snap: &MonitorSnapshot<'_>) -> PoolPlan {
        let l = snap.config.slots_per_instance as usize;
        let target = (snap.active_tasks().div_ceil(l) as u32).max(1);
        let m = snap.pool_size();
        if target >= m {
            return PoolPlan::launch(target - m);
        }
        let mut idle: Vec<(usize, InstanceId)> = (snap.instances.iter())
            .filter(|iv| iv.is_running())
            .map(|iv| (iv.tasks.len(), iv.id))
            .collect();
        idle.sort();
        PoolPlan {
            launch: 0,
            launch_families: vec![],
            terminate: (idle.into_iter().take((m - target) as usize))
                .map(|(_, id)| (id, TerminateWhen::Now))
                .collect(),
        }
    }
}

/// A random layered DAG: `stages` stages of 4–12 tasks, each task after a
/// stage's first depending on one to three tasks of the stage before.
fn layered(rng: &mut StdRng, name: &str, stages: usize) -> (Workflow, ExecProfile) {
    let mut b = WorkflowBuilder::new(name);
    let mut prev: Vec<TaskId> = Vec::new();
    for s in 0..stages {
        let stage = b.add_stage(format!("s{s}"));
        let width = rng.gen_range(4..=12);
        let tasks: Vec<TaskId> = (0..width)
            .map(|_| {
                b.add_task(
                    stage,
                    rng.gen_range(0..50_000_000),
                    rng.gen_range(0..5_000_000),
                )
            })
            .collect();
        for &t in &tasks {
            for _ in 0..rng.gen_range(1..=3usize).min(prev.len()) {
                let p = prev[rng.gen_range(0..prev.len())];
                // a repeated edge is rejected; the DAG just keeps one
                let _ = b.add_dep(p, t);
            }
        }
        prev = tasks;
    }
    let wf = b.build().unwrap();
    let times = (0..wf.num_tasks())
        .map(|_| Millis::from_secs(rng.gen_range(20..900)))
        .collect();
    (wf, ExecProfile::new(times))
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// Kill the whole pool when the given global stage first dispatches.
    StageKill(u32),
    Mtbf,
}

fn config(spec: SchedulerSpec, fault: Fault) -> CloudConfig {
    CloudConfig {
        slots_per_instance: SLOTS,
        site_capacity: 6,
        initial_instances: 2,
        launch_lag: Millis::from_mins(2),
        charging_unit: Millis::from_mins(15),
        mape_interval: Millis::from_mins(1),
        exec_jitter: 0.2,
        scheduler: spec,
        mean_time_between_failures: match fault {
            Fault::Mtbf => Some(Millis::from_mins(30)),
            _ => None,
        },
        ..CloudConfig::default()
    }
}

type Events = Vec<(Millis, TelemetryEvent)>;

/// One run over `dags` (the second submitted 10 minutes after the first),
/// with its telemetry. `memory` attaches the one finite-memory row and its
/// profile.
fn run(
    dags: &[(Workflow, ExecProfile)],
    cfg: CloudConfig,
    fault: Fault,
    memory: Option<&MemoryProfile>,
    reactive: bool,
    seed: u64,
) -> (RunResult, Events) {
    let at = format!("{} {fault:?} seed={seed}", cfg.scheduler.tag());
    let cfg = match memory {
        Some(_) => cfg.with_families(vec![FamilySpec::legacy(SLOTS).memory_mb(MEM_MB)]),
        None => cfg,
    };
    let handle = TelemetryHandle::new();
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .seed(seed)
        .recording(handle.clone());
    for (i, (wf, prof)) in dags.iter().enumerate() {
        session = session.submit_at(Millis::from_mins(10 * i as u64), wf, prof);
    }
    if let Fault::StageKill(stage) = fault {
        session = session.chaos(FaultPlan::new().kill_pool_at_stage_start(StageId(stage)));
    }
    if let Some(profile) = memory {
        session = session.memory(profile.clone());
    }
    let result = match reactive {
        true => session.policy(Reactive).run(),
        false => session.policy(Static(4)).run(),
    }
    .unwrap_or_else(|e| panic!("{at}: {e}"));
    (result, handle.take().events)
}

/// Replays the instance lifecycle and slot occupancy from the telemetry
/// stream and checks that every dispatch chose the lowest-id running
/// instance with a free slot.
fn assert_lowest_id_first_fit(events: &Events, at: &str) {
    // running instance → tasks it holds
    let mut running: BTreeMap<u32, u32> = BTreeMap::new();
    for &(now, ev) in events {
        match ev {
            TelemetryEvent::InstanceReady { instance } => {
                running.insert(instance, 0);
            }
            TelemetryEvent::InstanceDraining { instance, .. }
            | TelemetryEvent::InstanceTerminated { instance, .. } => {
                running.remove(&instance);
            }
            TelemetryEvent::TaskCompleted { instance, .. } => {
                if let Some(held) = running.get_mut(&instance) {
                    *held -= 1;
                }
            }
            TelemetryEvent::TaskDispatched { task, instance, .. } => {
                let lowest = running.iter().find(|&(_, &held)| held < SLOTS);
                assert_eq!(
                    lowest.map(|(&i, _)| i),
                    Some(instance),
                    "{at}: t{task} dispatched at {now}"
                );
                *running.get_mut(&instance).unwrap() += 1;
            }
            _ => {}
        }
    }
}

/// Claims and peaks of at most a slot's share of [`MEM_MB`]: any instance
/// with a free slot holds the task, and co-resident peaks never overrun.
fn fitting_profile(rng: &mut StdRng, tasks: usize) -> MemoryProfile {
    let share = MEM_MB / SLOTS as i64;
    let demand = (0..tasks).map(|_| rng.gen_range(0..=share)).collect();
    let peak = (0..tasks).map(|_| rng.gen_range(0..=share)).collect();
    MemoryProfile::new(demand, peak).unwrap()
}

fn assert_same_run(blind: &RunResult, packed: &RunResult, at: &str) {
    assert_eq!(
        blind.task_records, packed.task_records,
        "{at}: task records"
    );
    assert_eq!(
        blind.pool_timeline, packed.pool_timeline,
        "{at}: pool timeline"
    );
    assert_eq!(blind.instance_bills, packed.instance_bills, "{at}: bills");
    assert_eq!(blind.charging_units, packed.charging_units, "{at}: units");
    assert_eq!(blind.cost_milli, packed.cost_milli, "{at}: cost");
    assert_eq!(blind.makespan, packed.makespan, "{at}: makespan");
    assert_eq!(blind.restarts, packed.restarts, "{at}: restarts");
    assert_eq!(blind.failures, packed.failures, "{at}: failures");
    assert_eq!(packed.oom_restarts, 0, "{at}: a fitting profile OOMed");
}

#[test]
fn memory_that_never_binds_runs_like_no_memory() {
    let (mut restarted, mut failed) = (0, 0);
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed + seed);
        let dags = [layered(&mut rng, "a", 4), layered(&mut rng, "b", 3)];
        let tasks = dags.iter().map(|(wf, _)| wf.num_tasks()).sum();
        let profile = fitting_profile(&mut rng, tasks);
        for spec in SchedulerSpec::ALL {
            for fault in [Fault::None, Fault::StageKill(2), Fault::Mtbf] {
                for reactive in [false, true] {
                    let cfg = config(spec, fault);
                    let (blind, blind_events) =
                        run(&dags, cfg.clone(), fault, None, reactive, seed);
                    let (packed, packed_events) =
                        run(&dags, cfg, fault, Some(&profile), reactive, seed);
                    let at = format!("{} {fault:?} reactive={reactive} seed={seed}", spec.tag());
                    assert_same_run(&blind, &packed, &at);
                    assert!(blind_events == packed_events, "{at}: telemetry differs");
                    assert_lowest_id_first_fit(&blind_events, &at);
                    assert_eq!(blind.task_records.len(), tasks, "{at}");
                    restarted += (blind.restarts > 0) as u32;
                    failed += (blind.failures > 0) as u32;
                }
            }
        }
    }
    // the faults really struck: dispatch re-entered with tasks to resubmit
    assert!(restarted >= 36, "only {restarted} runs restarted a task");
    assert!(failed >= 36, "only {failed} runs lost an instance");
}
