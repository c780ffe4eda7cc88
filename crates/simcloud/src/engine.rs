//! The discrete-event engine driving a session of workflow runs under one
//! scaling policy.
//!
//! The engine owns the virtual clock and replays ground-truth execution times
//! from each workflow's [`ExecProfile`] while the policy — invoked at every
//! MAPE tick with a sanitized [`MonitorSnapshot`] — grows and shrinks the
//! shared instance pool. A session holds one or more workflows with
//! submission times; every workflow's tasks and stages occupy a contiguous
//! slice of a session-global index space, so a single-workflow session
//! (global ids = local ids) is event-for-event identical to the historical
//! one-workflow engine. Determinism: a run is a pure function of
//! (submissions, config, seed, policy state); events at equal times fire in
//! insertion order.

use crate::chaos::{ChaosState, FaultAction, FaultPlan, FaultTrigger};
use crate::config::CloudConfig;
use crate::event::{EventKind, EventQueue};
use crate::family::{FamilyId, MemoryProfile};
use crate::instance::{Instance, InstanceId, InstanceState, InstanceStateView, SlotArena};
use crate::observe::{
    CompletionView, DispatchOrder, InstanceView, MonitorSnapshot, TaskView, WorkflowSlot,
};
use crate::policy::{PoolPlan, ScalingPolicy, TerminateWhen};
use crate::result::{InstanceBill, RunResult, TaskRecord, WorkflowOutcome};
use crate::scheduler::{AnyScheduler, Scheduler};
use crate::transfer::TransferModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire_dag::{
    critical_path_ms, ExecProfile, Millis, StageId, TaskId, TaskSpec, Workflow, WorkflowId,
};
use wire_telemetry::{NoopRecorder, Recorder, TelemetryEvent, TickStats};

/// Run failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Bad configuration (message from `CloudConfig::validate`).
    Config(String),
    /// The profile does not cover the workflow's tasks.
    ProfileMismatch,
    /// Simulated time exceeded `max_sim_time` (policy starved the workflow).
    TimeLimit { completed: usize, total: usize },
    /// The policy tried to terminate an instance that is not running.
    InvalidPlan(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(m) => write!(f, "invalid config: {m}"),
            RunError::ProfileMismatch => write!(f, "exec profile does not match workflow"),
            RunError::TimeLimit { completed, total } => {
                write!(f, "time limit: {completed}/{total} tasks completed")
            }
            RunError::InvalidPlan(m) => write!(f, "invalid pool plan: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Engine-internal per-task lifecycle tag. The per-phase payloads live in
/// side arrays ([`Engine::task_unmet`], [`Engine::task_run`]) — an SoA split
/// so the hot phase scans (done-prefix advance, debug recounts) touch one
/// byte per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskPhase {
    Unready,
    Ready,
    Running,
    Done,
}

/// Placement + timing of a running task; valid only while its phase is
/// [`TaskPhase::Running`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RunInfo {
    instance: InstanceId,
    slot: u32,
    assigned_at: Millis,
    exec_start: Millis,
    exec: Millis,
    transfer: Millis,
}

/// The engine. Build it through [`crate::Session`]; reach for
/// [`Engine::from_submissions_with`] only to plug in a statically-typed
/// scheduler. Its outputs are the [`RunResult`] and the
/// [`TelemetryEvent`] stream sent to its [`Recorder`].
///
/// The default recorder is [`NoopRecorder`]: every telemetry call site is
/// guarded by `recorder.enabled()`, which monomorphizes to a constant
/// `false`, so unrecorded runs pay nothing for the instrumentation.
pub struct Engine<'a, P: ScalingPolicy, R: Recorder = NoopRecorder, S: Scheduler = AnyScheduler> {
    /// All submissions in submission-time order, each with its slice of the
    /// session-global task/stage index space.
    slots: Vec<WorkflowSlot<'a>>,
    /// Ground-truth profile per submission (parallel to `slots`).
    profiles: Vec<&'a ExecProfile>,
    /// Incomplete-task countdown per submission (parallel to `slots`).
    wf_remaining: Vec<usize>,
    /// Completion time (incl. the workflow's teardown epilogue) per submission.
    wf_finished: Vec<Option<Millis>>,
    /// Global task index → submission index.
    task_wf: Vec<u32>,
    /// Total tasks across all submissions.
    total_tasks: usize,
    /// Submissions that have arrived so far (always a prefix of `slots`).
    arrived: usize,
    /// More than one submission? Workflow-lifecycle telemetry events
    /// are only emitted in multi-workflow sessions, keeping single-workflow
    /// output byte-identical to the historical engine.
    multi: bool,
    config: CloudConfig,
    transfer_model: TransferModel,
    policy: P,
    recorder: R,
    rng: StdRng,

    clock: Millis,
    queue: EventQueue,
    ready: S,

    task_phase: Vec<TaskPhase>,
    /// Unmet-dependency countdown; meaningful while `Unready`.
    task_unmet: Vec<u32>,
    /// Placement/timing; meaningful while `Running`.
    task_run: Vec<RunInfo>,
    /// Watermark: every task with index `< done_prefix` is `Done`. Advanced
    /// amortized-O(1) in `on_task_done`; `Done` is permanent (only `Running`
    /// tasks are ever resubmitted), so the prefix never retreats.
    done_prefix: usize,
    epochs: Vec<u32>,
    restarts: Vec<u32>,
    ready_at: Vec<Millis>,
    records: Vec<Option<TaskRecord>>,
    completions: usize,

    instances: Vec<Instance>,
    instance_epochs: Vec<u32>,
    /// Family of every instance ever launched (parallel to `instances`),
    /// an index into `config.families`.
    instance_family: Vec<FamilyId>,
    /// More than one family row? The `InstanceFamilyAssigned` telemetry
    /// event is only emitted then, keeping single-family runs byte-identical
    /// to the pre-family engine.
    fam_multi: bool,
    /// Slot contents for every instance (family-width chunks).
    slot_arena: SlotArena,
    /// Per-instance sum of resident *claimed* memory (parallel to
    /// `instances`; all zeros when no memory profile is attached).
    mem_used: Vec<i64>,
    /// Per-instance sum of resident *true peak* memory — the engine-side
    /// ground truth deciding OOM kills.
    mem_peak_resident: Vec<i64>,
    /// Working per-task memory claim: the declared demand, raised to the
    /// observed peak after an OOM restart (retry-with-more-memory). Empty
    /// until [`Self::with_memory`]; read through [`Self::claim_of`].
    mem_demand: Vec<i64>,
    /// Ground-truth per-task peak memory. Empty until
    /// [`Self::with_memory`]; read through [`Self::peak_of`].
    mem_peak: Vec<i64>,
    /// Ready tasks popped from the scheduler that currently fit no
    /// instance's free memory; retried first (in pop order) each dispatch.
    mem_blocked: Vec<TaskId>,
    /// Running instances with at least one free slot, ascending — the
    /// dispatch loop pulls the minimum instead of scanning every instance
    /// ever launched. Kept by [`Self::touch_instance`] alone.
    dispatchable: std::collections::BTreeSet<u32>,
    /// Incremental lifecycle counters, written only by
    /// [`Self::set_instance_state`]: replace the per-call
    /// `active_instances`/`usable_instances` scans. Validated against a
    /// full recount in the periodic debug check.
    count_launching: u32,
    count_running: u32,
    count_draining: u32,

    /// Scripted fault injection; the inert default for plain runs.
    chaos: ChaosState,

    // per-interval accumulators for the monitor
    new_completions: Vec<CompletionView>,
    interval_transfers: Vec<Millis>,
    interval_ooms: u32,
    // persistent buffers reused every tick so the hot path allocates nothing
    snapshot_scratch: SnapshotScratch,
    resubmit_scratch: Vec<TaskId>,
    /// Debug oracle for [`Scheduler::iter_in_order`]: the scheduler's part of
    /// the last tick's dispatch order, reversed, while no push has touched
    /// the queue since; every pop must then take its last entry.
    #[cfg(debug_assertions)]
    debug_pop_order: Option<Vec<TaskId>>,

    // metrics
    busy_slot_time: Millis,
    wasted_slot_time: Millis,
    units_total: u64,
    /// Total bill in milli-dollars: Σ over bills of `units × family price`.
    cost_milli: u64,
    /// Provider spot evictions (counted separately from crash `failures`).
    evictions: u32,
    /// Restarts caused by OOM kills (a subset of `restarts`).
    oom_restarts: u32,
    instance_time: Millis,
    peak_instances: u32,
    total_restarts: u32,
    failures: u32,
    mape_iterations: u64,
    controller_wall: std::time::Duration,
    pool_timeline: Vec<(Millis, u32)>,
    instance_bills: Vec<InstanceBill>,

    /// Events processed so far — cadence for the periodic full invariant
    /// scan (cheap O(1) checks run on every event, the O(n) structural walk
    /// every [`DEBUG_FULL_CHECK_EVERY`] events).
    #[cfg(debug_assertions)]
    debug_events: u64,
    /// Incremental mirror of `instance_bills`'s unit sum, bumped at every
    /// bill push — lets the per-event check validate `units_total` without
    /// summing the bill list.
    #[cfg(debug_assertions)]
    debug_billed: u64,
}

/// Period of the full O(tasks + instances + bills) debug invariant walk;
/// between walks only O(1) counter checks run, so debug-mode traffic runs
/// stay near-linear. The first event always gets a full walk.
#[cfg(debug_assertions)]
const DEBUG_FULL_CHECK_EVERY: u64 = 1024;

impl<'a, P: ScalingPolicy, R: Recorder, S: Scheduler> Engine<'a, P, R, S> {
    /// Construct a multi-workflow engine from `(submitted_at, workflow,
    /// profile)` triples; the caller supplies the scheduler via
    /// `make_scheduler(num_tasks, num_stages)` — the hook for
    /// statically-typed custom schedulers. [`crate::Session`] is the public
    /// face of this constructor and builds the scheduler from
    /// [`CloudConfig::scheduler`] behind the type-erased [`AnyScheduler`].
    /// After construction every scheduler observes each submission (DAG +
    /// ground-truth profile) through [`Scheduler::prepare`], in submission
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub fn from_submissions_with(
        submissions: Vec<(Millis, &'a Workflow, &'a ExecProfile)>,
        mut config: CloudConfig,
        transfer_model: TransferModel,
        policy: P,
        seed: u64,
        recorder: R,
        make_scheduler: impl FnOnce(usize, usize) -> S,
    ) -> Result<Self, RunError> {
        config.validate().map_err(RunError::Config)?;
        // NaN and non-positive rates are both rejected here
        if transfer_model.bytes_per_sec.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(RunError::Config(
                "transfer bytes_per_sec must be positive (or infinite)".into(),
            ));
        }
        if !(0.0..=10.0).contains(&transfer_model.jitter) {
            return Err(RunError::Config("transfer jitter out of range".into()));
        }
        if submissions.is_empty() {
            return Err(RunError::Config("session has no workflows".into()));
        }
        let mut submissions = submissions;
        // stable by arrival time: equal-time submissions keep submit order
        submissions.sort_by_key(|&(at, _, _)| at);

        let mut slots = Vec::with_capacity(submissions.len());
        let mut profiles = Vec::with_capacity(submissions.len());
        let mut wf_remaining = Vec::with_capacity(submissions.len());
        let mut task_wf = Vec::new();
        let mut task_unmet = Vec::new();
        let (mut task_base, mut stage_base) = (0u32, 0u32);
        for (i, &(submitted_at, wf, profile)) in submissions.iter().enumerate() {
            if !profile.matches(wf) {
                return Err(RunError::ProfileMismatch);
            }
            slots.push(WorkflowSlot {
                id: WorkflowId(i as u32),
                workflow: wf,
                submitted_at,
                task_base,
                stage_base,
            });
            profiles.push(profile);
            wf_remaining.push(wf.num_tasks());
            task_wf.extend(std::iter::repeat_n(i as u32, wf.num_tasks()));
            task_unmet.extend(wf.task_ids().map(|t| wf.preds(t).len() as u32));
            task_base += wf.num_tasks() as u32;
            stage_base += wf.num_stages() as u32;
        }
        let n = task_base as usize;
        // every reader indexes the resolved table: an empty one is the
        // single legacy row
        config.families = config.resolved_families();
        let fam_multi = config.families.len() > 1;
        let mut ready = make_scheduler(n, stage_base as usize);
        // rank-precompute hook: every scheduler sees each submission's DAG
        // and ground-truth profile before the first event fires
        for (slot, profile) in slots.iter().zip(profiles.iter()) {
            ready.prepare(slot, profile);
        }
        Ok(Engine {
            ready,
            slots,
            profiles,
            wf_remaining,
            wf_finished: vec![None; submissions.len()],
            task_wf,
            total_tasks: n,
            arrived: 0,
            multi: submissions.len() > 1,
            transfer_model,
            policy,
            recorder,
            rng: StdRng::seed_from_u64(seed),
            clock: Millis::ZERO,
            queue: EventQueue::new(),
            task_phase: vec![TaskPhase::Unready; n],
            task_unmet,
            task_run: vec![RunInfo::default(); n],
            done_prefix: 0,
            epochs: vec![0; n],
            restarts: vec![0; n],
            ready_at: vec![Millis::ZERO; n],
            records: vec![None; n],
            completions: 0,
            instances: Vec::new(),
            instance_epochs: Vec::new(),
            instance_family: Vec::new(),
            fam_multi,
            slot_arena: SlotArena::new(config.slots_per_instance),
            mem_used: Vec::new(),
            mem_peak_resident: Vec::new(),
            mem_demand: Vec::new(),
            mem_peak: Vec::new(),
            mem_blocked: Vec::new(),
            dispatchable: std::collections::BTreeSet::new(),
            count_launching: 0,
            count_running: 0,
            count_draining: 0,
            chaos: ChaosState::default(),
            new_completions: Vec::new(),
            interval_transfers: Vec::new(),
            interval_ooms: 0,
            snapshot_scratch: SnapshotScratch::new(n),
            resubmit_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            debug_pop_order: None,
            busy_slot_time: Millis::ZERO,
            wasted_slot_time: Millis::ZERO,
            units_total: 0,
            cost_milli: 0,
            evictions: 0,
            oom_restarts: 0,
            instance_time: Millis::ZERO,
            peak_instances: 0,
            total_restarts: 0,
            failures: 0,
            mape_iterations: 0,
            controller_wall: std::time::Duration::ZERO,
            pool_timeline: Vec::new(),
            instance_bills: Vec::new(),
            #[cfg(debug_assertions)]
            debug_events: 0,
            #[cfg(debug_assertions)]
            debug_billed: 0,
            config,
        })
    }

    /// Compatibility stub: the engine has one core and this selects
    /// nothing. Only `naive == false` is accepted. It is deleted together
    /// with its last callers, listed under wirebench in ROADMAP item 2.
    #[doc(hidden)]
    pub fn naive_core(&mut self, naive: bool) {
        assert!(!naive, "the naive engine core has been removed");
    }

    /// Attach a scripted chaos [`FaultPlan`] (builder-style; see
    /// [`crate::chaos`]). An empty plan injects nothing, so the run equals
    /// one without this call.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Result<Self, RunError> {
        plan.validate().map_err(RunError::Config)?;
        let stages: usize = self.slots.iter().map(|s| s.workflow.num_stages()).sum();
        self.chaos = ChaosState::with_plan(plan, stages);
        Ok(self)
    }

    /// Attach a per-task [`MemoryProfile`] over the session-global task
    /// index space. Placement reserves each task's declared demand on its
    /// instance (first-fit bin-packing), and co-resident true peaks
    /// exceeding a family's capacity OOM-kill the task whose dispatch
    /// crossed the line. Without a profile every task claims and peaks at
    /// 0 MB, so an all-zero profile runs exactly like none. A task whose
    /// demand or peak exceeds the largest family's `mem_mb` is a
    /// [`RunError::Config`].
    pub fn with_memory(mut self, memory: &MemoryProfile) -> Result<Self, RunError> {
        if memory.len() != self.total_tasks {
            return Err(RunError::Config(format!(
                "memory profile covers {} tasks, session has {}",
                memory.len(),
                self.total_tasks
            )));
        }
        // a task no family can hold would park, or OOM and then park,
        // until the simulated-time limit
        let families = &self.config.families;
        let capacity = families.iter().map(|f| f.mem_mb).max().unwrap_or(0);
        let (demands, peaks) = (memory.demands(), memory.peaks());
        if let Some(t) = (0..memory.len()).find(|&t| demands[t].max(peaks[t]) > capacity) {
            return Err(RunError::Config(format!(
                "task {}: demand {} MB, peak {} MB, but the largest family holds {capacity} MB",
                TaskId(t as u32),
                demands[t],
                peaks[t],
            )));
        }
        self.mem_demand = demands.to_vec();
        self.mem_peak = peaks.to_vec();
        Ok(self)
    }

    /// Working memory claim of `t` in MB (0 without a memory profile).
    #[inline]
    fn claim_of(&self, t: TaskId) -> i64 {
        self.mem_demand.get(t.index()).copied().unwrap_or(0)
    }

    /// Ground-truth peak memory of `t` in MB (0 without a memory profile).
    #[inline]
    fn peak_of(&self, t: TaskId) -> i64 {
        self.mem_peak.get(t.index()).copied().unwrap_or(0)
    }

    /// Run to completion.
    pub fn run(mut self) -> Result<RunResult, RunError> {
        self.run_inner()?;
        Ok(self.into_result())
    }

    fn run_inner(&mut self) -> Result<(), RunError> {
        // initial pool, ready at time zero (always the default family 0)
        for _ in 0..self.config.initial_instances {
            let id = self.new_instance(
                InstanceState::Running {
                    charge_start: Millis::ZERO,
                },
                0,
            );
            self.emit(TelemetryEvent::InstanceReady { instance: id.0 });
            self.arm_hazards(id);
        }
        self.note_pool_change();

        // workflows enter the session at their submission times; immediate
        // submissions arrive before the first event fires
        for i in 0..self.slots.len() {
            let at = self.slots[i].submitted_at;
            if at.is_zero() {
                self.arrive_workflow(i);
            } else {
                self.queue
                    .push(at, EventKind::WorkflowArrival { workflow: i as u32 });
            }
        }

        // timed chaos faults compile onto the same queue; pushed before the
        // first MAPE tick so a fault scheduled exactly at a tick time strikes
        // before the controller observes the world (plan-order among
        // equal-time faults is preserved by the queue's insertion order)
        for (i, f) in self.chaos.plan.faults().iter().enumerate() {
            if let FaultTrigger::At(at) = f.trigger {
                self.queue
                    .push(at, EventKind::ChaosFault { fault: i as u32 });
            }
        }

        self.queue
            .push(self.config.mape_interval, EventKind::MapeTick);

        while let Some((at, kind)) = self.queue.pop() {
            debug_assert!(at >= self.clock, "time went backwards");
            self.clock = at;
            if self.clock > self.config.max_sim_time {
                return Err(RunError::TimeLimit {
                    completed: self.completions,
                    total: self.total_tasks,
                });
            }
            #[cfg(debug_assertions)]
            self.debug_check_invariants();
            match kind {
                EventKind::WorkflowArrival { workflow } => {
                    if self.chaos.arrivals_paused {
                        // deferred FIFO: arrival events pop in time order, so
                        // draining the queue on resume preserves submit order
                        self.chaos.deferred_arrivals.push(workflow);
                    } else {
                        self.arrive_workflow(workflow as usize);
                    }
                }
                EventKind::WorkflowSetupDone { workflow } => {
                    self.workflow_ready(workflow as usize);
                }
                EventKind::InstanceReady { instance } => self.on_instance_ready(instance),
                EventKind::InstanceTerminate { instance, epoch } => {
                    if self.instance_epochs[instance.index()] == epoch {
                        self.terminate_instance(instance, false);
                        self.dispatch();
                    }
                }
                EventKind::InstanceFail { instance, epoch }
                | EventKind::SpotEvict { instance, epoch } => {
                    // stale if the instance was drained/terminated since
                    let evicted = matches!(kind, EventKind::SpotEvict { .. });
                    if self.instance_epochs[instance.index()] == epoch
                        && self.crash(instance, evicted)
                    {
                        self.dispatch();
                    }
                }
                EventKind::TaskDone { task, epoch } => {
                    if self.epochs[task.index()] == epoch {
                        self.on_task_done(task);
                        if self.completions == self.total_tasks {
                            // serial epilogue: stage-out + registration
                            self.clock += self.config.run_teardown;
                            self.finish();
                            return Ok(());
                        }
                    }
                }
                EventKind::MapeTick => self.on_mape_tick()?,
                EventKind::ChaosFault { fault } => self.apply_chaos_fault(fault),
                EventKind::TaskOom { task, epoch } => {
                    // stale if the task finished, or was resubmitted by an
                    // instance death, before its peak hit
                    if self.epochs[task.index()] == epoch
                        && self.task_phase[task.index()] == TaskPhase::Running
                    {
                        self.on_task_oom(task);
                    }
                }
            }
        }
        // queue drained without completing: no instances and no ticks left
        Err(RunError::TimeLimit {
            completed: self.completions,
            total: self.total_tasks,
        })
    }

    // ---- event handlers -------------------------------------------------

    /// A workflow enters the session: it becomes visible to the policy and
    /// (after its serial setup phase) its root tasks become ready.
    fn arrive_workflow(&mut self, sub: usize) {
        debug_assert_eq!(sub, self.arrived, "workflows arrive in submission order");
        self.arrived += 1;
        if self.multi {
            let slot = &self.slots[sub];
            let (id, tasks) = (slot.id, slot.num_tasks() as u32);
            self.emit(TelemetryEvent::WorkflowSubmitted {
                workflow: id.0,
                tasks,
            });
        }
        // roots become ready after the framework's serial setup phase
        // (stage-in, create-dir); with zero setup they are ready immediately
        if self.config.run_setup.is_zero() {
            self.workflow_ready(sub);
        } else {
            self.queue.push(
                self.clock + self.config.run_setup,
                EventKind::WorkflowSetupDone {
                    workflow: sub as u32,
                },
            );
        }
    }

    /// A workflow's setup phase finished: mark its roots ready and dispatch.
    fn workflow_ready(&mut self, sub: usize) {
        if self.multi {
            self.emit(TelemetryEvent::WorkflowReady {
                workflow: sub as u32,
            });
        } else {
            self.emit(TelemetryEvent::RunSetupDone);
        }
        let slot = self.slots[sub];
        for t in slot.workflow.roots() {
            self.mark_ready(slot.global_task(t));
        }
        self.dispatch();
    }

    fn on_instance_ready(&mut self, id: InstanceId) {
        debug_assert!(matches!(
            self.instances[id.index()].state,
            InstanceState::Launching { .. }
        ));
        self.set_instance_state(
            id,
            InstanceState::Running {
                charge_start: self.clock,
            },
        );
        self.emit(TelemetryEvent::InstanceReady { instance: id.0 });
        self.arm_hazards(id);
        self.note_pool_change();
        self.dispatch();
    }

    /// Arm the hazard timers of a newly running instance, each an
    /// exponential lifetime drawn from the seeded RNG: an MTBF failure when
    /// failures are configured, then a provider eviction when its family is
    /// spot. A hazard that does not apply draws nothing, so runs without it
    /// keep their RNG stream. Draining instances are not struck: the epoch
    /// bump at drain time cancels both timers, and the instance leaves at
    /// its charge boundary anyway.
    fn arm_hazards(&mut self, id: InstanceId) {
        let (instance, epoch) = (id, self.instance_epochs[id.index()]);
        let family = &self.config.families[self.instance_family[id.index()] as usize];
        let hazards = [
            self.config
                .mean_time_between_failures
                .map(|mtbf| (mtbf, EventKind::InstanceFail { instance, epoch })),
            family.spot.as_ref().map(|s| {
                let mtbe = s.mean_time_between_evictions;
                (mtbe, EventKind::SpotEvict { instance, epoch })
            }),
        ];
        for (mean, kind) in hazards.into_iter().flatten() {
            // inverse CDF: one f64 per timer keeps the run deterministic
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.queue.push(self.clock + mean.scale(-u.ln()), kind);
        }
    }

    // ---- chaos -----------------------------------------------------------

    /// Execute scripted fault `idx` of the attached plan at the current
    /// simulated time. Only reachable when a non-empty [`FaultPlan`] is
    /// attached (via a `ChaosFault` queue event or a stage-start trigger).
    fn apply_chaos_fault(&mut self, idx: u32) {
        let fault = self.chaos.plan.faults()[idx as usize];
        self.emit(TelemetryEvent::ChaosFault { fault: idx });
        match fault.action {
            FaultAction::KillInstance(id) => {
                self.crash(id, false);
                self.dispatch();
            }
            FaultAction::KillAllRunning => {
                // collect first: killing mutates instance states in place
                let victims: Vec<InstanceId> = self
                    .instances
                    .iter()
                    .filter(|i| i.is_running())
                    .map(|i| i.id)
                    .collect();
                for id in victims {
                    self.crash(id, false);
                }
                self.dispatch();
            }
            FaultAction::FreezeMonitoring { ticks } => {
                self.chaos.frozen_ticks += ticks;
            }
            FaultAction::ScaleLaunchLag { factor } => {
                self.chaos.lag_factor = factor;
            }
            FaultAction::ScaleTransfers { factor } => {
                self.chaos.transfer_factor = factor;
            }
            FaultAction::PauseArrivals => {
                self.chaos.arrivals_paused = true;
            }
            FaultAction::ResumeArrivals => {
                self.chaos.arrivals_paused = false;
                let deferred = std::mem::take(&mut self.chaos.deferred_arrivals);
                for w in deferred {
                    self.arrive_workflow(w as usize);
                }
            }
        }
    }

    /// An instance dies under its tasks: an MTBF failure, a scripted chaos
    /// kill, or (`evicted`) a provider spot eviction. It is counted and
    /// recorded, its tasks are resubmitted and its started units billed;
    /// an eviction forgives the unit in progress. A no-op returning false
    /// unless the instance is `Running`: a kill racing a drain or naming a
    /// never-launched id loses the race, like a stale-epoch timer.
    fn crash(&mut self, id: InstanceId, evicted: bool) -> bool {
        if !self
            .instances
            .get(id.index())
            .is_some_and(Instance::is_running)
        {
            return false;
        }
        if evicted {
            self.evictions += 1;
            self.emit(TelemetryEvent::SpotEvicted { instance: id.0 });
        } else {
            self.failures += 1;
            self.emit(TelemetryEvent::InstanceFailed { instance: id.0 });
        }
        self.terminate_instance(id, evicted);
        true
    }

    fn on_task_done(&mut self, task: TaskId) {
        debug_assert_eq!(
            self.task_phase[task.index()],
            TaskPhase::Running,
            "TaskDone for non-running task with live epoch"
        );
        let RunInfo {
            instance,
            slot,
            assigned_at,
            exec,
            transfer,
            ..
        } = self.task_run[task.index()];
        self.release_slot(task);
        let occupancy = self.clock - assigned_at;
        self.busy_slot_time += occupancy;
        self.set_phase(task, TaskPhase::Done);
        self.completions += 1;
        // advance the all-done watermark (amortized O(1) over the run)
        while self.done_prefix < self.total_tasks
            && self.task_phase[self.done_prefix] == TaskPhase::Done
        {
            self.done_prefix += 1;
        }

        let sub = self.sub_of(task);
        let (spec, stage) = self.task_info(task);
        let input_bytes = spec.input_bytes;
        self.records[task.index()] = Some(TaskRecord {
            workflow: WorkflowId(sub as u32),
            task,
            stage,
            ready_at: self.ready_at[task.index()],
            started_at: assigned_at,
            finished_at: self.clock,
            exec_time: exec,
            transfer_time: transfer,
            restarts: self.restarts[task.index()],
        });
        self.new_completions.push(CompletionView {
            task,
            input_bytes,
            exec_time: exec,
            transfer_time: transfer,
            peak_mb: self.peak_of(task),
        });
        self.interval_transfers.push(transfer);
        self.emit(TelemetryEvent::TaskCompleted {
            task: task.index() as u32,
            stage: stage.0,
            instance: instance.0,
            slot,
            exec,
            transfer,
            restarts: self.restarts[task.index()],
        });

        self.wf_remaining[sub] -= 1;
        if self.wf_remaining[sub] == 0 {
            // the workflow's own serial teardown epilogue runs off the shared
            // pool; it delays this workflow's finish time, not the session
            let finished = self.clock + self.config.run_teardown;
            self.wf_finished[sub] = Some(finished);
            if self.multi {
                let slot_info = &self.slots[sub];
                let (id, makespan) = (slot_info.id, finished - slot_info.submitted_at);
                if self.recorder.enabled() {
                    // single-tenant lower bound, same formula as the
                    // slowdown denominator in `into_result`; only computed
                    // when a recorder is listening
                    let ideal = self.config.run_setup
                        + critical_path_ms(self.slots[sub].workflow, self.profiles[sub])
                        + self.config.run_teardown;
                    self.recorder.record(
                        self.clock,
                        TelemetryEvent::WorkflowCompleted {
                            workflow: id.0,
                            makespan,
                            ideal,
                        },
                    );
                }
            }
        }

        // unlock successors (dependencies never cross workflows)
        let slot_info = self.slots[sub];
        let local = slot_info.local_task(task);
        for &succ in slot_info.workflow.succs(local) {
            let s = slot_info.global_task(succ);
            if self.task_phase[s.index()] == TaskPhase::Unready {
                let unmet = &mut self.task_unmet[s.index()];
                *unmet -= 1;
                if *unmet == 0 {
                    self.mark_ready(s);
                }
            }
        }
        self.dispatch();
    }

    /// A task's true peak blew past its instance family's memory: the kernel
    /// kills it and it is requeued like any killed attempt, with its working
    /// claim raised to the observed peak (retry-with-more-memory) — so the
    /// same placement cannot OOM it twice.
    fn on_task_oom(&mut self, task: TaskId) {
        let instance = self.task_run[task.index()].instance;
        self.oom_restarts += 1;
        self.interval_ooms += 1;
        // an OOM needs a nonzero peak, so a memory profile is attached
        let peak = self.peak_of(task);
        let claim = self.claim_of(task).max(peak);
        self.emit(TelemetryEvent::TaskOom {
            task: task.index() as u32,
            instance: instance.0,
            demand_mb: claim,
            peak_mb: peak,
        });
        // frees the slot at the old claim, so raise it only afterwards
        self.requeue(task);
        self.mem_demand[task.index()] = claim;
        self.dispatch();
    }

    /// Kill a running task's attempt and resubmit it: its slot and memory
    /// are freed, its slot time so far is sunk, and the epoch bump cancels
    /// its in-flight `TaskDone` (and `TaskOom`). The one requeue path, for
    /// OOM kills and for every task an instance takes down with it.
    fn requeue(&mut self, task: TaskId) {
        debug_assert_eq!(
            self.task_phase[task.index()],
            TaskPhase::Running,
            "requeue of a non-running task"
        );
        self.release_slot(task);
        let RunInfo {
            instance,
            slot,
            assigned_at,
            ..
        } = self.task_run[task.index()];
        let sunk = self.clock - assigned_at;
        self.wasted_slot_time += sunk;
        self.epochs[task.index()] += 1;
        self.restarts[task.index()] += 1;
        self.total_restarts += 1;
        self.set_phase(task, TaskPhase::Ready);
        self.ready_at[task.index()] = self.clock;
        #[cfg(debug_assertions)]
        {
            self.debug_pop_order = None;
        }
        self.ready.push_resubmit(task);
        self.emit(TelemetryEvent::TaskResubmitted {
            task: task.index() as u32,
            instance: instance.0,
            slot,
            sunk,
        });
    }

    /// Free the slot and the memory a running task holds on its instance.
    fn release_slot(&mut self, task: TaskId) {
        let RunInfo { instance, slot, .. } = self.task_run[task.index()];
        self.slot_arena.set(instance, slot as usize, None);
        self.instances[instance.index()].occupied -= 1;
        self.mem_used[instance.index()] -= self.claim_of(task);
        self.mem_peak_resident[instance.index()] -= self.peak_of(task);
        self.touch_instance(instance);
    }

    /// Committed spend in milli-dollars: everything already billed plus
    /// what every live instance would be billed if released now
    /// ([`owed_bill`]), each at its family's price. This is the ledger
    /// budget-aware policies throttle against; it is reconstructible from
    /// telemetry alone, which is what lets the chaos checker cross-check
    /// every verdict. Only called when a budget is configured — the
    /// unconstrained hot path never scans.
    fn committed_spend_milli(&self) -> u64 {
        let unit = self.config.charging_unit;
        let owed = self
            .instances
            .iter()
            .filter_map(|inst| owed_bill(inst, self.clock, unit, false))
            .map(|bill| bill.units * self.unit_price_milli(bill.instance));
        self.cost_milli + owed.sum::<u64>()
    }

    /// Unit price of instance `id`'s family, in milli-dollars.
    fn unit_price_milli(&self, id: InstanceId) -> u64 {
        self.config.families[self.instance_family[id.index()] as usize].unit_price_milli()
    }

    fn on_mape_tick(&mut self) -> Result<(), RunError> {
        if self.chaos.frozen_ticks > 0 {
            // monitoring blackout: the policy is not consulted and sees no
            // tick; the interval accumulators are NOT cleared, so the first
            // thawed tick observes everything that happened while frozen
            // (stale-monitoring semantics)
            self.chaos.frozen_ticks -= 1;
            self.queue
                .push(self.clock + self.config.mape_interval, EventKind::MapeTick);
            return Ok(());
        }
        self.mape_iterations += 1;
        // committed spend is policy-visible only on the budgeted cloud; the
        // unconstrained configuration must stay byte-identical (and scan-free)
        let spent_milli = if self.config.budget.is_some() {
            self.committed_spend_milli()
        } else {
            0
        };
        let (plan, controller_elapsed) = {
            let visible = self.arrived_tasks();
            let snapshot = build_snapshot(
                &mut self.snapshot_scratch,
                &self.slots[..self.arrived],
                &self.config,
                self.clock,
                &self.task_phase[..visible],
                &self.task_run,
                self.done_prefix,
                &self.records,
                &self.instances,
                &self.instance_family,
                &self.slot_arena,
                &self.new_completions,
                &self.interval_transfers,
                self.interval_ooms,
                &self.mem_blocked,
                &self.ready,
                spent_milli,
            );
            let started = std::time::Instant::now();
            let plan = self.policy.plan(&snapshot);
            let elapsed = started.elapsed();
            self.controller_wall += elapsed;
            #[cfg(debug_assertions)]
            {
                let order = snapshot.ready_in_dispatch_order;
                let mut queued: Vec<TaskId> = order.iter().skip(self.mem_blocked.len()).collect();
                debug_assert_eq!(queued.len(), self.ready.len(), "ready order misses a task");
                queued.reverse();
                self.debug_pop_order = Some(queued);
            }
            (plan, elapsed)
        };
        self.new_completions.clear();
        self.interval_transfers.clear();
        self.interval_ooms = 0;
        if self.recorder.enabled() {
            let running = self.snapshot_scratch.running.len() as u32;
            let ev = TelemetryEvent::MapeTick {
                pool: self.count_running,
                launching: self.count_launching,
                draining: self.count_draining,
                ready: (self.ready.len() + self.mem_blocked.len()) as u32,
                running,
                done: self.completions as u32,
                plan_launch: plan.total_launches(),
                plan_terminate: plan.terminate.len() as u32,
            };
            self.recorder.record(self.clock, ev);
            self.recorder.tick(
                self.clock,
                TickStats {
                    controller_micros: controller_elapsed.as_micros() as u64,
                    queue_depth: self.queue.len() as u32,
                },
            );
        }
        if let Some(b) = self.config.budget {
            // ground facts for the chaos checker's independent budget audit:
            // it re-derives spent from the event stream, checks equality, the
            // hard veto and the commit bound (family 0 is the launch target,
            // so one started unit per planned launch at family-0 price)
            let launch = plan.total_launches();
            let price0 = self.config.families[0].unit_price_milli();
            self.emit(TelemetryEvent::BudgetVerdict {
                spent_milli,
                ceiling_milli: b.ceiling_milli,
                launch,
                committed_milli: spent_milli.saturating_add(launch as u64 * price0),
            });
        }
        self.apply_plan(plan)?;
        self.dispatch();
        self.queue
            .push(self.clock + self.config.mape_interval, EventKind::MapeTick);
        Ok(())
    }

    fn apply_plan(&mut self, plan: PoolPlan) -> Result<(), RunError> {
        let total_launches = plan.total_launches();
        // terminations first: `Now` releases free site quota for the launches
        for (id, when) in plan.terminate {
            let inst = self
                .instances
                .get(id.index())
                .ok_or_else(|| RunError::InvalidPlan(format!("unknown instance {id}")))?;
            if !inst.is_running() {
                return Err(RunError::InvalidPlan(format!(
                    "terminate {id}: instance is not in Running state"
                )));
            }
            match when {
                TerminateWhen::Now => {
                    self.terminate_instance(id, false);
                }
                TerminateWhen::AtChargeBoundary => {
                    let boundary = inst.next_charge_boundary(self.clock, self.config.charging_unit);
                    if boundary == self.clock {
                        self.terminate_instance(id, false);
                    } else {
                        let charge_start = match inst.state {
                            InstanceState::Running { charge_start } => charge_start,
                            _ => unreachable!(),
                        };
                        self.set_instance_state(
                            id,
                            InstanceState::Draining {
                                charge_start,
                                terminate_at: boundary,
                            },
                        );
                        let epoch = self.instance_epochs[id.index()];
                        self.queue.push(
                            boundary,
                            EventKind::InstanceTerminate {
                                instance: id,
                                epoch,
                            },
                        );
                        self.emit(TelemetryEvent::InstanceDraining {
                            instance: id.0,
                            until: boundary,
                        });
                    }
                }
            }
        }
        // launches, clamped to the site capacity: family-0 launches first
        // (the legacy field), then steered per-family entries in plan order
        for &f in &plan.launch_families {
            if f as usize >= self.config.families.len() {
                return Err(RunError::InvalidPlan(format!(
                    "launch onto unknown family {f} (table has {})",
                    self.config.families.len()
                )));
            }
        }
        let active = self.active_instances();
        let allowed = self.config.site_capacity.saturating_sub(active);
        let n = total_launches.min(allowed);
        // chaos lag jitter applies to launches planned while it is in effect
        let lag = self.config.launch_lag.scale(self.chaos.lag_factor);
        for k in 0..n {
            let family = if k < plan.launch {
                0
            } else {
                plan.launch_families[(k - plan.launch) as usize]
            };
            let ready_at = self.clock + lag;
            let id = self.new_instance(InstanceState::Launching { ready_at }, family);
            self.queue
                .push(ready_at, EventKind::InstanceReady { instance: id });
            self.emit(TelemetryEvent::InstanceRequested { instance: id.0 });
        }
        Ok(())
    }

    /// Release an instance now and resubmit the tasks it held.
    /// `forgive_partial` is the spot-market grace rule: the provider
    /// reclaimed the instance mid-unit, so that unit is not billed.
    fn terminate_instance(&mut self, id: InstanceId, forgive_partial: bool) {
        self.release(id, forgive_partial);
        let mut tasks = std::mem::take(&mut self.resubmit_scratch);
        tasks.extend(self.slot_arena.tasks_of(id));
        for task in tasks.drain(..) {
            self.requeue(task);
        }
        self.resubmit_scratch = tasks;
        self.note_pool_change();
    }

    /// The one place an instance is billed: it is released now for what
    /// [`owed_bill`] says it owes, the bill joins the run's totals and its
    /// termination is recorded. The tasks it holds are the caller's.
    fn release(&mut self, id: InstanceId, forgive_partial: bool) {
        let forgive = forgive_partial && !self.config.mutation_bill_eviction_grace;
        let unit = self.config.charging_unit;
        let bill = owed_bill(&self.instances[id.index()], self.clock, unit, forgive)
            .expect("releasing a terminated instance");
        self.units_total += bill.units;
        self.cost_milli += bill.units * self.unit_price_milli(id);
        #[cfg(debug_assertions)]
        {
            self.debug_billed += bill.units;
        }
        if let Some(from) = bill.charged_from {
            self.instance_time += bill.released_at - from;
        }
        self.instance_bills.push(bill);
        self.set_instance_state(
            id,
            InstanceState::Terminated {
                charge_start: bill.charged_from.unwrap_or(bill.released_at),
                at: bill.released_at,
            },
        );
        self.emit(TelemetryEvent::InstanceTerminated {
            instance: id.0,
            units: bill.units,
        });
    }

    /// The one writer of [`Instance::state`], births included (`id` one
    /// past the last instance). Keeps the lifecycle counters, the
    /// `dispatchable` set and the snapshot row in step, and bumps the
    /// instance's epoch, which cancels every timer armed in the old state.
    fn set_instance_state(&mut self, id: InstanceId, state: InstanceState) {
        let old = match self.instances.get_mut(id.index()) {
            Some(inst) => Some(std::mem::replace(&mut inst.state, state)),
            None => {
                self.instances.push(Instance::new(id, state));
                None
            }
        };
        match old {
            Some(InstanceState::Launching { .. }) => self.count_launching -= 1,
            Some(InstanceState::Running { .. }) => self.count_running -= 1,
            Some(InstanceState::Draining { .. }) => self.count_draining -= 1,
            Some(InstanceState::Terminated { .. }) => {
                unreachable!("a terminated instance changed state")
            }
            None => {}
        }
        match state {
            InstanceState::Launching { .. } => self.count_launching += 1,
            InstanceState::Running { .. } => self.count_running += 1,
            InstanceState::Draining { .. } => self.count_draining += 1,
            InstanceState::Terminated { .. } => {}
        }
        self.instance_epochs[id.index()] += 1;
        self.touch_instance(id);
    }

    /// Instance `id` changed what its snapshot row shows (lifecycle state or
    /// slot contents): mark the row for re-rendering, and keep `id` in
    /// `dispatchable` exactly while it runs with a free slot.
    fn touch_instance(&mut self, id: InstanceId) {
        self.snapshot_scratch.note_instance(id);
        let inst = &self.instances[id.index()];
        if inst.is_running() && inst.occupied < self.slot_arena.width_of(id) {
            self.dispatchable.insert(id.0);
        } else {
            self.dispatchable.remove(&id.0);
        }
    }

    // ---- scheduling ------------------------------------------------------

    /// Every task phase change goes through here, so the snapshot scratch
    /// sees each one: the row is marked for re-rendering at the next tick
    /// and the dense running list is kept in step.
    fn set_phase(&mut self, task: TaskId, phase: TaskPhase) {
        let old = std::mem::replace(&mut self.task_phase[task.index()], phase);
        let run = &self.task_run[task.index()];
        self.snapshot_scratch.note_phase(task, old, phase, run);
    }

    fn mark_ready(&mut self, t: TaskId) {
        self.set_phase(t, TaskPhase::Ready);
        self.ready_at[t.index()] = self.clock;
        let (_, stage) = self.task_info(t);
        #[cfg(debug_assertions)]
        {
            self.debug_pop_order = None;
        }
        self.ready.push_ready(t, stage);
    }

    /// Next task from the scheduler; in debug builds checked against the
    /// dispatch order the last tick advertised to the policy.
    fn pop_ready(&mut self) -> Option<TaskId> {
        let task = self.ready.pop();
        #[cfg(debug_assertions)]
        if let Some(order) = &mut self.debug_pop_order {
            debug_assert_eq!(
                task,
                order.pop(),
                "scheduler pop diverged from its iter_in_order"
            );
        }
        task
    }

    /// Greedily assign queued ready tasks to free slots, in the scheduler's
    /// pop order. Placement is first-fit bin-packing over *claimed* memory
    /// ([`Self::try_place`]). Tasks that fit no instance park in
    /// `mem_blocked` and retry — in original pop order, ahead of the
    /// scheduler — at every subsequent dispatch. Without a memory profile
    /// every claim is 0, nothing parks, and each task lands on the
    /// lowest-id running instance with a free slot.
    ///
    /// The scheduler is asked for a task only while it holds one and some
    /// slot is free, so a dispatch never pops an empty queue.
    fn dispatch(&mut self) {
        if !self.mem_blocked.is_empty() {
            let mut blocked = std::mem::take(&mut self.mem_blocked);
            blocked.retain(|&task| !self.try_place(task));
            // a placement can fire a chaos stage fault whose kill re-enters
            // dispatch and parks fresh tasks; keep them behind the retries
            blocked.append(&mut self.mem_blocked);
            self.mem_blocked = blocked;
        }
        while !self.dispatchable.is_empty() && !self.ready.is_empty() {
            let Some(task) = self.pop_ready() else {
                return;
            };
            if !self.try_place(task) {
                self.mem_blocked.push(task);
            }
        }
    }

    /// First-fit over ascending instance ids: place `task` on the lowest-id
    /// running instance with a free slot whose free claimed memory covers
    /// the task's working demand. False ⇒ nothing fits right now.
    ///
    /// `dispatchable` is kept in ascending id order, so taking its first
    /// fitting member reproduces an ascending scan over every instance:
    /// during a dispatch no instance with a lower id can *gain* a free slot
    /// while staying Running (slots are only freed by `TaskDone` events,
    /// which cannot fire mid-dispatch; terminations remove the instance
    /// from the set).
    fn try_place(&mut self, task: TaskId) -> bool {
        let claim = self.claim_of(task);
        let mut chosen = None;
        for &i in &self.dispatchable {
            let fam = &self.config.families[self.instance_family[i as usize] as usize];
            if fam.mem_mb - self.mem_used[i as usize] >= claim {
                chosen = Some(InstanceId(i));
                break;
            }
        }
        let Some(id) = chosen else {
            return false;
        };
        let slot = self
            .slot_arena
            .free_slot(id)
            .expect("dispatchable instance has a free slot");
        self.assign(task, id, slot as u32);
        true
    }

    fn assign(&mut self, task: TaskId, instance: InstanceId, slot: u32) {
        let sub = self.sub_of(task);
        let (spec, stage) = self.task_info(task);
        // a chaos spike applies AFTER sampling: the RNG draw count is
        // unchanged, so the rest of the run stays aligned with the un-spiked one
        let spike = self.chaos.transfer_factor;
        let t_in = self
            .transfer_model
            .sample(spec.input_bytes, &mut self.rng)
            .scale(spike);
        let t_out = self
            .transfer_model
            .sample(spec.output_bytes, &mut self.rng)
            .scale(spike);
        let mut exec = self.profiles[sub].exec_time(self.slots[sub].local_task(task));
        if self.config.exec_jitter > 0.0 {
            let j = self.config.exec_jitter;
            exec = exec.scale(1.0 + self.rng.gen_range(-j..j));
        }
        let family = self.instance_family[instance.index()] as usize;
        exec = exec.scale(1.0 / self.config.families[family].speed);
        let occupancy = t_in + exec + t_out;
        self.slot_arena.set(instance, slot as usize, Some(task));
        self.instances[instance.index()].occupied += 1;
        self.touch_instance(instance);
        self.task_run[task.index()] = RunInfo {
            instance,
            slot,
            assigned_at: self.clock,
            exec_start: self.clock + t_in,
            exec,
            transfer: t_in + t_out,
        };
        // after the placement is written: the running list copies it
        self.set_phase(task, TaskPhase::Running);
        self.queue.push(
            self.clock + occupancy,
            EventKind::TaskDone {
                task,
                epoch: self.epochs[task.index()],
            },
        );
        // reserve the declared claim; track ground-truth peaks separately
        self.mem_used[instance.index()] += self.claim_of(task);
        self.mem_peak_resident[instance.index()] += self.peak_of(task);
        // co-resident true peaks above the family's capacity OOM-kill the
        // task whose dispatch crossed the line, midway through its compute
        // phase (after stage-in, before it could finish)
        if self.mem_peak_resident[instance.index()] > self.config.families[family].mem_mb {
            let at = self.clock + t_in + Millis::from_ms(exec.as_ms() / 2);
            self.queue.push(
                at,
                EventKind::TaskOom {
                    task,
                    epoch: self.epochs[task.index()],
                },
            );
        }
        self.emit(TelemetryEvent::TaskDispatched {
            task: task.index() as u32,
            stage: stage.0,
            instance: instance.0,
            slot,
        });
        // conditional chaos triggers: "stage s's first tick". Fires after the
        // dispatch is fully recorded; a kill here may terminate the very
        // instance that was just assigned (the task resubmits), and the
        // enclosing dispatch loop re-reads instance state so it skips the
        // corpse safely.
        if !self.chaos.plan.is_empty() {
            for f in self.chaos.take_stage_faults(stage) {
                self.apply_chaos_fault(f);
            }
        }
    }

    // ---- bookkeeping -----------------------------------------------------

    /// Submission index owning a global task id.
    #[inline]
    fn sub_of(&self, t: TaskId) -> usize {
        self.task_wf[t.index()] as usize
    }

    /// Static spec and session-global stage of a global task.
    #[inline]
    fn task_info(&self, t: TaskId) -> (&'a TaskSpec, StageId) {
        let slot = &self.slots[self.sub_of(t)];
        let spec = slot.workflow.task(slot.local_task(t));
        (spec, slot.global_stage(spec.stage))
    }

    /// Tasks visible to the policy: the contiguous prefix belonging to
    /// arrived workflows.
    #[inline]
    fn arrived_tasks(&self) -> usize {
        match self.arrived {
            0 => 0,
            k => {
                let s = &self.slots[k - 1];
                s.task_base as usize + s.num_tasks()
            }
        }
    }

    fn new_instance(&mut self, state: InstanceState, family: FamilyId) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        self.slot_arena
            .add_instance_with(self.config.families[family as usize].slots as usize);
        self.instance_epochs.push(0);
        self.instance_family.push(family);
        self.mem_used.push(0);
        self.mem_peak_resident.push(0);
        self.set_instance_state(id, state);
        if self.fam_multi {
            self.emit(TelemetryEvent::InstanceFamilyAssigned {
                instance: id.0,
                family,
            });
        }
        self.note_pool_change();
        id
    }

    /// Instances counting against the site quota (everything not terminated).
    fn active_instances(&self) -> u32 {
        self.count_launching + self.count_running + self.count_draining
    }

    /// Instances currently usable or draining (the visible "pool size").
    fn usable_instances(&self) -> u32 {
        self.count_running + self.count_draining
    }

    fn note_pool_change(&mut self) {
        let usable = self.usable_instances();
        self.peak_instances = self.peak_instances.max(usable);
        if self
            .pool_timeline
            .last()
            .map(|&(_, c)| c != usable)
            .unwrap_or(true)
        {
            self.pool_timeline.push((self.clock, usable));
        }
    }

    /// Workflow complete: bill every remaining instance up to `clock`.
    fn finish(&mut self) {
        self.emit(TelemetryEvent::WorkflowDone);
        for i in 0..self.instances.len() {
            if self.instances[i].is_active() {
                self.release(InstanceId(i as u32), false);
            }
        }
        self.note_pool_change();
    }

    /// Invariants checked in debug builds. O(1) counter checks run on every
    /// event; the full structural walk (slot/task cross-references,
    /// lifecycle/billing recounts validating every incremental counter
    /// against its old full derivation) runs on the first event and every
    /// [`DEBUG_FULL_CHECK_EVERY`] events after, keeping debug-mode traffic
    /// runs near-linear. Release builds skip all of it.
    #[cfg(debug_assertions)]
    fn debug_check_invariants(&mut self) {
        self.debug_events += 1;
        debug_assert!(
            self.active_instances() <= self.config.site_capacity,
            "site quota exceeded"
        );
        // incremental billing counter mirrors the bill pushes exactly
        debug_assert_eq!(self.debug_billed, self.units_total, "billing drift");
        if self.debug_events % DEBUG_FULL_CHECK_EVERY != 1 {
            return;
        }

        // every occupied slot holds a task that believes it runs there
        for inst in &self.instances {
            for (slot, held) in self.slot_arena.of(inst.id).iter().enumerate() {
                if let Some(task) = held {
                    debug_assert_eq!(
                        self.task_phase[task.index()],
                        TaskPhase::Running,
                        "slot holds non-running task"
                    );
                    let run = self.task_run[task.index()];
                    debug_assert_eq!(run.instance, inst.id, "slot/task instance mismatch");
                    debug_assert_eq!(run.slot as usize, slot, "slot index mismatch");
                }
            }
            debug_assert_eq!(
                inst.occupied as usize,
                self.slot_arena.occupied_count(inst.id),
                "occupied counter drift on {}",
                inst.id
            );
            // only active instances may hold tasks
            if !inst.is_active() {
                debug_assert_eq!(inst.occupied, 0, "terminated instance holds tasks");
            }
        }
        // every running task is held by exactly one slot
        let mut held_count = vec![0usize; self.task_phase.len()];
        for inst in &self.instances {
            for t in self.slot_arena.tasks_of(inst.id) {
                held_count[t.index()] += 1;
            }
        }
        for (i, ph) in self.task_phase.iter().enumerate() {
            let expected = (*ph == TaskPhase::Running) as usize;
            debug_assert_eq!(
                held_count[i], expected,
                "task t{i} held by {} slots in phase {ph:?}",
                held_count[i]
            );
        }
        // the dense running list holds exactly the running tasks, each at
        // its recorded position
        let scratch = &self.snapshot_scratch;
        for (pos, (t, run)) in scratch.running.iter().enumerate() {
            debug_assert_eq!(
                self.task_phase[t.index()],
                TaskPhase::Running,
                "{t} listed as running"
            );
            debug_assert_eq!(*run, self.task_run[t.index()], "{t} running copy drift");
            debug_assert_eq!(
                scratch.running_pos[t.index()] as usize,
                pos,
                "running position drift"
            );
        }
        let running_tasks = self
            .task_phase
            .iter()
            .filter(|p| **p == TaskPhase::Running)
            .count();
        debug_assert_eq!(scratch.running.len(), running_tasks, "running list drift");
        // phase counters vs full recounts (the old derivations)
        let done = self
            .task_phase
            .iter()
            .filter(|p| **p == TaskPhase::Done)
            .count();
        debug_assert_eq!(done, self.completions, "completion counter drift");
        debug_assert!(
            self.task_phase[..self.done_prefix]
                .iter()
                .all(|p| *p == TaskPhase::Done),
            "done_prefix covers a non-done task"
        );
        // lifecycle counters vs full recounts
        let (mut launching, mut running, mut draining) = (0u32, 0u32, 0u32);
        for inst in &self.instances {
            match inst.state {
                InstanceState::Launching { .. } => launching += 1,
                InstanceState::Running { .. } => running += 1,
                InstanceState::Draining { .. } => draining += 1,
                InstanceState::Terminated { .. } => {}
            }
        }
        debug_assert_eq!(self.count_launching, launching, "launching counter drift");
        debug_assert_eq!(self.count_running, running, "running counter drift");
        debug_assert_eq!(self.count_draining, draining, "draining counter drift");
        for &i in &self.dispatchable {
            let inst = &self.instances[i as usize];
            debug_assert!(
                inst.is_running() && inst.occupied < self.slot_arena.width_of(inst.id),
                "dispatchable set holds a full or non-running instance"
            );
        }
        for inst in &self.instances {
            if inst.is_running() && inst.occupied < self.slot_arena.width_of(inst.id) {
                debug_assert!(
                    self.dispatchable.contains(&inst.id.0),
                    "free running instance missing from dispatchable set"
                );
            }
        }
        // memory ledgers vs full recounts from the slot arena
        for inst in &self.instances {
            let (mut used, mut peak) = (0i64, 0i64);
            for t in self.slot_arena.tasks_of(inst.id) {
                used += self.claim_of(t);
                peak += self.peak_of(t);
            }
            debug_assert_eq!(
                used,
                self.mem_used[inst.id.index()],
                "claimed-memory ledger drift on {}",
                inst.id
            );
            debug_assert_eq!(
                peak,
                self.mem_peak_resident[inst.id.index()],
                "peak-memory ledger drift on {}",
                inst.id
            );
        }
        for &t in &self.mem_blocked {
            debug_assert_eq!(
                self.task_phase[t.index()],
                TaskPhase::Ready,
                "memory-parked task is not Ready"
            );
        }
        // per-instance bills sum to the total billed so far (old derivation)
        let billed: u64 = self.instance_bills.iter().map(|b| b.units).sum();
        debug_assert_eq!(billed, self.units_total, "billing drift");
    }

    /// Forward an event to the telemetry recorder at the current simulated
    /// time. The `enabled()` guard is a constant `false` for the default
    /// [`NoopRecorder`], so this monomorphizes to nothing when recording is
    /// off.
    #[inline]
    fn emit(&mut self, ev: TelemetryEvent) {
        if self.recorder.enabled() {
            self.recorder.record(self.clock, ev);
        }
    }

    fn into_result(self) -> RunResult {
        let per_workflow: Vec<WorkflowOutcome> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let finished_at = self.wf_finished[i].unwrap_or(self.clock);
                let makespan = finished_at - slot.submitted_at;
                // ideal single-tenant lower bound: setup + critical path +
                // teardown, ignoring transfers and scheduling
                let ideal = self.config.run_setup
                    + critical_path_ms(slot.workflow, self.profiles[i])
                    + self.config.run_teardown;
                let slowdown = if ideal.is_zero() {
                    1.0
                } else {
                    makespan.as_ms() as f64 / ideal.as_ms() as f64
                };
                WorkflowOutcome {
                    id: slot.id,
                    workflow: slot.workflow.name().to_string(),
                    submitted_at: slot.submitted_at,
                    finished_at,
                    makespan,
                    slowdown,
                }
            })
            .collect();
        let workflow = match &self.slots[..] {
            [slot] => slot.workflow.name().to_string(),
            slots => format!("ensemble[{}]", slots.len()),
        };
        RunResult {
            policy: self.policy.name().to_string(),
            workflow,
            makespan: self.clock,
            charging_units: self.units_total,
            cost_milli: self.cost_milli,
            instance_time: self.instance_time,
            peak_instances: self.peak_instances,
            instances_launched: self.instances.len() as u32,
            busy_slot_time: self.busy_slot_time,
            wasted_slot_time: self.wasted_slot_time,
            restarts: self.total_restarts,
            failures: self.failures,
            evictions: self.evictions,
            oom_restarts: self.oom_restarts,
            mape_iterations: self.mape_iterations,
            controller_wall: self.controller_wall,
            task_records: self.records.into_iter().flatten().collect(),
            instance_bills: self.instance_bills,
            pool_timeline: self.pool_timeline,
            per_workflow,
        }
    }
}

/// The bill for releasing `inst` at `now`: one unit per charging unit
/// started ([`Instance::units_billed`]); `forgive` drops the unit in
/// progress instead (a provider eviction). A launching instance owes the
/// unit its boot would start. A draining one is released at its drain
/// boundary, or at `now` when the run ends first; either end bills the
/// same units, since the boundary closes the unit the drain began in.
/// `None` for a terminated instance.
fn owed_bill(inst: &Instance, now: Millis, unit: Millis, forgive: bool) -> Option<InstanceBill> {
    let (charged_from, released_at) = match inst.state {
        InstanceState::Launching { .. } => (None, now),
        InstanceState::Running { charge_start } => (Some(charge_start), now),
        InstanceState::Draining {
            charge_start,
            terminate_at,
        } => (Some(charge_start), now.min(terminate_at)),
        InstanceState::Terminated { .. } => return None,
    };
    let units = match charged_from {
        None => 1,
        Some(from) if forgive => Instance::units_billed_forgiven(from, released_at, unit),
        Some(from) => Instance::units_billed(from, released_at, unit),
    };
    Some(InstanceBill {
        instance: inst.id,
        charged_from,
        released_at,
        units,
    })
}

/// Persistent backing store for the per-tick [`MonitorSnapshot`]. All Vecs
/// keep their capacity across ticks, so after warm-up the monitor phase
/// allocates nothing.
///
/// Task rows persist across ticks and are maintained incrementally: a row is
/// re-rendered only when its task changed phase since the last tick (the
/// `dirty` list), when it first becomes visible, or when its task is running
/// (its ages move with the clock; the dense `running` list holds exactly
/// those). Instance rows persist the same way: one row per non-terminated
/// instance, in id order, re-rendered only when its instance was marked in
/// `dirty_instances` (launch, boot, dispatch, finish, OOM, drain,
/// termination). The per-tick monitor cost therefore tracks what changed plus
/// what runs, not every task ever arrived nor every instance in the pool.
#[derive(Default)]
struct SnapshotScratch {
    tasks: Vec<TaskView>,
    /// Tasks whose phase changed since the last build (repeats allowed).
    dirty: Vec<TaskId>,
    /// Every task currently `Running`, in no particular order, with a copy
    /// of its placement so the per-tick age refresh reads one dense array.
    running: Vec<(TaskId, RunInfo)>,
    /// Per-task index into `running`; meaningful while the task runs.
    running_pos: Vec<u32>,
    /// One row per non-terminated instance, ascending by id.
    instances: Vec<InstanceView>,
    /// Instances whose row may differ from a fresh render since the last
    /// build, each listed once: a launched instance gains its row, a
    /// terminated one loses it, any other is re-rendered in place.
    dirty_instances: Vec<InstanceId>,
    /// Per instance id: listed in `dirty_instances`. A busy pool changes the
    /// same instance many times per interval; it is re-rendered once.
    instance_listed: Vec<bool>,
}

impl SnapshotScratch {
    fn new(num_tasks: usize) -> Self {
        SnapshotScratch {
            running_pos: vec![0; num_tasks],
            ..SnapshotScratch::default()
        }
    }

    /// Record one phase change: mark the row dirty and keep the running list
    /// in step (O(1) swap-remove on leaving `Running`).
    fn note_phase(&mut self, task: TaskId, old: TaskPhase, new: TaskPhase, run: &RunInfo) {
        self.dirty.push(task);
        if old == TaskPhase::Running {
            let pos = self.running_pos[task.index()] as usize;
            self.running.swap_remove(pos);
            if let Some(&(moved, _)) = self.running.get(pos) {
                self.running_pos[moved.index()] = pos as u32;
            }
        }
        if new == TaskPhase::Running {
            self.running_pos[task.index()] = self.running.len() as u32;
            self.running.push((task, *run));
        }
    }

    /// Record a change to what instance `id`'s row shows (lifecycle state,
    /// slot contents, free-slot count). Every such change in the engine
    /// calls this, so the next build re-renders exactly the rows that
    /// changed.
    fn note_instance(&mut self, id: InstanceId) {
        let i = id.index();
        if i >= self.instance_listed.len() {
            self.instance_listed.resize(i + 1, false);
        }
        if !std::mem::replace(&mut self.instance_listed[i], true) {
            self.dirty_instances.push(id);
        }
    }

    /// Empty the instance dirty list (after a build, or at teardown).
    fn clear_instance_marks(&mut self) {
        for id in self.dirty_instances.drain(..) {
            self.instance_listed[id.index()] = false;
        }
    }
}

/// The policy-visible view of task `i`: the one phase → [`TaskView`] match.
fn render_task(
    i: usize,
    phase: TaskPhase,
    now: Millis,
    runs: &[RunInfo],
    records: &[Option<TaskRecord>],
) -> TaskView {
    match phase {
        TaskPhase::Unready => TaskView::Unready,
        TaskPhase::Ready => TaskView::Ready,
        TaskPhase::Running => running_view(&runs[i], now),
        TaskPhase::Done => {
            let r = records[i].expect("done task has a record");
            TaskView::Done {
                exec_time: r.exec_time,
                transfer_time: r.transfer_time,
            }
        }
    }
}

/// A running task's row; its ages move with the clock.
fn running_view(run: &RunInfo, now: Millis) -> TaskView {
    TaskView::Running {
        instance: run.instance,
        exec_age: now.saturating_sub(run.exec_start),
        occupied_for: now - run.assigned_at,
    }
}

/// The policy-visible view of a non-terminated instance; its task list
/// reuses the buffer `tasks`.
fn render_instance(
    inst: &Instance,
    arena: &SlotArena,
    family: FamilyId,
    mut tasks: Vec<TaskId>,
) -> InstanceView {
    tasks.clear();
    tasks.extend(arena.tasks_of(inst.id));
    InstanceView {
        id: inst.id,
        state: state_view(inst.state),
        tasks,
        free_slots: arena.width_of(inst.id) - inst.occupied,
        family,
    }
}

fn state_view(state: InstanceState) -> InstanceStateView {
    match state {
        InstanceState::Launching { ready_at } => InstanceStateView::Launching { ready_at },
        InstanceState::Running { charge_start } => InstanceStateView::Running { charge_start },
        InstanceState::Draining { terminate_at, .. } => {
            InstanceStateView::Draining { terminate_at }
        }
        InstanceState::Terminated { .. } => unreachable!("terminated instances have no row"),
    }
}

/// Build the sanitized policy-visible snapshot from disjoint engine fields
/// into `scratch` (free function so `policy` can be borrowed mutably
/// alongside it). `task_states` is the arrived-workflow prefix of the global
/// task array — unarrived workflows are invisible to the policy. The
/// completion/transfer accumulators are lent out as-is — the engine clears
/// them only after the plan call returns.
#[allow(clippy::too_many_arguments)]
fn build_snapshot<'a, S: Scheduler>(
    scratch: &'a mut SnapshotScratch,
    workflows: &'a [WorkflowSlot<'a>],
    config: &'a CloudConfig,
    now: Millis,
    phases: &[TaskPhase],
    runs: &[RunInfo],
    done_prefix: usize,
    records: &[Option<TaskRecord>],
    instances: &[Instance],
    instance_family: &[FamilyId],
    arena: &SlotArena,
    new_completions: &'a [CompletionView],
    interval_transfers: &'a [Millis],
    interval_ooms: u32,
    mem_blocked: &'a [TaskId],
    ready: &'a S,
    spent_milli: u64,
) -> MonitorSnapshot<'a> {
    let visible = phases.len();
    let render = |i: usize| render_task(i, phases[i], now, runs, records);
    let family_of = |i: &Instance| instance_family[i.id.index()];
    let rows = &mut scratch.instances;
    // rows of newly arrived workflows, then rows that changed phase and
    // running rows, whose ages move with the clock
    let kept = scratch.tasks.len();
    scratch.tasks.extend((kept..visible).map(render));
    for &t in &scratch.dirty {
        scratch.tasks[t.index()] = render(t.index());
    }
    for (t, run) in &scratch.running {
        scratch.tasks[t.index()] = running_view(run, now);
    }
    // instance rows: only those marked since the last build; a
    // terminated instance's row is dropped in one pass at the end
    let mut terminated = false;
    for &id in &scratch.dirty_instances {
        let inst = &instances[id.index()];
        match rows.binary_search_by_key(&id, |v| v.id) {
            Ok(r) if inst.is_active() => {
                let tasks = std::mem::take(&mut rows[r].tasks);
                rows[r] = render_instance(inst, arena, family_of(inst), tasks);
            }
            Ok(_) => terminated = true,
            Err(r) if inst.is_active() => {
                rows.insert(r, render_instance(inst, arena, family_of(inst), Vec::new()))
            }
            Err(_) => {} // launched and terminated since the last build
        }
    }
    if terminated {
        rows.retain(|v| instances[v.id.index()].is_active());
    }
    scratch.dirty.clear();
    scratch.clear_instance_marks();

    // oracle: the maintained rows are exactly a fresh render, and every
    // Ready task is either memory-parked or queued in the scheduler
    #[cfg(debug_assertions)]
    {
        debug_assert_eq!(
            scratch.tasks.len(),
            visible,
            "task rows cover the visible prefix"
        );
        let mut ready_rows = 0;
        for (i, row) in scratch.tasks.iter().enumerate() {
            debug_assert_eq!(*row, render(i), "stale snapshot row t{i}");
            ready_rows += (phases[i] == TaskPhase::Ready) as usize;
        }
        debug_assert_eq!(
            ready.len() + mem_blocked.len(),
            ready_rows,
            "scheduler length drift"
        );
        let mut active = instances.iter().filter(|i| i.is_active());
        for row in &scratch.instances {
            let inst = active.next().expect("instance row without a live instance");
            debug_assert_eq!(
                *row,
                render_instance(inst, arena, family_of(inst), Vec::new()),
                "stale instance row {}",
                inst.id
            );
        }
        debug_assert!(active.next().is_none(), "live instance without a row");
    }

    MonitorSnapshot {
        now,
        workflows,
        config,
        done_prefix: done_prefix.min(visible),
        naive: false,
        tasks: &scratch.tasks,
        instances: &scratch.instances,
        new_completions,
        interval_transfers,
        interval_ooms,
        // memory-parked tasks lead (they retry ahead of the scheduler), then
        // the scheduler's own order, walked only if the policy reads it
        ready_in_dispatch_order: DispatchOrder::scheduled(mem_blocked, ready),
        spent_milli,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::WorkflowBuilder;

    /// Keeps the initial pool forever.
    struct Hold;
    impl ScalingPolicy for Hold {
        fn name(&self) -> &str {
            "hold"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            PoolPlan::keep()
        }
    }

    fn chain(n: usize, secs: u64) -> (Workflow, ExecProfile) {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.add_stage("s");
        let ts: Vec<TaskId> = (0..n).map(|_| b.add_task(s, 0, 0)).collect();
        for w in ts.windows(2) {
            b.add_dep(w[0], w[1]).unwrap();
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(n, Millis::from_secs(secs));
        (wf, prof)
    }

    fn fanout(n: usize, secs: u64) -> (Workflow, ExecProfile) {
        let mut b = WorkflowBuilder::new("fanout");
        let s = b.add_stage("s");
        for _ in 0..n {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(n, Millis::from_secs(secs));
        (wf, prof)
    }

    /// One workflow through the [`crate::Session`] builder.
    fn run_one<P: ScalingPolicy>(
        wf: &Workflow,
        prof: &ExecProfile,
        cfg: CloudConfig,
        tm: TransferModel,
        policy: P,
        seed: u64,
    ) -> Result<RunResult, RunError> {
        crate::Session::new(cfg)
            .transfer(tm)
            .policy(policy)
            .seed(seed)
            .submit(wf, prof)
            .run()
    }

    /// [`run_one`] on the base config with a telemetry handle attached:
    /// the result and the times of every recorded event of `kind`.
    fn event_times<P: ScalingPolicy>(
        wf: &Workflow,
        prof: &ExecProfile,
        policy: P,
        kind: &str,
    ) -> (RunResult, Vec<Millis>) {
        let handle = wire_telemetry::TelemetryHandle::new();
        let r = crate::Session::new(base_config())
            .transfer(TransferModel::none())
            .policy(policy)
            .seed(1)
            .recording(handle.clone())
            .submit(wf, prof)
            .run()
            .unwrap();
        let times = handle
            .take()
            .events
            .into_iter()
            .filter(|(_, e)| e.kind() == kind)
            .map(|(t, _)| t)
            .collect();
        (r, times)
    }

    fn base_config() -> CloudConfig {
        CloudConfig {
            slots_per_instance: 1,
            site_capacity: 16,
            launch_lag: Millis::from_mins(3),
            charging_unit: Millis::from_mins(15),
            mape_interval: Millis::from_mins(3),
            initial_instances: 1,
            scheduler: crate::scheduler::SchedulerSpec::first_five(),
            exec_jitter: 0.0,
            mean_time_between_failures: None,
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            max_sim_time: Millis::from_hours(100),
            families: Vec::new(),
            budget: None,
            mutation_bill_eviction_grace: false,
        }
    }

    #[test]
    fn chain_on_one_instance_is_sequential() {
        let (wf, prof) = chain(5, 60);
        let r = run_one(&wf, &prof, base_config(), TransferModel::none(), Hold, 1).unwrap();
        assert_eq!(r.makespan, Millis::from_mins(5));
        assert_eq!(r.busy_slot_time, Millis::from_mins(5));
        assert_eq!(r.wasted_slot_time, Millis::ZERO);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.task_records.len(), 5);
        // 5 minutes on one instance with u = 15 min → 1 unit
        assert_eq!(r.charging_units, 1);
        assert_eq!(r.peak_instances, 1);
    }

    #[test]
    fn fanout_on_one_slot_serializes() {
        let (wf, prof) = fanout(4, 60);
        let r = run_one(&wf, &prof, base_config(), TransferModel::none(), Hold, 1).unwrap();
        assert_eq!(r.makespan, Millis::from_mins(4));
        assert_eq!(r.charging_units, 1);
    }

    #[test]
    fn fanout_with_static_pool_parallelizes() {
        let (wf, prof) = fanout(8, 60);
        let cfg = CloudConfig {
            initial_instances: 4,
            ..base_config()
        };
        let r = run_one(&wf, &prof, cfg, TransferModel::none(), Hold, 1).unwrap();
        assert_eq!(r.makespan, Millis::from_mins(2)); // 8 tasks / 4 slots
        assert_eq!(r.charging_units, 4);
        assert_eq!(r.peak_instances, 4);
    }

    #[test]
    fn multi_slot_instance_hosts_concurrent_tasks() {
        let (wf, prof) = fanout(4, 60);
        let cfg = CloudConfig {
            slots_per_instance: 4,
            ..base_config()
        };
        let r = run_one(&wf, &prof, cfg, TransferModel::none(), Hold, 1).unwrap();
        assert_eq!(r.makespan, Millis::from_mins(1));
        assert_eq!(r.charging_units, 1);
    }

    #[test]
    fn failure_injection_restarts_tasks_and_still_completes() {
        let (wf, prof) = fanout(20, 300);
        let cfg = CloudConfig {
            initial_instances: 4,
            mean_time_between_failures: Some(Millis::from_mins(8)),
            max_sim_time: Millis::from_hours(50),
            ..base_config()
        };
        /// replaces crashed instances, like any production static pool would
        struct Replenish(u32);
        impl ScalingPolicy for Replenish {
            fn name(&self) -> &str {
                "replenish"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                let m = s.pool_size();
                if m < self.0 {
                    PoolPlan::launch(self.0 - m)
                } else {
                    PoolPlan::keep()
                }
            }
        }
        let r = run_one(&wf, &prof, cfg, TransferModel::none(), Replenish(4), 9).unwrap();
        assert_eq!(r.task_records.len(), 20);
        assert!(r.failures > 0, "expected at least one injected failure");
        assert_eq!(
            r.restarts as usize,
            r.task_records
                .iter()
                .map(|t| t.restarts as usize)
                .sum::<usize>()
        );
    }

    #[test]
    fn zero_mtbf_means_no_failures() {
        let (wf, prof) = fanout(8, 60);
        let r = run_one(&wf, &prof, base_config(), TransferModel::none(), Hold, 9).unwrap();
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn failures_are_seed_deterministic() {
        let (wf, prof) = fanout(20, 300);
        let cfg = CloudConfig {
            initial_instances: 4,
            mean_time_between_failures: Some(Millis::from_mins(8)),
            max_sim_time: Millis::from_hours(50),
            ..base_config()
        };
        struct Replenish(u32);
        impl ScalingPolicy for Replenish {
            fn name(&self) -> &str {
                "replenish"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                let m = s.pool_size();
                if m < self.0 {
                    PoolPlan::launch(self.0 - m)
                } else {
                    PoolPlan::keep()
                }
            }
        }
        let a = run_one(
            &wf,
            &prof,
            cfg.clone(),
            TransferModel::none(),
            Replenish(4),
            9,
        )
        .unwrap();
        let b = run_one(&wf, &prof, cfg, TransferModel::none(), Replenish(4), 9).unwrap();
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn setup_and_teardown_extend_the_run_and_are_billed() {
        let (wf, prof) = chain(1, 60);
        let cfg = CloudConfig {
            run_setup: Millis::from_mins(4),
            run_teardown: Millis::from_mins(2),
            ..base_config()
        };
        let r = run_one(&wf, &prof, cfg, TransferModel::none(), Hold, 1).unwrap();
        // 4 min setup + 1 min task + 2 min teardown
        assert_eq!(r.makespan, Millis::from_mins(7));
        // the instance is billed through the whole run (7 min < 15-min unit)
        assert_eq!(r.charging_units, 1);
        // the task itself was untouched
        assert_eq!(r.task_records[0].started_at, Millis::from_mins(4));
    }

    #[test]
    fn billing_counts_started_units() {
        let (wf, prof) = chain(1, 16 * 60); // 16 min task, u = 15 min
        let r = run_one(&wf, &prof, base_config(), TransferModel::none(), Hold, 1).unwrap();
        assert_eq!(r.charging_units, 2);
    }

    /// Launch `n` extra instances on the first tick, then hold.
    struct LaunchOnce(u32, bool);
    impl ScalingPolicy for LaunchOnce {
        fn name(&self) -> &str {
            "launch-once"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            if self.1 {
                PoolPlan::keep()
            } else {
                self.1 = true;
                PoolPlan::launch(self.0)
            }
        }
    }

    #[test]
    fn launch_takes_one_lag() {
        let (wf, prof) = fanout(2, 600); // two 10-min tasks
        let (r, ready_times) = event_times(&wf, &prof, LaunchOnce(1, false), "instance_ready");
        // t0 runs at 0 on i0. First tick at 3 min launches i1, ready at 6 min;
        // t1 runs 6..16 min.
        assert_eq!(r.makespan, Millis::from_mins(16));
        assert_eq!(r.instances_launched, 2);
        assert_eq!(ready_times, vec![Millis::ZERO, Millis::from_mins(6)]);
    }

    #[test]
    fn site_capacity_clamps_launches() {
        let (wf, prof) = fanout(30, 600);
        let cfg = CloudConfig {
            site_capacity: 3,
            ..base_config()
        };
        let r = run_one(
            &wf,
            &prof,
            cfg,
            TransferModel::none(),
            LaunchOnce(100, false),
            1,
        )
        .unwrap();
        assert_eq!(r.instances_launched, 3);
        assert!(r.peak_instances <= 3);
    }

    /// Terminate instance 0 immediately on the first tick.
    struct KillFirst(bool, TerminateWhen);
    impl ScalingPolicy for KillFirst {
        fn name(&self) -> &str {
            "kill-first"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            if self.0 {
                PoolPlan::keep()
            } else {
                self.0 = true;
                PoolPlan {
                    launch: 1,
                    launch_families: vec![],
                    terminate: vec![(InstanceId(0), self.1)],
                }
            }
        }
    }

    #[test]
    fn immediate_termination_resubmits_running_task() {
        let (wf, prof) = chain(1, 600); // one 10-min task
        let r = run_one(
            &wf,
            &prof,
            base_config(),
            TransferModel::none(),
            KillFirst(false, TerminateWhen::Now),
            1,
        )
        .unwrap();
        // killed at 3 min (sunk), replacement ready at 6 min, runs 10 min
        assert_eq!(r.makespan, Millis::from_mins(16));
        assert_eq!(r.restarts, 1);
        assert_eq!(r.wasted_slot_time, Millis::from_mins(3));
        assert_eq!(r.busy_slot_time, Millis::from_mins(10));
        assert_eq!(r.task_records[0].restarts, 1);
        // two instances billed one unit each (3 min and 10 min of use)
        assert_eq!(r.charging_units, 2);
    }

    #[test]
    fn boundary_termination_drains_until_charge_expires() {
        let (wf, prof) = chain(1, 20 * 60); // 20-min task, u = 15 min
        let (r, term_times) = event_times(
            &wf,
            &prof,
            KillFirst(false, TerminateWhen::AtChargeBoundary),
            "instance_terminated",
        );
        // i0 drains at the 15-min boundary; task (sunk 15 min) resubmits to
        // i1 (ready at 6 min, idle) and runs 15..35 min.
        assert_eq!(r.makespan, Millis::from_mins(35));
        assert_eq!(r.restarts, 1);
        assert_eq!(r.wasted_slot_time, Millis::from_mins(15));
        assert_eq!(term_times[0], Millis::from_mins(15));
        // i0: exactly one unit; i1: 0→35 min wall but charged from 6 min → 29
        // min → 2 units
        assert_eq!(r.charging_units, 3);
    }

    #[test]
    fn invalid_plan_is_an_error() {
        struct Bad;
        impl ScalingPolicy for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
                PoolPlan {
                    launch: 0,
                    launch_families: vec![],
                    terminate: vec![(InstanceId(99), TerminateWhen::Now)],
                }
            }
        }
        let (wf, prof) = chain(2, 600);
        let err = run_one(&wf, &prof, base_config(), TransferModel::none(), Bad, 1).unwrap_err();
        assert!(matches!(err, RunError::InvalidPlan(_)));
    }

    #[test]
    fn starvation_hits_time_limit() {
        let (wf, prof) = chain(2, 600);
        let cfg = CloudConfig {
            initial_instances: 0,
            max_sim_time: Millis::from_hours(1),
            ..base_config()
        };
        let err = run_one(&wf, &prof, cfg, TransferModel::none(), Hold, 1).unwrap_err();
        assert!(matches!(
            err,
            RunError::TimeLimit {
                completed: 0,
                total: 2
            }
        ));
    }

    #[test]
    fn runs_are_deterministic() {
        let (wf, prof) = fanout(20, 45);
        let cfg = CloudConfig {
            initial_instances: 3,
            exec_jitter: 0.2,
            ..base_config()
        };
        let tm = TransferModel {
            bytes_per_sec: 1e6,
            fixed_overhead: Millis::from_ms(100),
            jitter: 0.3,
        };
        let a = run_one(&wf, &prof, cfg.clone(), tm.clone(), Hold, 42).unwrap();
        let b = run_one(&wf, &prof, cfg.clone(), tm.clone(), Hold, 42).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.charging_units, b.charging_units);
        assert_eq!(a.task_records, b.task_records);
        // different seed differs (jittered exec/transfers)
        let c = run_one(&wf, &prof, cfg, tm, Hold, 43).unwrap();
        assert_ne!(a.task_records, c.task_records);
    }

    #[test]
    fn transfers_extend_occupancy_and_are_recorded() {
        let mut b = WorkflowBuilder::new("x");
        let s = b.add_stage("s");
        b.add_task(s, 1_000_000, 1_000_000);
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(1, Millis::from_secs(10));
        let tm = TransferModel {
            bytes_per_sec: 1e6,
            fixed_overhead: Millis::ZERO,
            jitter: 0.0,
        };
        let r = run_one(&wf, &prof, base_config(), tm, Hold, 1).unwrap();
        // 1 s in + 10 s exec + 1 s out
        assert_eq!(r.makespan, Millis::from_secs(12));
        let rec = r.task_records[0];
        assert_eq!(rec.exec_time, Millis::from_secs(10));
        assert_eq!(rec.transfer_time, Millis::from_secs(2));
    }

    #[test]
    fn mape_snapshot_hides_ground_truth_but_shows_lifecycle() {
        struct Probe {
            saw: std::cell::Cell<bool>,
        }
        impl ScalingPolicy for &Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                if s.now == Millis::from_mins(3) {
                    // 10-min task still running at first tick
                    assert_eq!(s.active_tasks(), 1);
                    assert_eq!(s.pool_size(), 1);
                    match s.tasks[0] {
                        TaskView::Running {
                            exec_age,
                            occupied_for,
                            ..
                        } => {
                            assert_eq!(exec_age, Millis::from_mins(3));
                            assert_eq!(occupied_for, Millis::from_mins(3));
                        }
                        ref other => panic!("expected running, got {other:?}"),
                    }
                    self.saw.set(true);
                }
                PoolPlan::keep()
            }
        }
        let (wf, prof) = chain(1, 600);
        let probe = Probe {
            saw: std::cell::Cell::new(false),
        };
        let r = run_one(&wf, &prof, base_config(), TransferModel::none(), &probe, 1).unwrap();
        assert!(probe.saw.get());
        assert!(r.mape_iterations >= 1);
    }

    #[test]
    fn completions_reported_once_per_interval() {
        struct CountCompletions {
            total: std::cell::Cell<usize>,
        }
        impl ScalingPolicy for &CountCompletions {
            fn name(&self) -> &str {
                "count"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                self.total.set(self.total.get() + s.new_completions.len());
                PoolPlan::keep()
            }
        }
        let (wf, prof) = fanout(6, 100);
        let counter = CountCompletions {
            total: std::cell::Cell::new(0),
        };
        let cfg = CloudConfig {
            initial_instances: 2,
            mape_interval: Millis::from_mins(1),
            ..base_config()
        };
        run_one(&wf, &prof, cfg, TransferModel::none(), &counter, 1).unwrap();
        // the final completion may coincide with run end (no tick after), so
        // the policy sees at most all and at least all-but-the-last ones
        assert!(counter.total.get() >= 4, "saw {}", counter.total.get());
    }

    #[test]
    fn pool_timeline_tracks_changes() {
        let (wf, prof) = fanout(2, 600);
        let r = run_one(
            &wf,
            &prof,
            base_config(),
            TransferModel::none(),
            LaunchOnce(1, false),
            1,
        )
        .unwrap();
        let sizes: Vec<u32> = r.pool_timeline.iter().map(|&(_, c)| c).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2), "{sizes:?}");
    }
}
