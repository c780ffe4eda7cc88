//! The public entry point: a builder for single- and multi-workflow runs.
//!
//! ```
//! use wire_simcloud::{CloudConfig, Session};
//! use wire_dag::{ExecProfile, Millis, WorkflowBuilder};
//!
//! let mut b = WorkflowBuilder::new("two");
//! let s = b.add_stage("s");
//! b.add_task(s, 0, 0);
//! b.add_task(s, 0, 0);
//! let wf = b.build().unwrap();
//! let prof = ExecProfile::uniform(2, Millis::from_secs(30));
//!
//! let result = Session::new(CloudConfig::default())
//!     .seed(42)
//!     .submit(&wf, &prof)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.per_workflow.len(), 1);
//! ```
//!
//! A session accepts N workflows with submission times (`submit` for
//! immediate, `submit_at` for staggered arrivals), schedules ready tasks of
//! all active DAGs through one shared [`crate::Scheduler`] (the boosted
//! two-class FIFO by default; see [`Session::scheduler`]), and bills one
//! shared pool. `run` returns a [`RunResult`] with shared pool/billing
//! totals plus per-workflow makespan/slowdown records.

use crate::chaos::FaultPlan;
use crate::config::CloudConfig;
use crate::engine::{Engine, RunError};
use crate::family::MemoryProfile;
use crate::observe::MonitorSnapshot;
use crate::policy::{PoolPlan, ScalingPolicy};
use crate::result::RunResult;
use crate::scheduler::SchedulerSpec;
use crate::transfer::TransferModel;
use wire_dag::{ExecProfile, Millis, Workflow};
use wire_telemetry::{NoopRecorder, Recorder};

/// The default session policy: keep whatever pool the config started.
///
/// Useful for fixed-pool runs and as the placeholder before
/// [`Session::policy`] swaps in a real autoscaler.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoldPolicy;

impl ScalingPolicy for HoldPolicy {
    fn name(&self) -> &str {
        "hold"
    }

    fn plan(&mut self, _snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        PoolPlan::keep()
    }
}

/// Builder for a simulated session.
///
/// ```text
/// Session::new(cfg)
///     .transfer(model)
///     .policy(p)
///     .seed(s)
///     .submit(&wf, &prof)
///     .submit_at(t, &wf2, &prof2)
///     .run()
/// ```
///
/// `policy` and `recording` change the builder's type parameters; every
/// other method returns `Self`. Workflows are numbered in submission-time
/// order (ties keep submit-call order).
pub struct Session<'a, P: ScalingPolicy = HoldPolicy, R: Recorder = NoopRecorder> {
    config: CloudConfig,
    transfer: TransferModel,
    policy: P,
    recorder: R,
    seed: u64,
    submissions: Vec<(Millis, &'a Workflow, &'a ExecProfile)>,
    chaos: FaultPlan,
    memory: Option<MemoryProfile>,
}

impl<'a> Session<'a> {
    /// Start a session on the given cloud; defaults: no transfer cost model
    /// jitter beyond [`TransferModel::default`], [`HoldPolicy`], seed 0, no
    /// telemetry.
    pub fn new(config: CloudConfig) -> Self {
        Session {
            config,
            transfer: TransferModel::default(),
            policy: HoldPolicy,
            recorder: NoopRecorder,
            seed: 0,
            submissions: Vec::new(),
            chaos: FaultPlan::new(),
            memory: None,
        }
    }
}

impl<'a, P: ScalingPolicy, R: Recorder> Session<'a, P, R> {
    /// Set the data-transfer cost model.
    pub fn transfer(mut self, model: TransferModel) -> Self {
        self.transfer = model;
        self
    }

    /// Set the RNG seed (transfer/exec jitter and failure injection).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the ready-task [`crate::Scheduler`] the framework master runs
    /// (shorthand for setting [`CloudConfig::scheduler`]). The default FIFO
    /// with the first-five boost reproduces the historical engine byte for
    /// byte.
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.config.scheduler = spec;
        self
    }

    /// Set the scaling policy driven at every MAPE tick.
    pub fn policy<Q: ScalingPolicy>(self, policy: Q) -> Session<'a, Q, R> {
        Session {
            config: self.config,
            transfer: self.transfer,
            policy,
            recorder: self.recorder,
            seed: self.seed,
            submissions: self.submissions,
            chaos: self.chaos,
            memory: self.memory,
        }
    }

    /// Attach a telemetry recorder (e.g. a `TelemetryHandle`).
    pub fn recording<S: Recorder>(self, recorder: S) -> Session<'a, P, S> {
        Session {
            config: self.config,
            transfer: self.transfer,
            policy: self.policy,
            recorder,
            seed: self.seed,
            submissions: self.submissions,
            chaos: self.chaos,
            memory: self.memory,
        }
    }

    /// Install a spend ceiling in milli-dollars (shorthand for setting
    /// [`CloudConfig::budget`]). The engine then computes committed spend
    /// each MAPE tick and budget-aware policies throttle growth against it.
    pub fn budget(mut self, ceiling_milli: u64) -> Self {
        self.config = self.config.with_budget(ceiling_milli);
        self
    }

    /// Attach a scripted chaos [`FaultPlan`] (see [`crate::chaos`]). The
    /// empty plan is the default and leaves the run byte-identical to one
    /// without this call.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Attach a per-task [`MemoryProfile`] over the session-global task
    /// index space (tasks numbered across submissions in submission order).
    /// Placement packs the declared demands first-fit, with OOM-restart
    /// semantics. Without a profile every task claims and peaks at 0 MB, so
    /// an all-zero profile runs exactly like none.
    pub fn memory(mut self, profile: MemoryProfile) -> Self {
        self.memory = Some(profile);
        self
    }

    /// Submit a workflow at time zero.
    pub fn submit(self, wf: &'a Workflow, profile: &'a ExecProfile) -> Self {
        self.submit_at(Millis::ZERO, wf, profile)
    }

    /// Submit a workflow arriving at simulated time `at`.
    pub fn submit_at(mut self, at: Millis, wf: &'a Workflow, profile: &'a ExecProfile) -> Self {
        self.submissions.push((at, wf, profile));
        self
    }

    /// Construct the engine without running it (to inspect construction
    /// errors separately).
    pub fn build(self) -> Result<Engine<'a, P, R>, RunError> {
        let spec = self.config.scheduler;
        let sched_cfg = self.config.clone();
        let mut engine = Engine::from_submissions_with(
            self.submissions,
            self.config,
            self.transfer,
            self.policy,
            self.seed,
            self.recorder,
            move |num_tasks, num_stages| spec.build(num_tasks, num_stages, &sched_cfg),
        )?;
        if let Some(memory) = &self.memory {
            engine = engine.with_memory(memory)?;
        }
        if self.chaos.is_empty() {
            Ok(engine)
        } else {
            engine.with_chaos(self.chaos)
        }
    }

    /// Run the session to completion.
    pub fn run(self) -> Result<RunResult, RunError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TerminateWhen;
    use wire_dag::{TaskId, WorkflowBuilder, WorkflowId};

    fn fanout(name: &str, n: usize, secs: u64) -> (Workflow, ExecProfile) {
        let mut b = WorkflowBuilder::new(name);
        let s = b.add_stage("s");
        for _ in 0..n {
            b.add_task(s, 0, 0);
        }
        (
            b.build().unwrap(),
            ExecProfile::uniform(n, Millis::from_secs(secs)),
        )
    }

    fn cfg() -> CloudConfig {
        CloudConfig {
            slots_per_instance: 1,
            site_capacity: 16,
            launch_lag: Millis::from_mins(3),
            charging_unit: Millis::from_mins(15),
            mape_interval: Millis::from_mins(3),
            initial_instances: 1,
            scheduler: SchedulerSpec::first_five(),
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
    fn scheduler_builder_sets_config() {
        let s = Session::new(cfg()).scheduler(SchedulerSpec::Heft);
        assert_eq!(s.config.scheduler, SchedulerSpec::Heft);
    }

    #[test]
    fn every_scheduler_completes_a_fanout() {
        let (wf, prof) = fanout("f", 9, 120);
        for spec in SchedulerSpec::ALL {
            let r = Session::new(cfg())
                .transfer(TransferModel::none())
                .scheduler(spec)
                .submit(&wf, &prof)
                .run()
                .unwrap();
            assert_eq!(r.task_records.len(), 9, "{}", spec.tag());
        }
    }

    #[test]
    fn empty_session_is_a_config_error() {
        let err = Session::new(cfg()).run().unwrap_err();
        assert!(matches!(err, RunError::Config(_)));
    }

    #[test]
    fn single_submission_is_one_workflow() {
        let (wf, prof) = fanout("f", 6, 120);
        let r = Session::new(cfg())
            .transfer(TransferModel::none())
            .seed(7)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        assert_eq!(r.task_records.len(), 6);
        assert_eq!(r.per_workflow.len(), 1);
        assert_eq!(r.per_workflow[0].makespan, r.makespan);
        assert_eq!(r.workflow, "f");
    }

    #[test]
    fn two_workflows_share_the_pool_and_complete() {
        let (wa, pa) = fanout("a", 4, 60);
        let (wb, pb) = fanout("b", 3, 60);
        let r = Session::new(cfg())
            .transfer(TransferModel::none())
            .submit(&wa, &pa)
            .submit_at(Millis::from_mins(2), &wb, &pb)
            .run()
            .unwrap();
        assert_eq!(r.task_records.len(), 7);
        assert_eq!(r.per_workflow.len(), 2);
        assert_eq!(r.workflow, "ensemble[2]");
        // every task completed exactly once, with global ids 0..7
        let mut seen: Vec<u32> = r.task_records.iter().map(|t| t.task.0).collect();
        seen.sort();
        assert_eq!(seen, (0..7).collect::<Vec<u32>>());
        // workflow b's tasks carry its id and arrive no earlier than its
        // submission time
        for rec in &r.task_records {
            if rec.task.0 >= 4 {
                assert_eq!(rec.workflow, WorkflowId(1));
                assert!(rec.ready_at >= Millis::from_mins(2));
            } else {
                assert_eq!(rec.workflow, WorkflowId(0));
            }
        }
        let b_out = &r.per_workflow[1];
        assert_eq!(b_out.submitted_at, Millis::from_mins(2));
        assert_eq!(b_out.makespan, b_out.finished_at - b_out.submitted_at);
        assert!(b_out.slowdown >= 1.0);
    }

    #[test]
    fn staggered_arrival_defers_visibility() {
        // workflow b arrives at 10 min; until then only a's 2 tasks and no
        // others may run. b's records must all start after 10 min.
        let (wa, pa) = fanout("a", 2, 600);
        let (wb, pb) = fanout("b", 2, 60);
        let r = Session::new(cfg())
            .transfer(TransferModel::none())
            .submit(&wa, &pa)
            .submit_at(Millis::from_mins(10), &wb, &pb)
            .run()
            .unwrap();
        for rec in r
            .task_records
            .iter()
            .filter(|t| t.workflow == WorkflowId(1))
        {
            assert!(rec.started_at >= Millis::from_mins(10));
        }
    }

    #[test]
    fn per_workflow_setup_delays_roots() {
        let (wa, pa) = fanout("a", 1, 60);
        let (wb, pb) = fanout("b", 1, 60);
        let config = CloudConfig {
            run_setup: Millis::from_mins(4),
            ..cfg()
        };
        let r = Session::new(config)
            .transfer(TransferModel::none())
            .submit(&wa, &pa)
            .submit_at(Millis::from_mins(1), &wb, &pb)
            .run()
            .unwrap();
        // a's root readies at 4 min; b arrives at 1 min, readies at 5 min
        assert_eq!(r.task_records[0].ready_at, Millis::from_mins(4));
        assert_eq!(r.task_records[1].ready_at, Millis::from_mins(5));
    }

    #[test]
    fn equal_time_submissions_keep_submit_order() {
        let (wa, pa) = fanout("first", 1, 60);
        let (wb, pb) = fanout("second", 1, 60);
        let r = Session::new(cfg())
            .transfer(TransferModel::none())
            .submit(&wa, &pa)
            .submit(&wb, &pb)
            .run()
            .unwrap();
        assert_eq!(r.per_workflow[0].workflow, "first");
        assert_eq!(r.per_workflow[1].workflow, "second");
    }

    #[test]
    fn multi_session_survives_terminations() {
        // exercise resubmission across workflows: kill the first instance
        struct KillFirst(bool);
        impl ScalingPolicy for KillFirst {
            fn name(&self) -> &str {
                "kill-first"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                if self.0 {
                    PoolPlan::keep()
                } else {
                    self.0 = true;
                    PoolPlan {
                        launch: 2,
                        launch_families: vec![],
                        terminate: s
                            .instances
                            .first()
                            .map(|iv| (iv.id, TerminateWhen::Now))
                            .into_iter()
                            .collect(),
                    }
                }
            }
        }
        let (wa, pa) = fanout("a", 3, 600);
        let (wb, pb) = fanout("b", 3, 600);
        let r = Session::new(cfg())
            .transfer(TransferModel::none())
            .policy(KillFirst(false))
            .submit(&wa, &pa)
            .submit_at(Millis::from_mins(1), &wb, &pb)
            .run()
            .unwrap();
        assert_eq!(r.task_records.len(), 6);
        assert!(r.restarts >= 1);
        let mut seen: Vec<TaskId> = r.task_records.iter().map(|t| t.task).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "each task completes exactly once");
    }

    #[test]
    fn multi_session_records_workflow_lifecycle_events() {
        use wire_telemetry::{TelemetryEvent, TelemetryHandle};
        let lifecycle = |subs: &[(Millis, &Workflow, &ExecProfile)]| {
            let handle = TelemetryHandle::new();
            let mut session = Session::new(cfg())
                .transfer(TransferModel::none())
                .recording(handle.clone());
            for &(at, wf, prof) in subs {
                session = session.submit_at(at, wf, prof);
            }
            session.run().unwrap();
            let events = handle.take().events;
            let count =
                |f: fn(&TelemetryEvent) -> bool| events.iter().filter(|(_, e)| f(e)).count();
            (
                count(|e| matches!(e, TelemetryEvent::WorkflowSubmitted { .. })),
                count(|e| matches!(e, TelemetryEvent::WorkflowCompleted { .. })),
            )
        };
        let (wa, pa) = fanout("a", 2, 60);
        let (wb, pb) = fanout("b", 2, 60);
        let pair = [(Millis::ZERO, &wa, &pa), (Millis::from_mins(1), &wb, &pb)];
        assert_eq!(lifecycle(&pair), (2, 2));
        // single-workflow runs stay free of lifecycle events
        assert_eq!(lifecycle(&pair[..1]), (0, 0));
    }
}
