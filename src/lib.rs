//! WIRE — Resource-efficient Scaling with Online Prediction for DAG-based
//! Workflows (CLUSTER 2021) — a full Rust reproduction.
//!
//! This facade crate re-exports the workspace so applications can depend on a
//! single crate:
//!
//! * [`dag`] — workflow DAG model ([`wire_dag`]);
//! * [`simcloud`] — discrete-event IaaS cloud + framework scheduler
//!   ([`wire_simcloud`]);
//! * [`predictor`] — the five online prediction policies and the per-stage
//!   OGD models ([`wire_predictor`]);
//! * [`planner`] — lookahead simulation, Algorithms 2–3, WIRE policy and
//!   baselines ([`wire_planner`]);
//! * [`workloads`] — Table I workload generators and ensemble arrival
//!   processes ([`wire_workloads`]);
//! * [`core`] — the §IV-C experiment grid, statistics, reports
//!   ([`wire_core`]);
//! * [`campaign`] — every controlled run: one cell (workload, policy,
//!   charging unit, seed) or an ensemble through one session build, the
//!   cached parallel campaign runner and the paper's figure front-ends
//!   ([`wire_campaign`]);
//! * [`telemetry`] — recorder hooks, the raw event stream and decision
//!   journal, and trace exporters ([`wire_telemetry`]);
//! * [`obs`] — bounded-memory streaming observability, the one metrics
//!   path: mergeable sketches, per-tenant/windowed rollups, the prediction
//!   join, run-health metrics and the `wire report` snapshot format
//!   ([`wire_obs`]).
//!
//! # Quickstart
//!
//! The entry point is the [`prelude::Session`] builder: submit one or many
//! workflows (with staggered arrival times, if desired) against one shared,
//! billed instance pool.
//!
//! ```
//! use wire::prelude::*;
//!
//! // a 20-task fan-out workflow, 2-minute tasks
//! let (wf, prof) = wire::workloads::linear_stage(20, Millis::from_mins(2));
//! let result = Session::new(CloudConfig::default())
//!     .transfer(TransferModel::none())
//!     .policy(WirePolicy::default())
//!     .seed(42)
//!     .submit(&wf, &prof)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.task_records.len(), 20);
//! assert_eq!(result.per_workflow.len(), 1);
//! ```

#![deny(missing_docs)]

pub use wire_campaign as campaign;
pub use wire_core as core;
pub use wire_dag as dag;
pub use wire_obs as obs;
pub use wire_planner as planner;
pub use wire_predictor as predictor;
pub use wire_simcloud as simcloud;
pub use wire_telemetry as telemetry;
pub use wire_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use wire_core::{ExperimentGrid, Setting};
    pub use wire_dag::{
        ExecProfile, Millis, StageId, TaskId, Workflow, WorkflowBuilder, WorkflowId,
    };
    pub use wire_obs::export::{decision_log, metrics_csv};
    pub use wire_obs::{render_report, ObsSnapshot, StreamingRecorder};
    pub use wire_planner::{
        PureReactive, ReactiveConserving, StaticPolicy, SteeringConfig, WirePolicy,
    };
    pub use wire_simcloud::{
        AnyScheduler, CloudConfig, Engine, FamilySpec, HoldPolicy, MemoryProfile, MonitorSnapshot,
        PoolPlan, RankKind, RankScheduler, ReadyQueue, RunResult, ScalingPolicy, Scheduler,
        SchedulerSpec, Session, SpotSpec, TransferModel, WorkflowOutcome, WorkflowSlot,
    };
    pub use wire_telemetry::export::{chrome_trace, decisions_to_jsonl, events_to_jsonl};
    pub use wire_telemetry::{NoopRecorder, Recorder, Tee, TelemetryBuffer, TelemetryHandle};
    pub use wire_workloads::{ArrivalProcess, EnsembleMember, EnsembleSpec, WorkloadId};
}
