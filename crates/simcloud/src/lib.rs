//! Discrete-event IaaS cloud simulator — the substrate replacing ExoGENI +
//! Pegasus WMS/HTCondor in this reproduction.
//!
//! The simulator models exactly the observables WIRE's controller interacts
//! with on a real cloud (paper §III-A):
//!
//! * a pool of identically provisioned *worker instances*, each with `l` task
//!   slots;
//! * a *lag time* `t` to institute pool changes (instance launch/release);
//! * per-instance billing in *charging units* of length `u` (every started
//!   unit is paid);
//! * a site capacity cap (the paper's ExoGENI site provides at most 12);
//! * a swappable framework [`Scheduler`] — by default WIRE's two-class FIFO
//!   with the first-five-per-stage priority boost (§III-C), with HEFT-style
//!   rank schedulers and a per-workflow portfolio selectable via
//!   [`SchedulerSpec`];
//! * task slot occupancy = input transfer + execution + output transfer
//!   (§III-B1), with ground-truth execution times replayed from a
//!   [`wire_dag::ExecProfile`] and transfer times drawn from a seeded
//!   bandwidth model.
//!
//! A [`policy::ScalingPolicy`] is invoked at every MAPE tick with a sanitized
//! [`observe::MonitorSnapshot`] (no ground truth leaks) and returns a
//! [`policy::PoolPlan`]; the engine applies it with realistic lag and
//! termination semantics (draining at charge boundaries, task resubmission
//! with lost sunk cost).
//!
//! The public entry point is the [`Session`] builder, which accepts one or
//! many workflows with submission times and bills them against one shared
//! pool. A run reports through its [`RunResult`] and through the
//! [`TelemetryEvent`] stream it sends to the attached [`Recorder`] (e.g. a
//! [`TelemetryHandle`]).

pub mod chaos;
pub mod config;
pub mod engine;
pub mod event;
pub mod family;
pub mod instance;
pub mod observe;
pub mod policy;
pub mod result;
pub mod scheduler;
pub mod session;
pub mod transfer;

pub use chaos::{Fault, FaultAction, FaultPlan, FaultTrigger};
pub use config::{BudgetConfig, CloudConfig};
pub use engine::{Engine, RunError};
pub use family::{FamilyId, FamilySpec, MemoryProfile, SpotSpec};
pub use instance::{InstanceId, InstanceStateView};
pub use observe::{
    CompletionView, DispatchOrder, InstanceView, MonitorSnapshot, SnapshotBuffers, TaskView,
    WorkflowSlot,
};
pub use policy::{PoolPlan, ScalingPolicy, TerminateWhen};
pub use result::{RunResult, TaskRecord, WorkflowOutcome};
pub use scheduler::{
    AnyScheduler, RankKind, RankScheduler, ReadyQueue, Scheduler, SchedulerSpec, BOOSTED_PER_STAGE,
};
pub use session::{HoldPolicy, Session};
pub use transfer::TransferModel;
pub use wire_telemetry::{NoopRecorder, Recorder, TelemetryEvent, TelemetryHandle};
