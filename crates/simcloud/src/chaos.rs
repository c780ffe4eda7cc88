//! Scripted fault injection: deterministic chaos for the discrete-event
//! engine.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s — each a [`FaultTrigger`] (when)
//! plus a [`FaultAction`] (what). Timed triggers compile down to ordinary
//! engine events on the existing [`crate::event::EventQueue`], and
//! conditional triggers fire at well-defined engine points (the first
//! dispatch of a stage), so a chaos run is exactly as deterministic and
//! seed-reproducible as a plain run: the same `(submissions, config, seed,
//! policy, plan)` tuple replays the identical event sequence. An *empty*
//! plan injects nothing: every scale factor stays 1.0, which
//! [`wire_dag::Millis::scale`] returns unchanged, and no stage trigger is
//! armed, so a plain run is a run with an empty plan (the
//! `tests/golden.rs` digests pin it).
//!
//! The grammar covers the adversarial scenarios of the paper's Execute
//! phase (§III-D) that a Poisson MTBF knob cannot script precisely:
//! correlated kills, monitoring blackouts, lag jitter, transfer spikes and
//! arrival pauses. Actions are applied by the engine as follows:
//!
//! | action | engine semantics |
//! |---|---|
//! | [`KillInstance`] | the instance crashes like an MTBF failure: counted in `failures`, tasks resubmitted, started units billed. No-op unless the instance is in the `Running` state at fire time. |
//! | [`KillAllRunning`] | every `Running` instance crashes at once (correlated failure). |
//! | [`FreezeMonitoring`] | the next `ticks` MAPE ticks fire without invoking the policy; interval accumulators keep accumulating, so when monitoring thaws the policy sees everything that happened during the blackout (stale-monitoring semantics). |
//! | [`ScaleLaunchLag`] | launches planned after fire time take `launch_lag × factor` to become ready (lag jitter; `1.0` restores). |
//! | [`ScaleTransfers`] | transfer times sampled after fire time are multiplied by `factor` (spike; `1.0` restores). The RNG draw count is unchanged, so un-spiked parts of the run are unperturbed. |
//! | [`PauseArrivals`] | workflow arrivals reaching their submission time are deferred (FIFO) until a `ResumeArrivals` fires. A plan that pauses and never resumes starves the session into `RunError::TimeLimit`. |
//! | [`ResumeArrivals`] | deferred arrivals enter the session immediately, in submission order. |
//!
//! [`KillInstance`]: FaultAction::KillInstance
//! [`KillAllRunning`]: FaultAction::KillAllRunning
//! [`FreezeMonitoring`]: FaultAction::FreezeMonitoring
//! [`ScaleLaunchLag`]: FaultAction::ScaleLaunchLag
//! [`ScaleTransfers`]: FaultAction::ScaleTransfers
//! [`PauseArrivals`]: FaultAction::PauseArrivals
//! [`ResumeArrivals`]: FaultAction::ResumeArrivals

use crate::instance::InstanceId;
use serde::{Deserialize, Serialize};
use wire_dag::{Millis, StageId};

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// At an absolute simulated time. Compiled to an event on the engine's
    /// queue at run start; equal-time ties resolve in plan order (before any
    /// same-time events pushed later, per the queue's insertion-order rule).
    At(Millis),
    /// Immediately after the first task of the given *session-global* stage
    /// is dispatched ("stage s's first tick"). Fires at most once per run;
    /// never fires if the stage never dispatches.
    StageStart(StageId),
}

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Crash one instance (if currently `Running`).
    KillInstance(InstanceId),
    /// Crash every `Running` instance (correlated failure).
    KillAllRunning,
    /// Skip the policy for the next `ticks` MAPE ticks.
    FreezeMonitoring {
        /// Number of consecutive ticks the policy is not consulted.
        ticks: u32,
    },
    /// Multiply the launch lag of future launches by `factor`.
    ScaleLaunchLag {
        /// Lag multiplier (`1.1` = +10 % jitter, `1.0` restores).
        factor: f64,
    },
    /// Multiply future sampled transfer times by `factor`.
    ScaleTransfers {
        /// Transfer-time multiplier (`3.0` = spike, `1.0` restores).
        factor: f64,
    },
    /// Defer workflow arrivals until resumed.
    PauseArrivals,
    /// Release deferred arrivals (in submission order) and stop deferring.
    ResumeArrivals,
}

/// One scripted fault: a trigger plus an action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// A deterministic, scriptable fault schedule for one run.
///
/// Build with the fluent methods and hand to
/// [`Session::chaos`](crate::Session::chaos) (or
/// [`Engine::with_chaos`](crate::Engine::with_chaos)):
///
/// ```
/// use wire_simcloud::{FaultPlan, InstanceId};
/// use wire_dag::{Millis, StageId};
///
/// let plan = FaultPlan::new()
///     .kill_instance_at(Millis::from_mins(10), InstanceId(0))
///     .kill_pool_at_stage_start(StageId(2))
///     .freeze_monitoring(Millis::from_mins(12), 3)
///     .jitter_lag(Millis::from_mins(20), 0.15) // +15 % lag
///     .spike_transfers(Millis::from_mins(25), 4.0)
///     .restore_transfers(Millis::from_mins(40));
/// assert_eq!(plan.len(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (a run with it is identical to a plain run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an arbitrary fault.
    pub fn fault(mut self, trigger: FaultTrigger, action: FaultAction) -> Self {
        self.faults.push(Fault { trigger, action });
        self
    }

    /// Crash instance `id` at time `at`.
    pub fn kill_instance_at(self, at: Millis, id: InstanceId) -> Self {
        self.fault(FaultTrigger::At(at), FaultAction::KillInstance(id))
    }

    /// Crash every running instance at time `at`.
    pub fn kill_pool_at(self, at: Millis) -> Self {
        self.fault(FaultTrigger::At(at), FaultAction::KillAllRunning)
    }

    /// Crash every running instance the moment global stage `stage` first
    /// dispatches a task.
    pub fn kill_pool_at_stage_start(self, stage: StageId) -> Self {
        self.fault(FaultTrigger::StageStart(stage), FaultAction::KillAllRunning)
    }

    /// Freeze monitoring for `ticks` MAPE ticks starting at time `at`.
    pub fn freeze_monitoring(self, at: Millis, ticks: u32) -> Self {
        self.fault(
            FaultTrigger::At(at),
            FaultAction::FreezeMonitoring { ticks },
        )
    }

    /// Jitter the launch lag by `±pct` from time `at` on: positive values
    /// slow launches down (`0.15` → lag × 1.15), negative speed them up.
    pub fn jitter_lag(self, at: Millis, pct: f64) -> Self {
        self.fault(
            FaultTrigger::At(at),
            FaultAction::ScaleLaunchLag { factor: 1.0 + pct },
        )
    }

    /// Multiply transfer times by `factor` from time `at` on.
    pub fn spike_transfers(self, at: Millis, factor: f64) -> Self {
        self.fault(FaultTrigger::At(at), FaultAction::ScaleTransfers { factor })
    }

    /// Restore transfer times to the model's baseline at time `at`.
    pub fn restore_transfers(self, at: Millis) -> Self {
        self.fault(
            FaultTrigger::At(at),
            FaultAction::ScaleTransfers { factor: 1.0 },
        )
    }

    /// Defer workflow arrivals from time `at` until a resume.
    pub fn pause_arrivals(self, at: Millis) -> Self {
        self.fault(FaultTrigger::At(at), FaultAction::PauseArrivals)
    }

    /// Stop deferring arrivals at time `at` (deferred workflows enter now).
    pub fn resume_arrivals(self, at: Millis) -> Self {
        self.fault(FaultTrigger::At(at), FaultAction::ResumeArrivals)
    }

    /// The scripted faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Is this the no-op plan?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Validate the plan against a run shape: scale factors must be finite
    /// and non-negative, and freezes non-trivial. (Instance/stage ids are
    /// *not* range-checked — killing a never-launched instance is a valid
    /// no-op, mirroring real chaos tooling racing a scaled-down pool.)
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            match f.action {
                FaultAction::ScaleLaunchLag { factor } | FaultAction::ScaleTransfers { factor }
                    if !factor.is_finite() || factor < 0.0 =>
                {
                    return Err(format!("fault #{i}: scale factor {factor} out of range"));
                }
                FaultAction::FreezeMonitoring { ticks: 0 } => {
                    return Err(format!("fault #{i}: freeze of zero ticks is meaningless"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Engine-side mutable chaos state: the compiled plan plus the knobs the
/// actions steer. `ChaosState::default()` is the no-chaos state and every
/// hot-path check against it short-circuits on `plan.is_empty()` or a
/// factor of exactly `1.0`, keeping plain runs on the historical code path.
#[derive(Debug, Clone)]
pub(crate) struct ChaosState {
    pub plan: FaultPlan,
    /// Remaining MAPE ticks to skip (monitoring blackout).
    pub frozen_ticks: u32,
    /// Current launch-lag multiplier (1.0 = baseline).
    pub lag_factor: f64,
    /// Current transfer-time multiplier (1.0 = baseline).
    pub transfer_factor: f64,
    /// Are arrivals currently deferred?
    pub arrivals_paused: bool,
    /// Submission indices deferred while paused, FIFO.
    pub deferred_arrivals: Vec<u32>,
    /// Per-global-stage "first dispatch seen" marks (sized lazily).
    pub stage_started: Vec<bool>,
}

impl Default for ChaosState {
    /// The inert no-chaos state (note: scale factors default to `1.0`, not
    /// the `f64` zero).
    fn default() -> Self {
        ChaosState::with_plan(FaultPlan::new(), 0)
    }
}

impl ChaosState {
    pub fn with_plan(plan: FaultPlan, total_stages: usize) -> Self {
        ChaosState {
            stage_started: vec![false; if plan.is_empty() { 0 } else { total_stages }],
            plan,
            frozen_ticks: 0,
            lag_factor: 1.0,
            transfer_factor: 1.0,
            arrivals_paused: false,
            deferred_arrivals: Vec::new(),
        }
    }

    /// Indices of faults triggered by the first dispatch of `stage`, in plan
    /// order. Empty unless this is the stage's first dispatch.
    pub fn take_stage_faults(&mut self, stage: StageId) -> Vec<u32> {
        if self.plan.is_empty() || self.stage_started[stage.index()] {
            return Vec::new();
        }
        self.stage_started[stage.index()] = true;
        self.plan
            .faults()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.trigger == FaultTrigger::StageStart(stage))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_in_order() {
        let plan = FaultPlan::new()
            .kill_instance_at(Millis::from_mins(1), InstanceId(3))
            .pause_arrivals(Millis::from_mins(2))
            .resume_arrivals(Millis::from_mins(4));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.faults()[0].action,
            FaultAction::KillInstance(InstanceId(3))
        );
        assert_eq!(
            plan.faults()[1].trigger,
            FaultTrigger::At(Millis::from_mins(2))
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_factors_and_zero_freezes() {
        let bad = FaultPlan::new().spike_transfers(Millis::ZERO, -1.0);
        assert!(bad.validate().is_err());
        let bad = FaultPlan::new().jitter_lag(Millis::ZERO, f64::NAN);
        assert!(bad.validate().is_err());
        let bad = FaultPlan::new().freeze_monitoring(Millis::ZERO, 0);
        assert!(bad.validate().is_err());
        assert!(FaultPlan::new().validate().is_ok());
    }

    #[test]
    fn stage_faults_fire_once() {
        let plan = FaultPlan::new().kill_pool_at_stage_start(StageId(1));
        let mut st = ChaosState::with_plan(plan, 3);
        assert!(st.take_stage_faults(StageId(0)).is_empty());
        assert_eq!(st.take_stage_faults(StageId(1)), vec![0]);
        // second dispatch of the same stage fires nothing
        assert!(st.take_stage_faults(StageId(1)).is_empty());
    }

    #[test]
    fn default_state_is_inert() {
        let st = ChaosState::default();
        assert!(st.plan.is_empty());
        assert_eq!(st.frozen_ticks, 0);
        assert!(!st.arrivals_paused);
    }
}
