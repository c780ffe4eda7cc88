//! The whole-workflow predictor: per-stage state + transfer estimator, driven
//! once per MAPE interval by the Monitor phase.

use crate::policies::{predict_task, Prediction, TaskStatus};
use crate::stage_model::StageState;
use crate::transfer::TransferEstimator;
use wire_dag::{Millis, StageId, TaskId, Workflow};

/// A task completion observed during the last interval.
#[derive(Debug, Clone, Copy)]
pub struct CompletedTaskObs {
    pub task: TaskId,
    pub input_bytes: u64,
    pub exec_time: Millis,
}

/// A task currently running at the end of the interval.
#[derive(Debug, Clone, Copy)]
pub struct RunningTaskObs {
    pub task: TaskId,
    pub input_bytes: u64,
    /// Time the task has been executing so far.
    pub age: Millis,
}

/// Per-stage monitoring data for one interval.
#[derive(Debug, Clone, Default)]
pub struct StageIntervalObs {
    /// Tasks of this stage that completed *since the previous interval*.
    pub completed: Vec<CompletedTaskObs>,
    /// Tasks of this stage currently running (full snapshot).
    pub running: Vec<RunningTaskObs>,
}

/// Monitoring data harvested for one MAPE interval (§III-B1: the task
/// predictor "harvests measurements from the previous interval").
#[derive(Debug, Clone, Default)]
pub struct IntervalObservations {
    /// Indexed by stage id.
    pub per_stage: Vec<StageIntervalObs>,
    /// Data-transfer durations completed during the interval (any stage).
    pub transfers: Vec<Millis>,
    /// Stage ids touched since the last [`IntervalObservations::begin_interval`],
    /// deduplicated. `Some` only after [`IntervalObservations::enable_sparse`];
    /// `None` means the owner fills `per_stage` by hand and every stage must
    /// be treated as potentially touched (the historical dense contract).
    dirty: Option<Vec<u32>>,
}

impl IntervalObservations {
    pub fn empty_for(wf: &Workflow) -> Self {
        Self::with_stages(wf.num_stages())
    }

    /// An empty observation set over `num_stages` stages — the multi-workflow
    /// form of [`IntervalObservations::empty_for`], sized to a session's
    /// global stage space.
    pub fn with_stages(num_stages: usize) -> Self {
        IntervalObservations {
            per_stage: vec![StageIntervalObs::default(); num_stages],
            transfers: Vec::new(),
            dirty: None,
        }
    }

    /// Grow the per-stage vector to at least `num_stages` entries (new
    /// workflows arriving mid-session extend the global stage space; existing
    /// stage indices are stable so learned state is unaffected).
    pub fn ensure_stages(&mut self, num_stages: usize) {
        if self.per_stage.len() < num_stages {
            self.per_stage
                .resize(num_stages, StageIntervalObs::default());
        }
    }

    /// Opt into touched-stage tracking: thereafter, as long as entries are
    /// filled through [`IntervalObservations::push_completed`] /
    /// [`IntervalObservations::push_running`] and reset through
    /// [`IntervalObservations::begin_interval`], the observation set knows
    /// exactly which stages carry data, and
    /// [`Predictor::observe_interval`] advances only those plus the stages
    /// still converging — instead of every stage a long-lived session has
    /// ever seen.
    pub fn enable_sparse(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(
                self.per_stage
                    .iter()
                    .enumerate()
                    .filter(|(_, so)| !so.completed.is_empty() || !so.running.is_empty())
                    .map(|(i, _)| i as u32)
                    .collect(),
            );
        }
    }

    /// Reset for a new interval: clear the transfer list and exactly the
    /// per-stage entries that carry data — the touched list when tracking,
    /// every entry otherwise.
    pub fn begin_interval(&mut self) {
        match self.dirty.take() {
            Some(mut dirty) => {
                for &s in &dirty {
                    let so = &mut self.per_stage[s as usize];
                    so.completed.clear();
                    so.running.clear();
                }
                dirty.clear();
                self.dirty = Some(dirty);
            }
            None => {
                for so in &mut self.per_stage {
                    so.completed.clear();
                    so.running.clear();
                }
            }
        }
        self.transfers.clear();
    }

    fn mark(&mut self, stage: usize) {
        if let Some(dirty) = &mut self.dirty {
            let so = &self.per_stage[stage];
            if so.completed.is_empty() && so.running.is_empty() {
                dirty.push(stage as u32);
            }
        }
    }

    /// Record a completion for `stage`, keeping the touched list exact.
    pub fn push_completed(&mut self, stage: usize, obs: CompletedTaskObs) {
        self.mark(stage);
        self.per_stage[stage].completed.push(obs);
    }

    /// Record a running task for `stage`, keeping the touched list exact.
    pub fn push_running(&mut self, stage: usize, obs: RunningTaskObs) {
        self.mark(stage);
        self.per_stage[stage].running.push(obs);
    }

    /// The stages touched this interval, when tracking is enabled. `None`
    /// means "unknown — assume all".
    pub fn dirty_stages(&self) -> Option<&[u32]> {
        self.dirty.as_deref()
    }
}

/// The WIRE task predictor (§III-B1): one [`StageState`] per stage and a
/// memoryless transfer estimator.
///
/// ```
/// use wire_dag::{Millis, TaskId, WorkflowBuilder};
/// use wire_predictor::{
///     CompletedTaskObs, IntervalObservations, PolicyKind, Predictor, TaskStatus,
/// };
///
/// let mut b = WorkflowBuilder::new("doc");
/// let s = b.add_stage("map");
/// let t0 = b.add_task(s, 1_000, 100);
/// let _t1 = b.add_task(s, 1_000, 100);
/// let wf = b.build().unwrap();
///
/// let mut p = Predictor::new(&wf);
/// let mut obs = IntervalObservations::empty_for(&wf);
/// obs.per_stage[0].completed.push(CompletedTaskObs {
///     task: t0,
///     input_bytes: 1_000,
///     exec_time: Millis::from_secs(9),
/// });
/// p.observe_interval(&obs);
///
/// // the peer task now predicts via the completed group (Policy 4)
/// let pred = p.predict_task(s, 1_000, TaskStatus::UnstartedReady);
/// assert_eq!(pred.policy, PolicyKind::GroupMedian);
/// assert_eq!(pred.exec_time, Millis::from_secs(9));
/// ```
#[derive(Debug, Clone)]
pub struct Predictor {
    stages: Vec<StageState>,
    estimator: crate::estimators::Estimator,
    transfer: TransferEstimator,
    intervals_seen: u64,
    observations: u64,
    /// Stage ids still advanced every interval. A stage leaves this list when
    /// [`StageState::is_settled`] proves further empty-observation intervals
    /// are no-ops, and rejoins the moment an observation names it. Order is
    /// irrelevant: per-stage updates touch disjoint state.
    awake: Vec<u32>,
    /// `dormant[i]` ⇔ stage `i` is *not* in `awake`.
    dormant: Vec<bool>,
    /// Stages below this id are retired ([`Predictor::retire_stages_below`]):
    /// the owner has promised their estimates will never be read again, so
    /// the sparse path stops converging their models once their observations
    /// run dry.
    retired_prefix: usize,
}

impl Predictor {
    pub fn new(wf: &Workflow) -> Self {
        Self::with_estimator(wf, crate::estimators::Estimator::Median)
    }

    /// A predictor whose stage summaries use an alternative central-tendency
    /// estimator (§III-C median/mean/three-sigma comparison).
    pub fn with_estimator(wf: &Workflow, estimator: crate::estimators::Estimator) -> Self {
        Self::with_stage_count(wf.num_stages(), estimator)
    }

    /// A predictor over an explicit stage-id space — the multi-workflow form
    /// of [`Predictor::new`], sized to a session's global stage count.
    pub fn with_stage_count(num_stages: usize, estimator: crate::estimators::Estimator) -> Self {
        Predictor {
            stages: (0..num_stages)
                .map(|_| StageState::with_estimator(estimator))
                .collect(),
            estimator,
            transfer: TransferEstimator::default(),
            intervals_seen: 0,
            observations: 0,
            awake: (0..num_stages as u32).collect(),
            dormant: vec![false; num_stages],
            retired_prefix: 0,
        }
    }

    /// Grow the stage space to at least `num_stages` (workflows arriving
    /// mid-session append stages; existing per-stage learning state is kept).
    pub fn ensure_stages(&mut self, num_stages: usize) {
        while self.stages.len() < num_stages {
            self.awake.push(self.stages.len() as u32);
            self.dormant.push(false);
            self.stages.push(StageState::with_estimator(self.estimator));
        }
    }

    /// Promise that no estimate of any stage below `stage_watermark` will be
    /// read again (every task of those stages is permanently done). The
    /// sparse observation path then drops such a stage from the per-interval
    /// advance as soon as its observations run dry, even mid-convergence:
    /// with no future reads of its predictions or version stamps, the
    /// skipped gradient steps are unobservable. The dense path ignores
    /// retirement — the historical baseline keeps its full iteration.
    pub fn retire_stages_below(&mut self, stage_watermark: usize) {
        let w = stage_watermark.min(self.stages.len());
        self.retired_prefix = self.retired_prefix.max(w);
    }

    /// Withdraw every retirement promise and wake all stages — for owners
    /// that reuse a predictor across runs where previously-done stages come
    /// back to life. Settled stages re-settle after one interval.
    pub fn reset_retirement(&mut self) {
        self.retired_prefix = 0;
        self.awake.clear();
        self.awake.extend(0..self.stages.len() as u32);
        self.dormant.iter_mut().for_each(|d| *d = false);
    }

    /// Advance one stage through one interval of observations.
    fn observe_stage(state: &mut StageState, so: &StageIntervalObs, observations: &mut u64) {
        for c in &so.completed {
            state.record_completion(c.input_bytes, c.exec_time);
        }
        *observations += so.completed.len() as u64;
        // reverse snapshot order: a FIFO stage lists its oldest tasks first,
        // so reversed its ages arrive ascending and the window's sort is a
        // linear check
        state.set_running(so.running.iter().rev().map(|r| r.age));
        state.update_model();
    }

    /// Analyze phase: ingest one interval of monitoring data and advance the
    /// stages' learning models by one Algorithm-1 step.
    ///
    /// When `obs` tracks its touched stages
    /// ([`IntervalObservations::enable_sparse`]), only the touched stages and
    /// the stages still converging are advanced; stages proven settled
    /// ([`StageState::is_settled`]) are skipped, with state, versions and
    /// predictions bit-identical to advancing every stage. Without tracking,
    /// every stage is advanced, as always.
    pub fn observe_interval(&mut self, obs: &IntervalObservations) {
        assert_eq!(
            obs.per_stage.len(),
            self.stages.len(),
            "observation shape must match the workflow"
        );
        match obs.dirty_stages() {
            Some(dirty) => {
                for &s in dirty {
                    if self.dormant[s as usize] {
                        self.dormant[s as usize] = false;
                        self.awake.push(s);
                    }
                }
                let mut k = 0;
                while k < self.awake.len() {
                    let i = self.awake[k] as usize;
                    let so = &obs.per_stage[i];
                    if i < self.retired_prefix && so.completed.is_empty() && so.running.is_empty() {
                        // retired and silent: its estimates are contractually
                        // unread from here on, so stop converging its model
                        self.dormant[i] = true;
                        self.awake.swap_remove(k);
                        continue;
                    }
                    Self::observe_stage(
                        &mut self.stages[i],
                        &obs.per_stage[i],
                        &mut self.observations,
                    );
                    if self.stages[i].is_settled() {
                        self.dormant[i] = true;
                        self.awake.swap_remove(k);
                    } else {
                        k += 1;
                    }
                }
            }
            None => {
                self.awake.clear();
                for (i, (state, so)) in self.stages.iter_mut().zip(&obs.per_stage).enumerate() {
                    Self::observe_stage(state, so, &mut self.observations);
                    let settled = state.is_settled();
                    self.dormant[i] = settled;
                    if !settled {
                        self.awake.push(i as u32);
                    }
                }
            }
        }
        self.transfer.push_interval(&obs.transfers);
        self.intervals_seen += 1;
    }

    /// Predict the minimum execution time of one incomplete/unstarted task.
    pub fn predict_task(&self, stage: StageId, input_bytes: u64, status: TaskStatus) -> Prediction {
        predict_task(&self.stages[stage.index()], input_bytes, status)
    }

    /// Predicted minimum *slot occupancy* = exec estimate + transfer estimate
    /// (a task occupies its slot for execution plus input/output transfer,
    /// §III-B1).
    pub fn predict_occupancy(
        &self,
        stage: StageId,
        input_bytes: u64,
        status: TaskStatus,
    ) -> Prediction {
        let mut p = self.predict_task(stage, input_bytes, status);
        let t = self.transfer.estimate();
        p.exec_time += t;
        // Remaining occupancy: for running tasks the transfer is already under
        // way or done, so only extend un-elapsed estimates; keep conservatism
        // by adding the transfer to the remaining gap as well only for
        // unstarted tasks.
        if !matches!(status, TaskStatus::Running { .. }) {
            p.remaining += t;
        }
        p
    }

    /// `t̃_data` — the current transfer-time estimate.
    pub fn transfer_estimate(&self) -> Millis {
        self.transfer.estimate()
    }

    /// Memoization stamp of the transfer estimate: unchanged as long as
    /// [`Predictor::transfer_estimate`] keeps returning the same value.
    pub fn transfer_version(&self) -> u64 {
        self.transfer.version()
    }

    pub fn stage_state(&self, stage: StageId) -> &StageState {
        &self.stages[stage.index()]
    }

    pub fn intervals_seen(&self) -> u64 {
        self.intervals_seen
    }

    /// Lifetime count of completed-task observations ingested through
    /// [`Predictor::observe_interval`] — the observability layer's
    /// predictor-intake health metric.
    pub fn observations_ingested(&self) -> u64 {
        self.observations
    }

    /// Approximate controller state size in bytes (§IV-F overhead report).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .stages
                .iter()
                .map(StageState::state_bytes)
                .sum::<usize>()
            + self.transfer.num_observations() * std::mem::size_of::<Millis>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::PolicyKind;
    use wire_dag::WorkflowBuilder;

    fn two_stage_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        let s0 = b.add_stage("map");
        let s1 = b.add_stage("reduce");
        let m0 = b.add_task(s0, 100, 10);
        let m1 = b.add_task(s0, 100, 10);
        let r0 = b.add_task(s1, 20, 5);
        b.add_dep(m0, r0).unwrap();
        b.add_dep(m1, r0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fresh_predictor_gives_policy1_everywhere() {
        let wf = two_stage_workflow();
        let p = Predictor::new(&wf);
        let pr = p.predict_task(StageId(0), 100, TaskStatus::UnstartedReady);
        assert_eq!(pr.policy, PolicyKind::NoObservation);
        assert_eq!(p.transfer_estimate(), Millis::ZERO);
    }

    #[test]
    fn interval_flow_updates_policies() {
        let wf = two_stage_workflow();
        let mut p = Predictor::new(&wf);
        let mut obs = IntervalObservations::empty_for(&wf);
        obs.per_stage[0].completed.push(CompletedTaskObs {
            task: TaskId(0),
            input_bytes: 100,
            exec_time: Millis::from_secs(10),
        });
        obs.per_stage[0].running.push(RunningTaskObs {
            task: TaskId(1),
            input_bytes: 100,
            age: Millis::from_secs(4),
        });
        obs.transfers.push(Millis::from_secs(2));
        p.observe_interval(&obs);

        // stage 0 now predicts via the completed group for ready tasks
        let pr = p.predict_task(StageId(0), 100, TaskStatus::UnstartedReady);
        assert_eq!(pr.policy, PolicyKind::GroupMedian);
        assert_eq!(pr.exec_time, Millis::from_secs(10));

        // stage 1 has nothing: policy 1
        let pr1 = p.predict_task(StageId(1), 20, TaskStatus::UnstartedBlocked);
        assert_eq!(pr1.policy, PolicyKind::NoObservation);

        // occupancy adds the transfer estimate
        let occ = p.predict_occupancy(StageId(0), 100, TaskStatus::UnstartedReady);
        assert_eq!(occ.exec_time, Millis::from_secs(12));
        assert_eq!(occ.remaining, Millis::from_secs(12));
        assert_eq!(p.transfer_estimate(), Millis::from_secs(2));
        assert_eq!(p.intervals_seen(), 1);
    }

    #[test]
    fn running_occupancy_does_not_double_count_transfer() {
        let wf = two_stage_workflow();
        let mut p = Predictor::new(&wf);
        let mut obs = IntervalObservations::empty_for(&wf);
        obs.per_stage[0].completed.push(CompletedTaskObs {
            task: TaskId(0),
            input_bytes: 100,
            exec_time: Millis::from_secs(10),
        });
        obs.transfers.push(Millis::from_secs(3));
        p.observe_interval(&obs);
        let occ = p.predict_occupancy(
            StageId(0),
            100,
            TaskStatus::Running {
                age: Millis::from_secs(4),
            },
        );
        // total occupancy estimate includes the transfer, remaining does not
        assert_eq!(occ.exec_time, Millis::from_secs(13));
        assert_eq!(occ.remaining, Millis::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "observation shape")]
    fn mismatched_observation_shape_panics() {
        let wf = two_stage_workflow();
        let mut p = Predictor::new(&wf);
        let obs = IntervalObservations {
            per_stage: vec![StageIntervalObs::default()],
            ..Default::default()
        };
        p.observe_interval(&obs);
    }

    #[test]
    fn state_bytes_stays_small() {
        // §IV-F reports ≤ 16 KB for real runs; sanity-check the same order of
        // magnitude for a thousand observations.
        let wf = two_stage_workflow();
        let mut p = Predictor::new(&wf);
        let mut obs = IntervalObservations::empty_for(&wf);
        for i in 0..1000u64 {
            obs.per_stage[0].completed.push(CompletedTaskObs {
                task: TaskId(0),
                input_bytes: 100,
                exec_time: Millis::from_ms(1000 + i),
            });
        }
        p.observe_interval(&obs);
        assert!(p.state_bytes() < 64 * 1024, "{} bytes", p.state_bytes());
    }
}
