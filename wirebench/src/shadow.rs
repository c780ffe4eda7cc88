//! The shadow controller: WIRE's Monitor → Analyze → Plan step rebuilt
//! from the planner's and predictor's public calls, timed phase by phase.
//!
//! `WirePolicy::plan` is one opaque call. The shadow runs the same steps on
//! the same snapshot with its own predictor state — observation intake and
//! `Predictor::observe_interval`, `predict_occupancy` per incomplete task
//! (memoized exactly as the policy memoizes), `lookahead_into`, `steer` —
//! so each phase can be timed on its own. It mirrors
//! `wire_planner::WirePolicy` with no decision journal and no family
//! steering; its plan must equal the real policy's on every tick, and the
//! traced run fails when it does not, so the split cannot silently drift
//! from what the controller does.

use std::time::Instant;

use wire_dag::{Millis, TaskId};
use wire_planner::{lookahead_into, steer, LookaheadScratch, SteeringConfig};
use wire_predictor::{
    CompletedTaskObs, Estimator, IntervalObservations, PolicyKind, Predictor, RunningTaskObs,
    StageVersions, TaskStatus,
};
use wire_simcloud::{MonitorSnapshot, PoolPlan, TaskView};

use crate::trace::ShadowSpans;

/// A memoized unstarted-task prediction and the version stamps it read.
#[derive(Debug, Clone, Copy)]
struct Memo {
    stage: StageVersions,
    transfer_version: u64,
    /// 0 = blocked, 1 = ready.
    status: u8,
    remaining: Millis,
    value: Millis,
    policy: PolicyKind,
}

impl Memo {
    fn valid_for(&self, stage: StageVersions, transfer_version: u64, status: u8) -> bool {
        if self.status != status
            || self.transfer_version != transfer_version
            || self.stage.completions != stage.completions
        {
            return false;
        }
        match self.policy {
            PolicyKind::NoObservation | PolicyKind::RunningMedian => {
                self.stage.running == stage.running
            }
            PolicyKind::CompletedMedian | PolicyKind::GroupMedian => true,
            PolicyKind::OnlineGradientDescent => self.stage.model == stage.model,
        }
    }
}

pub struct Shadow {
    steering: SteeringConfig,
    predictor: Option<Predictor>,
    obs: Option<IntervalObservations>,
    remaining: Vec<Millis>,
    values: Vec<Millis>,
    memo: Vec<Option<Memo>>,
    done_seen: usize,
    retired_slots: usize,
    lookahead: LookaheadScratch,
}

impl Shadow {
    /// A shadow for a `WirePolicy` with `steering`. Family steering is not
    /// mirrored: under it the plans differ and the traced run fails.
    pub fn new(steering: SteeringConfig) -> Self {
        Shadow {
            steering,
            predictor: None,
            obs: None,
            remaining: Vec::new(),
            values: Vec::new(),
            memo: Vec::new(),
            done_seen: 0,
            retired_slots: 0,
            lookahead: LookaheadScratch::default(),
        }
    }

    /// Plan one tick, adding each phase's duration to `spans`.
    pub fn plan(&mut self, snapshot: &MonitorSnapshot<'_>, spans: &mut ShadowSpans) -> PoolPlan {
        let t0 = Instant::now();
        let total_stages = snapshot.total_stages();
        let predictor = self
            .predictor
            .get_or_insert_with(|| Predictor::with_stage_count(total_stages, Estimator::Median));
        predictor.ensure_stages(total_stages);
        let obs = self
            .obs
            .get_or_insert_with(|| IntervalObservations::with_stages(total_stages));
        fill_observations(obs, snapshot);
        predictor.observe_interval(obs);
        let t1 = Instant::now();

        let n = snapshot.tasks.len();
        if self.remaining.len() > n {
            self.remaining.clear();
            self.values.clear();
            self.memo.clear();
            self.done_seen = 0;
            self.retired_slots = 0;
            predictor.reset_retirement();
        }
        if self.remaining.len() < n {
            self.remaining.resize(n, Millis::ZERO);
            self.values.resize(n, Millis::ZERO);
            self.memo.resize(n, None);
        }
        let dp = snapshot.done_prefix.min(n);
        if dp < self.done_seen {
            self.done_seen = dp;
            self.retired_slots = 0;
            predictor.reset_retirement();
        }
        for i in self.done_seen..dp {
            self.remaining[i] = Millis::ZERO;
            self.values[i] = Millis::ZERO;
            self.memo[i] = None;
        }
        self.done_seen = dp;
        while self.retired_slots < snapshot.workflows.len() {
            let slot = &snapshot.workflows[self.retired_slots];
            if slot.task_base as usize + slot.num_tasks() > dp {
                break;
            }
            predictor.retire_stages_below(slot.stage_base as usize + slot.workflow.num_stages());
            self.retired_slots += 1;
        }
        let transfer_version = predictor.transfer_version();
        let mut predict_calls = 0u64;
        for (i, tv) in snapshot.tasks.iter().enumerate().skip(dp) {
            let task = TaskId(i as u32);
            let status = match *tv {
                TaskView::Done { .. } => {
                    self.remaining[i] = Millis::ZERO;
                    self.values[i] = Millis::ZERO;
                    self.memo[i] = None;
                    continue;
                }
                TaskView::Unready => TaskStatus::UnstartedBlocked,
                TaskView::Ready => TaskStatus::UnstartedReady,
                TaskView::Running { exec_age, .. } => TaskStatus::Running { age: exec_age },
            };
            let input_bytes = snapshot.spec(task).input_bytes;
            let stage = snapshot.stage_of(task);
            let (remaining, value) = if matches!(status, TaskStatus::Running { .. }) {
                predict_calls += 1;
                let p = predictor.predict_occupancy(stage, input_bytes, status);
                self.memo[i] = None;
                (p.remaining, p.exec_time)
            } else {
                let versions = predictor.stage_state(stage).versions();
                let code = matches!(status, TaskStatus::UnstartedReady) as u8;
                match self.memo[i].filter(|e| e.valid_for(versions, transfer_version, code)) {
                    Some(e) => (e.remaining, e.value),
                    None => {
                        predict_calls += 1;
                        let p = predictor.predict_occupancy(stage, input_bytes, status);
                        self.memo[i] = Some(Memo {
                            stage: versions,
                            transfer_version,
                            status: code,
                            remaining: p.remaining,
                            value: p.exec_time,
                            policy: p.policy,
                        });
                        (p.remaining, p.exec_time)
                    }
                }
            };
            self.remaining[i] = remaining;
            self.values[i] = value;
        }
        let t2 = Instant::now();

        let up = lookahead_into(
            &mut self.lookahead,
            snapshot,
            &self.remaining,
            &self.values,
            snapshot.config.mape_interval,
        );
        let t3 = Instant::now();
        let plan = steer(
            snapshot,
            up.occupancies(),
            &up.restart_cost,
            &up.projected_busy,
            self.steering,
        );
        let t4 = Instant::now();

        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        spans.observe.add(ns(t0, t1));
        spans.predict.add(ns(t1, t2));
        spans.predict_calls += predict_calls;
        spans.lookahead.add(ns(t2, t3));
        spans.steer.add(ns(t3, t4));
        plan
    }
}

/// The policy's Monitor step: translate the snapshot into the predictor's
/// observation format, reusing `obs`'s buffers.
fn fill_observations(obs: &mut IntervalObservations, snapshot: &MonitorSnapshot<'_>) {
    obs.ensure_stages(snapshot.total_stages());
    if !snapshot.naive {
        obs.enable_sparse();
    }
    obs.begin_interval();
    for c in snapshot.new_completions {
        let stage = snapshot.stage_of(c.task);
        obs.push_completed(
            stage.index(),
            CompletedTaskObs {
                task: c.task,
                input_bytes: c.input_bytes,
                exec_time: c.exec_time,
            },
        );
    }
    for (i, tv) in snapshot.tasks.iter().enumerate().skip(snapshot.done_prefix) {
        if let TaskView::Running { exec_age, .. } = *tv {
            let task = TaskId(i as u32);
            obs.push_running(
                snapshot.stage_of(task).index(),
                RunningTaskObs {
                    task,
                    input_bytes: snapshot.spec(task).input_bytes,
                    age: exec_age,
                },
            );
        }
    }
    obs.transfers.extend_from_slice(snapshot.interval_transfers);
}
