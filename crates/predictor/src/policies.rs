//! The five online prediction policies of §III-C, as a pure dispatch over a
//! stage's observation state.

use crate::stage_model::StageState;
use serde::{Deserialize, Serialize};
use wire_dag::Millis;

/// Which of the paper's five policies produced a prediction — kept for the
/// efficiency analysis of §IV-E and the ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// (1) no task of the stage has started.
    NoObservation,
    /// (2) running tasks only; presume they are about to complete.
    RunningMedian,
    /// (3) completions exist but the task is not ready yet.
    CompletedMedian,
    /// (4) completions exist, the task is ready and its input size matches a
    /// completed group.
    GroupMedian,
    /// (5) completions exist, the task is ready with a new input size → OGD.
    OnlineGradientDescent,
}

/// The controller's view of one not-yet-completed task at prediction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Not started and not ready (some predecessor outputs missing).
    UnstartedBlocked,
    /// Not started, all inputs available.
    UnstartedReady,
    /// Running for `age` so far.
    Running { age: Millis },
}

/// A prediction with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Estimated minimum *total* execution time of the task.
    pub exec_time: Millis,
    /// Estimated minimum *remaining* execution time (total minus age for
    /// running tasks; equals `exec_time` otherwise).
    pub remaining: Millis,
    pub policy: PolicyKind,
}

impl Prediction {
    /// The occupancy prediction of a task that has run for `age`, derived
    /// from its stage's ready-task prediction (`self`, from
    /// [`predict_task`]`(.., UnstartedReady)` with the same input bytes) and
    /// the transfer estimate.
    ///
    /// [`predict_task`] takes the same policy arm for a running task as for a
    /// ready one, so a single ready-task prediction serves every running task
    /// of a stage with those input bytes. The result equals
    /// [`crate::Predictor::predict_occupancy`]`(.., Running { age })` field
    /// for field: the transfer extends the total, not the remaining gap.
    pub fn running_occupancy(self, age: Millis, transfer: Millis) -> Prediction {
        Prediction {
            exec_time: self.exec_time + transfer,
            remaining: self.exec_time.saturating_sub(age),
            policy: self.policy,
        }
    }
}

/// Predict the execution time of one incomplete/unstarted task of a stage,
/// choosing among the five policies exactly as §III-C prescribes.
///
/// The estimate is conservative: a *minimum* — running tasks whose age already
/// exceeds the estimate are presumed to be about to complete (remaining 0).
pub fn predict_task(state: &StageState, input_bytes: u64, status: TaskStatus) -> Prediction {
    let (exec_time, policy) = if !state.has_completions() {
        if !state.has_running() {
            // Policy 1: nothing is known; the conservative minimum is zero.
            (Millis::ZERO, PolicyKind::NoObservation)
        } else {
            // Policy 2: running tasks are about to complete.
            (
                state
                    .median_running_age()
                    .expect("has_running implies an age median"),
                PolicyKind::RunningMedian,
            )
        }
    } else {
        match status {
            TaskStatus::UnstartedBlocked => (
                // Policy 3: not ready — the stage-wide completed median.
                state
                    .median_completed()
                    .expect("has_completions implies a completed median"),
                PolicyKind::CompletedMedian,
            ),
            TaskStatus::UnstartedReady | TaskStatus::Running { .. } => {
                match state.group_estimate(input_bytes) {
                    // Policy 4: a completed group with an equivalent input size.
                    Some(m) => (m, PolicyKind::GroupMedian),
                    // Policy 5: new input size — the stage's OGD model.
                    None => (
                        Millis::from_secs_f64(state.ogd().predict_secs(input_bytes as f64)),
                        PolicyKind::OnlineGradientDescent,
                    ),
                }
            }
        }
    };

    let remaining = match status {
        TaskStatus::Running { age } => {
            // Conservative minimum: if the prediction is already exceeded, the
            // task is presumed about to finish. For Policy 2 the prediction IS
            // the median age, so slower-than-median runners get remaining 0 and
            // younger ones the gap to the median — "the unstarted tasks are
            // likely to run at least as long as the active tasks have already
            // run" (§III-A).
            exec_time.saturating_sub(age)
        }
        _ => exec_time,
    };

    Prediction {
        exec_time,
        remaining,
        policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Millis {
        Millis::from_secs(s)
    }

    #[test]
    fn policy1_no_observation() {
        let s = StageState::new();
        let p = predict_task(&s, 1000, TaskStatus::UnstartedReady);
        assert_eq!(p.policy, PolicyKind::NoObservation);
        assert_eq!(p.exec_time, Millis::ZERO);
        assert_eq!(p.remaining, Millis::ZERO);
    }

    #[test]
    fn policy2_running_only() {
        let mut s = StageState::new();
        s.set_running([secs(4), secs(8)]);
        let p = predict_task(&s, 1000, TaskStatus::UnstartedReady);
        assert_eq!(p.policy, PolicyKind::RunningMedian);
        assert_eq!(p.exec_time, secs(6));

        // A running task older than the median is presumed about to complete.
        let r = predict_task(&s, 1000, TaskStatus::Running { age: secs(8) });
        assert_eq!(r.remaining, Millis::ZERO);
        // A younger running task has the gap remaining.
        let r2 = predict_task(&s, 1000, TaskStatus::Running { age: secs(2) });
        assert_eq!(r2.remaining, secs(4));
    }

    #[test]
    fn policy3_blocked_task_uses_completed_median() {
        let mut s = StageState::new();
        s.record_completion(10, secs(3));
        s.record_completion(20, secs(9));
        let p = predict_task(&s, 999_999, TaskStatus::UnstartedBlocked);
        assert_eq!(p.policy, PolicyKind::CompletedMedian);
        assert_eq!(p.exec_time, secs(6));
    }

    #[test]
    fn policy4_ready_task_with_matching_group() {
        let mut s = StageState::new();
        s.record_completion(1_000_000, secs(5));
        s.record_completion(1_000_001, secs(7));
        s.record_completion(9_000_000, secs(60));
        let p = predict_task(&s, 1_000_000, TaskStatus::UnstartedReady);
        assert_eq!(p.policy, PolicyKind::GroupMedian);
        assert_eq!(p.exec_time, secs(6));
    }

    #[test]
    fn policy5_new_size_uses_ogd() {
        let mut s = StageState::new();
        s.record_completion(1_000_000, secs(5));
        s.record_completion(2_000_000, secs(10));
        for _ in 0..1500 {
            s.update_model();
        }
        let p = predict_task(&s, 1_500_000, TaskStatus::UnstartedReady);
        assert_eq!(p.policy, PolicyKind::OnlineGradientDescent);
        let est = p.exec_time.as_secs_f64();
        assert!((est - 7.5).abs() < 0.3, "got {est}");
    }

    #[test]
    fn running_task_with_completions_uses_group_for_total() {
        let mut s = StageState::new();
        s.record_completion(500, secs(10));
        s.record_completion(500, secs(10));
        let p = predict_task(&s, 500, TaskStatus::Running { age: secs(4) });
        assert_eq!(p.policy, PolicyKind::GroupMedian);
        assert_eq!(p.exec_time, secs(10));
        assert_eq!(p.remaining, secs(6));
    }
}
