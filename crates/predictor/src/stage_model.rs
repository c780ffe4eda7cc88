//! Per-stage observation store and learning state.
//!
//! For each stage the predictor keeps: the completed tasks grouped by input
//! size (the groups `L`/`M` of Policy 4 and Algorithm 1), the overall median of
//! completed execution times (Policy 3), the current running-task ages
//! (Policy 2), and the stage's OGD model (Policy 5).

use crate::estimators::Estimator;
use crate::median::MedianAcc;
use crate::moving::IntervalMedian;
use crate::ogd::{OgdModel, TrainPoint};
use wire_dag::Millis;

/// Intervals of running-age observations retained for the Policy-2 moving
/// median (§III-C design goal 2: combine short- and long-term information to
/// avoid oscillations).
pub const RUNNING_AGE_WINDOW: usize = 8;

/// Relative tolerance for treating two input sizes as "equivalent" when
/// forming Policy-4 groups. The paper speaks of tasks whose input size "is
/// equivalent to the input size of a group of completed tasks"; real task
/// inputs from a splitter differ by a few bytes, so exact equality is too
/// brittle.
pub const SIZE_GROUP_TOLERANCE: f64 = 0.01;

/// A group of completed tasks sharing (approximately) one input size.
///
/// Times are kept in an incremental sorted accumulator: the controller asks
/// for the group median once per incomplete task per MAPE iteration, so the
/// summary must be O(1) to read (a naive re-sort per query turns a
/// 1000-task stage into an O(N² log N)-per-tick controller).
#[derive(Debug, Clone)]
pub struct SizeGroup {
    /// Representative input size (size of the first member), in bytes.
    pub rep_bytes: u64,
    /// Execution times of the group's completed members, sorted.
    times: MedianAcc,
}

impl SizeGroup {
    fn new(rep_bytes: u64, first: Millis) -> Self {
        let mut times = MedianAcc::new();
        times.push(first);
        SizeGroup { rep_bytes, times }
    }

    /// Does `bytes` fall in this group (within the relative tolerance)?
    pub fn matches(&self, bytes: u64) -> bool {
        let rep = self.rep_bytes as f64;
        let b = bytes as f64;
        if self.rep_bytes == bytes {
            return true;
        }
        let denom = rep.max(b).max(1.0);
        (rep - b).abs() / denom <= SIZE_GROUP_TOLERANCE
    }

    /// Median execution time `t̃_L` of the group.
    pub fn median(&self) -> Option<Millis> {
        self.times.median()
    }

    /// `t̃_L` under an alternative estimator (ablation studies).
    pub fn central(&self, estimator: Estimator) -> Option<Millis> {
        match estimator {
            Estimator::Median => self.times.median(),
            other => {
                let vals: Vec<Millis> = self
                    .times
                    .sorted_ms()
                    .iter()
                    .map(|&ms| Millis::from_ms(ms))
                    .collect();
                other.central(&vals)
            }
        }
    }

    /// Number of completed members.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.times.state_bytes()
    }
}

/// Monotonic change stamps for one stage's prediction inputs, grouped by
/// which of the five policies reads them. Consumers memoize per-task
/// predictions against these: a cached estimate stays valid while every
/// stamp its policy actually read is unchanged (plus the transfer
/// estimator's own version).
///
/// * Policies 1/2 read `completions` (the has-completions branch) and
///   `running` (the Policy-2 age estimate).
/// * Policies 3/4 read `completions` only (stage-wide and per-group
///   medians change exclusively via [`StageState::record_completion`]).
/// * Policy 5 reads `completions` (group-match test) and `model`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageVersions {
    /// Bumped on every recorded completion: group membership, group medians,
    /// the stage-wide median and `has_completions` may all have changed.
    pub completions: u64,
    /// Bumped when the cached Policy-2 running-age estimate or
    /// `has_running` changes.
    pub running: u64,
    /// Bumped when an Algorithm-1 step actually moves the OGD model's
    /// prediction parameters.
    pub model: u64,
}

/// All observation state the predictor holds for one stage.
#[derive(Debug, Clone, Default)]
pub struct StageState {
    /// Number of tasks of the stage that have completed.
    completed_count: usize,
    /// Completed tasks grouped by (approximate) input size.
    groups: Vec<SizeGroup>,
    /// Median accumulator over *all* completed execution times (Policy 3).
    all_completed: MedianAcc,
    /// Number of tasks running at the last interval.
    running_count: usize,
    /// Cached Policy-2 estimate, refreshed by [`StageState::set_running`].
    cached_running_age: Option<Millis>,
    /// Alternative central-tendency estimator (§III-C compares the median
    /// against the mean and the three-sigma rule; the default is the paper's
    /// median).
    estimator: Estimator,
    /// Moving median of running-task ages over recent intervals. Without it,
    /// a batch of freshly dispatched tasks (age ≈ 0) on newly launched
    /// instances collapses the Policy-2 estimate, which collapses the
    /// predicted load, which triggers mass releases — the oscillation the
    /// paper's design goal (2) explicitly smooths away.
    age_history: Option<IntervalMedian>,
    /// The stage's online gradient descent model (Policy 5).
    ogd: OgdModel,
    /// Change stamps for memoizing per-task predictions.
    versions: StageVersions,
    /// Recycled per-interval buffers (running ages, OGD training set).
    age_scratch: Vec<Millis>,
    train_scratch: Vec<TrainPoint>,
    /// Whether the training set changed since the last Algorithm-1 step that
    /// left the OGD parameters in place. `false` means the model sits at a
    /// numerical fixed point: the gradient step is deterministic in
    /// `(params, training)`, so re-running it without new completions cannot
    /// move the parameters again. Part of the [`StageState::is_settled`]
    /// contract.
    model_dirty: bool,
}

impl StageState {
    pub fn new() -> Self {
        Self::default()
    }

    /// A stage state summarizing observations with `estimator` instead of the
    /// default median (for the §III-C estimator-choice ablation).
    pub fn with_estimator(estimator: Estimator) -> Self {
        StageState {
            estimator,
            ..Self::default()
        }
    }

    pub fn estimator(&self) -> Estimator {
        self.estimator
    }

    /// Record a newly completed task.
    pub fn record_completion(&mut self, input_bytes: u64, exec: Millis) {
        self.completed_count += 1;
        self.all_completed.push(exec);
        match self.groups.iter_mut().find(|g| g.matches(input_bytes)) {
            Some(g) => g.times.push(exec),
            None => self.groups.push(SizeGroup::new(input_bytes, exec)),
        }
        self.versions.completions += 1;
        self.model_dirty = true;
    }

    /// Replace the running-task snapshot for the current interval with the
    /// ages of the tasks running now, feeding them into the moving-median
    /// window. The window sorts the batch, so ages fed in ascending order
    /// cost one linear pass.
    pub fn set_running<I>(&mut self, ages: I)
    where
        I: IntoIterator<Item = Millis>,
    {
        let was_running = self.running_count > 0;
        let old_estimate = self.cached_running_age;
        let mut batch = std::mem::take(&mut self.age_scratch);
        batch.clear();
        batch.extend(ages);
        self.running_count = batch.len();
        let history = self
            .age_history
            .get_or_insert_with(|| IntervalMedian::new(RUNNING_AGE_WINDOW));
        if let Some(evicted) = history.push_interval(batch) {
            self.age_scratch = evicted;
        }
        // cache the Policy-2 estimate once per interval: the controller reads
        // it once per incomplete task, and recomputing medians over the window
        // per read makes wide stages quadratic
        let current = history.newest_median();
        let windowed = history.window_median();
        self.cached_running_age = match (current, windowed) {
            (Some(c), Some(w)) => Some(c.max(w)),
            (c, w) => c.or(w).filter(|_| current.is_some()),
        };
        if self.cached_running_age != old_estimate || (self.running_count > 0) != was_running {
            self.versions.running += 1;
        }
    }

    /// One Algorithm-1 gradient step over the current per-group training set.
    pub fn update_model(&mut self) {
        let mut training = std::mem::take(&mut self.train_scratch);
        training.clear();
        training.extend(self.groups.iter().filter_map(|g| {
            g.median().map(|t| TrainPoint {
                input_bytes: g.rep_bytes as f64,
                exec_secs: t.as_secs_f64(),
            })
        }));
        let before = self.ogd.prediction_params();
        self.ogd.update(&training);
        let moved = self.ogd.prediction_params() != before;
        if moved {
            self.versions.model += 1;
        }
        self.model_dirty = moved;
        self.train_scratch = training;
    }

    /// The stage's memoization stamps (see [`StageVersions`]).
    pub fn versions(&self) -> StageVersions {
        self.versions
    }

    pub fn has_completions(&self) -> bool {
        self.completed_count > 0
    }

    pub fn has_running(&self) -> bool {
        self.running_count > 0
    }

    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Central execution time of all completed tasks (`t̃_complete`,
    /// Policy 3) under the configured estimator.
    pub fn median_completed(&self) -> Option<Millis> {
        match self.estimator {
            Estimator::Median => self.all_completed.median(),
            other => {
                let vals: Vec<Millis> = self
                    .all_completed
                    .sorted_ms()
                    .iter()
                    .map(|&ms| Millis::from_ms(ms))
                    .collect();
                other.central(&vals)
            }
        }
    }

    /// `t̃_run` for Policy 2: the *conservative* combination of the current
    /// interval's median running age and the moving median over the recent
    /// window — unstarted tasks "are likely to run at least as long as the
    /// active tasks have already run" (§III-A), so the estimate must not
    /// collapse when a burst of fresh dispatches drags the instantaneous
    /// median toward zero.
    pub fn median_running_age(&self) -> Option<Millis> {
        self.cached_running_age
    }

    /// Policy 4 lookup: the group whose input size matches `bytes`.
    pub fn group_for(&self, bytes: u64) -> Option<&SizeGroup> {
        self.groups.iter().find(|g| g.matches(bytes))
    }

    /// Policy 4 group estimate under the configured estimator.
    pub fn group_estimate(&self, bytes: u64) -> Option<Millis> {
        self.group_for(bytes)
            .and_then(|g| g.central(self.estimator))
    }

    pub fn ogd(&self) -> &OgdModel {
        &self.ogd
    }

    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether advancing this stage through another interval with *empty*
    /// observations is a provable no-op, so the per-interval calls may be
    /// skipped entirely until a completion or running task shows up again:
    ///
    /// * no task is running and the cached Policy-2 estimate is already
    ///   `None`, so `set_running(empty)` changes neither and bumps no
    ///   version;
    /// * the running-age window holds no observations — pushing further
    ///   empty intervals into it evicts only empties, leaving every median
    ///   query (and the window itself, observationally) unchanged;
    /// * the OGD model is at a fixed point for the current training set
    ///   (`!model_dirty`), so another gradient step cannot move the
    ///   parameters or bump the model version.
    ///
    /// Completions are delivered explicitly, never polled, so a settled
    /// stage stays settled until its next delivered observation.
    pub fn is_settled(&self) -> bool {
        !self.model_dirty
            && self.running_count == 0
            && self.cached_running_age.is_none()
            && self
                .age_history
                .as_ref()
                .is_none_or(|h| !h.has_observations())
    }

    /// Approximate state size in bytes, for the §IV-F overhead report.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.all_completed.state_bytes()
            + self
                .groups
                .iter()
                .map(SizeGroup::state_bytes)
                .sum::<usize>()
            + self
                .age_history
                .as_ref()
                .map_or(0, IntervalMedian::state_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_by_size_with_tolerance() {
        let mut s = StageState::new();
        s.record_completion(1_000_000, Millis::from_secs(10));
        s.record_completion(1_000_005, Millis::from_secs(12)); // within 1%
        s.record_completion(2_000_000, Millis::from_secs(20)); // new group
        assert_eq!(s.num_groups(), 2);
        let g = s.group_for(1_000_002).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.median(), Some(Millis::from_secs(11)));
        assert!(s.group_for(3_000_000).is_none());
    }

    #[test]
    fn policy3_median_over_all_completions() {
        let mut s = StageState::new();
        for secs in [1u64, 100, 3] {
            s.record_completion(secs * 10, Millis::from_secs(secs));
        }
        assert_eq!(s.median_completed(), Some(Millis::from_secs(3)));
        assert_eq!(s.completed_count(), 3);
    }

    #[test]
    fn policy2_median_running_age() {
        let mut s = StageState::new();
        assert!(!s.has_running());
        s.set_running([5, 9, 7].map(Millis::from_secs));
        assert_eq!(s.median_running_age(), Some(Millis::from_secs(7)));
        s.set_running(vec![]);
        assert_eq!(s.median_running_age(), None);
    }

    #[test]
    fn model_learns_from_group_medians() {
        let mut s = StageState::new();
        // two groups: 1 MB -> 5 s, 2 MB -> 10 s
        for _ in 0..3 {
            s.record_completion(1_000_000, Millis::from_secs(5));
            s.record_completion(2_000_000, Millis::from_secs(10));
        }
        for _ in 0..1500 {
            s.update_model();
        }
        let p = s.ogd().predict_secs(1_500_000.0);
        assert!((p - 7.5).abs() < 0.2, "interpolated {p}");
    }

    #[test]
    fn state_bytes_grows_with_observations() {
        let mut s = StageState::new();
        let before = s.state_bytes();
        for i in 0..100 {
            s.record_completion(1_000 + i * 2_000, Millis::from_secs(1));
        }
        assert!(s.state_bytes() > before);

        // the running-age window retains every age of its last
        // RUNNING_AGE_WINDOW intervals, not just the current interval's
        let ages = |n: u64| (0..n).map(Millis::from_secs).collect::<Vec<_>>();
        s.set_running(ages(100));
        let one_interval = s.state_bytes();
        for _ in 1..RUNNING_AGE_WINDOW {
            s.set_running(ages(100));
        }
        let retained = (RUNNING_AGE_WINDOW - 1) * 100 * std::mem::size_of::<Millis>();
        assert!(s.state_bytes() >= one_interval + retained);
        // nothing runs now, but the window still holds the older ages
        s.set_running(vec![]);
        assert!(s.state_bytes() >= one_interval + retained - 100 * std::mem::size_of::<Millis>());
    }

    #[test]
    fn zero_byte_inputs_group_together() {
        let mut s = StageState::new();
        s.record_completion(0, Millis::from_secs(1));
        s.record_completion(0, Millis::from_secs(3));
        assert_eq!(s.num_groups(), 1);
        assert_eq!(s.group_for(0).unwrap().median(), Some(Millis::from_secs(2)));
    }
}
