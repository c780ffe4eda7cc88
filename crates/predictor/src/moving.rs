//! Moving median over a sequence of MAPE intervals.
//!
//! Design goal (2) of §III-C: "use the median observations over a sequence of
//! execution intervals (*moving median*) to address the longer-term and
//! more-consistent trends of the task performance at each stage". This keeps a
//! bounded window of per-interval observation batches and answers the median
//! over the most recent `window` non-empty intervals.
//!
//! Every retained batch is a sorted run. A batch's own median is read from
//! the middle of its run, and the window median is an exact k-th-element
//! query across the runs: a bisection over values that counts each run's
//! share with one binary search. On a stage with `n` running tasks that costs
//! O(n) to sort an already ascending batch plus O(W log n log V) to query
//! (W ≤ 8 runs, V the age range).

use std::collections::VecDeque;
use wire_dag::Millis;

/// Median across the most recent MAPE intervals' observations.
#[derive(Debug, Clone)]
pub struct IntervalMedian {
    window: usize,
    /// Oldest first; each batch sorted ascending.
    intervals: VecDeque<Vec<Millis>>,
}

/// Median of an ascending run; even lengths average the two central values,
/// exactly as [`crate::median_millis`] does.
fn run_median(run: &[Millis]) -> Option<Millis> {
    let n = run.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(run[n / 2]),
        _ => Some(midpoint(run[n / 2 - 1], run[n / 2])),
    }
}

fn midpoint(lower: Millis, upper: Millis) -> Millis {
    Millis::from_ms((lower.as_ms() + upper.as_ms()) / 2)
}

impl IntervalMedian {
    /// `window` = how many most-recent intervals participate in the median
    /// (the current interval plus `window - 1` older ones).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        IntervalMedian {
            window,
            intervals: VecDeque::with_capacity(window + 1),
        }
    }

    /// Close the current interval, recording the observations made during it.
    /// Empty batches are recorded too (an interval can legitimately observe
    /// nothing), but are skipped when answering queries so the estimator stays
    /// *memoryless with fallback*: it prefers the freshest data and degrades to
    /// older intervals only when the fresh ones are silent.
    ///
    /// The batch is sorted here, once; a batch that arrives ascending costs
    /// one linear pass.
    ///
    /// Returns the batch evicted from the window (if any) so callers on the
    /// per-tick hot path can recycle its allocation for the next interval.
    pub fn push_interval(&mut self, mut obs: Vec<Millis>) -> Option<Vec<Millis>> {
        obs.sort_unstable();
        self.intervals.push_back(obs);
        let mut evicted = None;
        while self.intervals.len() > self.window {
            evicted = self.intervals.pop_front();
        }
        evicted
    }

    /// Median of the most recently pushed interval alone; `None` if that
    /// interval observed nothing.
    pub fn newest_median(&self) -> Option<Millis> {
        self.intervals.back().and_then(|run| run_median(run))
    }

    /// Median over the observations of the newest non-empty interval within the
    /// window (the paper's `t̃_data`: the median of the transfers between the
    /// n−1th and nth iterations, with older intervals as fallback).
    pub fn latest_median(&self) -> Option<Millis> {
        self.intervals.iter().rev().find_map(|run| run_median(run))
    }

    /// Median over *all* observations in the window — the longer-term trend.
    /// Equal to [`crate::median_millis`] of the concatenated window.
    pub fn window_median(&self) -> Option<Millis> {
        let n = self.num_observations();
        if n == 0 {
            return None;
        }
        let upper = self.kth(n / 2);
        if n % 2 == 1 {
            return Some(upper);
        }
        // the element just below the upper middle: `upper` again when fewer
        // than n/2 observations lie strictly below it, else the largest of them
        let below = |r: &Vec<Millis>| r.partition_point(|&x| x < upper);
        let lower = if self.intervals.iter().map(below).sum::<usize>() < n / 2 {
            upper
        } else {
            self.intervals
                .iter()
                .filter_map(|r| r[..below(r)].last())
                .copied()
                .max()
                .expect("n/2 observations lie below the upper middle")
        };
        Some(midpoint(lower, upper))
    }

    /// The `k`-th smallest retained observation (0-based, `k` < total): the
    /// least value with more than `k` observations at or below it, found by
    /// bisecting the value range. That least value is always an observation.
    fn kth(&self, k: usize) -> Millis {
        let runs = || self.intervals.iter();
        let mut lo = runs()
            .filter_map(|r| r.first())
            .min()
            .expect("k < total")
            .as_ms();
        let mut hi = runs()
            .filter_map(|r| r.last())
            .max()
            .expect("k < total")
            .as_ms();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at_or_below: usize = runs()
                .map(|r| r.partition_point(|x| x.as_ms() <= mid))
                .sum();
            if at_or_below > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Millis::from_ms(lo)
    }

    /// Whether any retained interval holds an observation. A window of
    /// nothing but empty batches answers every median query with `None` and
    /// keeps doing so under further empty pushes — the settled state the
    /// predictor's dormant-stage fast path relies on.
    pub fn has_observations(&self) -> bool {
        self.intervals.iter().any(|batch| !batch.is_empty())
    }

    /// Number of intervals currently retained.
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Total observations retained, for overhead accounting.
    pub fn num_observations(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// Approximate state size in bytes: every retained observation.
    pub fn state_bytes(&self) -> usize {
        self.num_observations() * std::mem::size_of::<Millis>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Millis> {
        v.iter().map(|&x| Millis::from_ms(x)).collect()
    }

    #[test]
    fn empty_has_no_median() {
        let im = IntervalMedian::new(3);
        assert_eq!(im.latest_median(), None);
        assert_eq!(im.window_median(), None);
    }

    #[test]
    fn latest_prefers_fresh_interval() {
        let mut im = IntervalMedian::new(3);
        im.push_interval(ms(&[100, 100, 100]));
        im.push_interval(ms(&[10, 20, 30]));
        assert_eq!(im.latest_median(), Some(Millis::from_ms(20)));
    }

    #[test]
    fn latest_falls_back_over_empty_intervals() {
        let mut im = IntervalMedian::new(3);
        im.push_interval(ms(&[40, 50, 60]));
        im.push_interval(vec![]);
        im.push_interval(vec![]);
        assert_eq!(im.latest_median(), Some(Millis::from_ms(50)));
    }

    #[test]
    fn window_evicts_old_intervals() {
        let mut im = IntervalMedian::new(2);
        im.push_interval(ms(&[1000]));
        im.push_interval(ms(&[10]));
        im.push_interval(ms(&[20]));
        assert_eq!(im.num_intervals(), 2);
        // the 1000 fell out of the window
        assert_eq!(im.window_median(), Some(Millis::from_ms(15)));
    }

    #[test]
    fn fully_evicted_data_is_forgotten() {
        let mut im = IntervalMedian::new(1);
        im.push_interval(ms(&[500]));
        im.push_interval(vec![]);
        assert_eq!(im.latest_median(), None);
        assert_eq!(im.num_observations(), 0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = IntervalMedian::new(0);
    }
}
