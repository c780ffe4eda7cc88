//! Alternative central-tendency estimators — the §III-C design justification.
//!
//! "We take the median values of task execution times. Compared to the mean
//! and the three-sigma rule, the median is more effective to capture 'the
//! middle performance' of skewed data distributions (e.g., Zipfian), which
//! are widely observed in cloud loads."
//!
//! This module implements all three so the claim can be tested empirically
//! (see `wire campaign ablation` and its estimator-comparison study).

use serde::{Deserialize, Serialize};
use wire_dag::Millis;

/// Which central-tendency estimator summarizes a set of peer observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Estimator {
    /// The paper's choice: robust to skew and stragglers.
    #[default]
    Median,
    /// Arithmetic mean: pulled upward by stragglers.
    Mean,
    /// Three-sigma rule: mean of the observations within μ ± 3σ, i.e. the
    /// mean after discarding extreme outliers (Pukelsheim 1994, the paper's
    /// \[15\]). With small samples it degenerates to the plain mean.
    ThreeSigma,
}

impl Estimator {
    pub const ALL: [Estimator; 3] = [Estimator::Median, Estimator::Mean, Estimator::ThreeSigma];

    pub fn label(self) -> &'static str {
        match self {
            Estimator::Median => "median",
            Estimator::Mean => "mean",
            Estimator::ThreeSigma => "three-sigma",
        }
    }

    /// Summarize a non-empty set of durations; `None` on empty input.
    pub fn central(self, values: &[Millis]) -> Option<Millis> {
        if values.is_empty() {
            return None;
        }
        match self {
            Estimator::Median => crate::median::median_millis(values),
            Estimator::Mean => Some(mean_millis(values)),
            Estimator::ThreeSigma => Some(three_sigma_millis(values)),
        }
    }
}

fn mean_millis(values: &[Millis]) -> Millis {
    let sum: u128 = values.iter().map(|m| m.as_ms() as u128).sum();
    Millis::from_ms((sum / values.len() as u128) as u64)
}

fn three_sigma_millis(values: &[Millis]) -> Millis {
    let n = values.len() as f64;
    let mean = values.iter().map(|m| m.as_ms() as f64).sum::<f64>() / n;
    let var = values
        .iter()
        .map(|m| (m.as_ms() as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sigma = var.sqrt();
    let (lo, hi) = (mean - 3.0 * sigma, mean + 3.0 * sigma);
    let kept: Vec<f64> = values
        .iter()
        .map(|m| m.as_ms() as f64)
        .filter(|&v| v >= lo && v <= hi)
        .collect();
    if kept.is_empty() {
        return Millis::from_ms(mean.round() as u64);
    }
    Millis::from_ms((kept.iter().sum::<f64>() / kept.len() as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(xs: &[u64]) -> Vec<Millis> {
        xs.iter().map(|&s| Millis::from_secs(s)).collect()
    }

    #[test]
    fn empty_input_is_none_for_all() {
        for e in Estimator::ALL {
            assert_eq!(e.central(&[]), None, "{}", e.label());
        }
    }

    #[test]
    fn agree_on_symmetric_data() {
        let v = secs(&[8, 10, 12]);
        for e in Estimator::ALL {
            assert_eq!(e.central(&v), Some(Millis::from_secs(10)), "{}", e.label());
        }
    }

    #[test]
    fn median_resists_stragglers_mean_does_not() {
        // nine 10-second tasks and one 1000-second straggler
        let mut v = secs(&[10; 9]);
        v.push(Millis::from_secs(1000));
        let median = Estimator::Median.central(&v).unwrap();
        let mean = Estimator::Mean.central(&v).unwrap();
        assert_eq!(median, Millis::from_secs(10));
        assert_eq!(mean, Millis::from_secs(109));
        // the paper's point: the mean is 10× off "the middle performance"
        assert!(mean > median * 10);
    }

    #[test]
    fn three_sigma_sits_between_for_moderate_outliers() {
        // With one enormous outlier, σ is huge, the outlier stays within 3σ,
        // so three-sigma ≈ mean — the rule fails on heavy tails with small n
        // (part of why the paper prefers the median).
        let mut v = secs(&[10; 9]);
        v.push(Millis::from_secs(1000));
        let three = Estimator::ThreeSigma.central(&v).unwrap();
        let mean = Estimator::Mean.central(&v).unwrap();
        assert_eq!(three, mean);

        // with a larger sample the filter starts helping
        let mut v = secs(&[10; 99]);
        v.push(Millis::from_secs(1000));
        let three = Estimator::ThreeSigma.central(&v).unwrap();
        let mean = Estimator::Mean.central(&v).unwrap();
        assert!(three < mean, "{three} vs {mean}");
        assert_eq!(three, Millis::from_secs(10));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Estimator::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn default_is_median() {
        assert_eq!(Estimator::default(), Estimator::Median);
    }
}
