//! Median computation: one-shot over slices and an incremental accumulator.
//!
//! The paper prefers the median over the mean and the three-sigma rule because
//! it better captures "the middle performance" of the skewed (Zipfian-like)
//! distributions observed in cloud loads (§III-C).

use wire_dag::Millis;

/// Median of a slice of `f64`s (lower median for even lengths is avoided by
/// averaging the two central elements). Returns `None` on empty input.
pub fn median_of(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of durations; even lengths average the two central values.
pub fn median_millis(values: &[Millis]) -> Option<Millis> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<u64> = values.iter().map(|m| m.as_ms()).collect();
    v.sort_unstable();
    let n = v.len();
    Some(Millis::from_ms(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    }))
}

/// Incremental median accumulator over durations.
///
/// Keeps a sorted vector with binary-search insertion; stage populations in the
/// paper's workloads top out around 1000 tasks, so the O(n) insert is cheaper
/// in practice than a two-heap scheme and keeps the state trivially
/// serializable for the overhead study (§IV-F).
#[derive(Debug, Clone, Default)]
pub struct MedianAcc {
    sorted: Vec<u64>,
}

impl MedianAcc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: Millis) {
        let ms = v.as_ms();
        let idx = self.sorted.partition_point(|&x| x <= ms);
        self.sorted.insert(idx, ms);
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn median(&self) -> Option<Millis> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(Millis::from_ms(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2
        }))
    }

    /// The retained observations in milliseconds, sorted ascending.
    pub fn sorted_ms(&self) -> &[u64] {
        &self.sorted
    }

    /// Approximate state size in bytes, for the §IV-F overhead report.
    pub fn state_bytes(&self) -> usize {
        self.sorted.len() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_empty_is_none() {
        assert_eq!(median_of(&[]), None);
        assert_eq!(median_millis(&[]), None);
        assert_eq!(MedianAcc::new().median(), None);
    }

    #[test]
    fn odd_and_even_lengths() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let ms = |s: &[u64]| s.iter().map(|&x| Millis::from_ms(x)).collect::<Vec<_>>();
        assert_eq!(median_millis(&ms(&[30, 10, 20])), Some(Millis::from_ms(20)));
        assert_eq!(
            median_millis(&ms(&[40, 10, 20, 30])),
            Some(Millis::from_ms(25))
        );
    }

    #[test]
    fn acc_matches_batch() {
        let vals = [5u64, 1, 9, 3, 7, 7, 2];
        let mut acc = MedianAcc::new();
        for (i, &v) in vals.iter().enumerate() {
            acc.push(Millis::from_ms(v));
            let batch: Vec<Millis> = vals[..=i].iter().map(|&x| Millis::from_ms(x)).collect();
            assert_eq!(acc.median(), median_millis(&batch), "prefix {}", i + 1);
        }
        assert_eq!(acc.len(), vals.len());
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        // The property the paper relies on: one straggler doesn't move the median.
        let base: Vec<Millis> = (0..9).map(|_| Millis::from_secs(10)).collect();
        let mut with_outlier = base.clone();
        with_outlier.push(Millis::from_secs(10_000));
        assert_eq!(median_millis(&with_outlier), Some(Millis::from_secs(10)));
    }
}
