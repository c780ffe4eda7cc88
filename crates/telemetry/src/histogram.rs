//! A dependency-free, mergeable log-scale histogram: the value sketch behind
//! every streaming aggregate in `wire-obs`.

/// Power-of-two bucketed histogram for non-negative values (milliseconds,
/// counts). Bucket `i` holds values in `[2^i, 2^(i+1))`; bucket 0 also holds
/// zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    buckets: [u64; Histogram::NUM_BUCKETS],
}

impl Histogram {
    pub const NUM_BUCKETS: usize = 40;

    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Histogram::NUM_BUCKETS],
        }
    }

    pub fn observe(&mut self, value: f64) {
        debug_assert!(value >= 0.0 && value.is_finite());
        let value = value.max(0.0);
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = if value < 1.0 {
            0
        } else {
            (value.log2() as usize).min(Histogram::NUM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile, linearly interpolated within the bucket that
    /// contains the q-th observation (rank positions spread evenly across
    /// the bucket's span). The estimate is clamped to the observed
    /// `[min, max]` so a sparse top bucket cannot report a value beyond
    /// anything that was actually seen; `q >= 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        if target >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= target {
                // bucket i spans [2^i, 2^(i+1)); bucket 0 also holds [0, 1)
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u64 << (i + 1)) as f64;
                // rank within the bucket, placed at observation midpoints
                let frac = ((target - seen) as f64 - 0.5) / b as f64;
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            seen += b;
        }
        self.max
    }

    /// Fold another histogram into this one. Lossless by construction:
    /// bucket counts add element-wise, so the merge of any split of an
    /// observation stream is identical to observing the combined stream.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Reassemble a histogram from exported parts (sparse `(index, count)`
    /// bucket pairs), the inverse of serializing `count`/`sum`/`min`/`max`
    /// plus the non-zero buckets. Out-of-range bucket indices are ignored.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, sparse: &[(usize, u64)]) -> Self {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        if count > 0 {
            h.min = min;
            h.max = max;
        }
        for &(i, c) in sparse {
            if i < Histogram::NUM_BUCKETS {
                h.buckets[i] += c;
            }
        }
        h
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [0.0, 1.0, 2.0, 4.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert!((h.mean() - 201.4).abs() < 1e-9);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        // p50 lands in the bucket holding the 3rd observation (value 2).
        // Pinned to the interpolated estimate: bucket [2,4) holds one
        // observation, midpoint rank → 3.0. (Pre-interpolation the bucket
        // upper bound 4.0 was returned; re-pinned when quantile() switched
        // to within-bucket linear interpolation.)
        assert_eq!(h.quantile(0.5), 3.0);
        // q=1 is exact: the observed maximum, not a bucket boundary
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_is_clamped_to_observed_range() {
        let mut h = Histogram::new();
        // both land in bucket [512, 1024); interpolation must not report
        // values outside [600, 700]
        h.observe(600.0);
        h.observe(700.0);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = h.quantile(q);
            assert!((600.0..=700.0).contains(&v), "q={q} gave {v}");
        }
    }

    #[test]
    fn merge_matches_combined_observation() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        let vals = [0.0, 1.5, 3.0, 42.0, 1e9, 7.0];
        for (i, &v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // merging an empty histogram is a no-op
        let before = whole.clone();
        whole.merge(&Histogram::new());
        assert_eq!(whole, before);
    }
}
