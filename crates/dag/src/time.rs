//! Millisecond time base shared by every crate in the workspace.
//!
//! The paper works with task execution times from ~1 second to minutes, a 3-minute
//! instance-launch lag and charging units of 1–60 minutes; millisecond resolution in
//! a `u64` covers that range with deterministic integer arithmetic (no float drift
//! in the event queue).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time or a duration, in milliseconds.
///
/// `Millis` is deliberately a single type for both instants and durations — the
/// simulator's arithmetic is simple enough that the extra safety of separate types
/// is not worth the conversion noise in the algorithm implementations, which
/// transcribe the paper's pseudocode directly.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Millis(pub u64);

impl Millis {
    pub const ZERO: Millis = Millis(0);
    pub const MAX: Millis = Millis(u64::MAX);

    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Millis(ms)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Millis(s * 1_000)
    }

    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        Millis(m * 60_000)
    }

    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Millis(h * 3_600_000)
    }

    /// Construct from fractional seconds, rounding to the nearest millisecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite seconds");
        Millis((s * 1000.0).round().max(0.0) as u64)
    }

    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: time never goes negative.
    #[inline]
    pub const fn saturating_sub(self, rhs: Millis) -> Millis {
        Millis(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, other: Millis) -> Millis {
        Millis(self.0.min(other.0))
    }

    #[inline]
    pub fn max(self, other: Millis) -> Millis {
        Millis(self.0.max(other.0))
    }

    /// Number of whole `unit`-sized intervals that have *started* by `self`,
    /// counting a partially used interval as consumed. `0` elapsed ⇒ `0` units;
    /// `(0, u]` ⇒ 1; `(u, 2u]` ⇒ 2 ...
    ///
    /// This is the billing rule: a renter pays for every started charging unit.
    #[inline]
    pub fn ceil_div(self, unit: Millis) -> u64 {
        assert!(unit.0 > 0, "ceil_div by zero-length unit");
        self.0.div_ceil(unit.0)
    }

    /// Ratio of two durations as `f64`.
    #[inline]
    pub fn ratio(self, denom: Millis) -> f64 {
        assert!(denom.0 > 0, "ratio with zero denominator");
        self.0 as f64 / denom.0 as f64
    }

    /// Scale a duration by a non-negative float, rounding to nearest ms.
    /// A factor of exactly 1.0 returns `self` without the float round-trip;
    /// that cannot change a result, since every duration up to 2^53 ms
    /// converts to `f64` and back exactly.
    #[inline]
    pub fn scale(self, factor: f64) -> Millis {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        if factor == 1.0 {
            return self;
        }
        Millis((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Millis {
    type Output = Millis;
    #[inline]
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0 + rhs.0)
    }
}

impl AddAssign for Millis {
    #[inline]
    fn add_assign(&mut self, rhs: Millis) {
        self.0 += rhs.0;
    }
}

impl Sub for Millis {
    type Output = Millis;
    #[inline]
    fn sub(self, rhs: Millis) -> Millis {
        debug_assert!(self.0 >= rhs.0, "Millis subtraction underflow");
        Millis(self.0 - rhs.0)
    }
}

impl SubAssign for Millis {
    #[inline]
    fn sub_assign(&mut self, rhs: Millis) {
        debug_assert!(self.0 >= rhs.0, "Millis subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Millis {
    type Output = Millis;
    #[inline]
    fn mul(self, rhs: u64) -> Millis {
        Millis(self.0 * rhs)
    }
}

impl Div<u64> for Millis {
    type Output = Millis;
    #[inline]
    fn div(self, rhs: u64) -> Millis {
        Millis(self.0 / rhs)
    }
}

impl Rem<Millis> for Millis {
    type Output = Millis;
    #[inline]
    fn rem(self, rhs: Millis) -> Millis {
        Millis(self.0 % rhs.0)
    }
}

impl Sum for Millis {
    fn sum<I: Iterator<Item = Millis>>(iter: I) -> Millis {
        Millis(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= 3_600_000 {
            write!(f, "{:.2}h", ms as f64 / 3_600_000.0)
        } else if ms >= 60_000 {
            write!(f, "{:.2}m", ms as f64 / 60_000.0)
        } else if ms >= 1_000 {
            write!(f, "{:.2}s", ms as f64 / 1_000.0)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Millis::from_secs(2), Millis::from_ms(2000));
        assert_eq!(Millis::from_mins(3), Millis::from_secs(180));
        assert_eq!(Millis::from_hours(1), Millis::from_mins(60));
        assert_eq!(Millis::from_secs_f64(1.5), Millis::from_ms(1500));
    }

    #[test]
    fn ceil_div_counts_started_units() {
        let u = Millis::from_mins(15);
        assert_eq!(Millis::ZERO.ceil_div(u), 0);
        assert_eq!(Millis::from_ms(1).ceil_div(u), 1);
        assert_eq!(u.ceil_div(u), 1);
        assert_eq!((u + Millis::from_ms(1)).ceil_div(u), 2);
        assert_eq!((u * 2).ceil_div(u), 2);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(
            Millis::from_secs(1).saturating_sub(Millis::from_secs(5)),
            Millis::ZERO
        );
        assert_eq!(
            Millis::from_secs(5).saturating_sub(Millis::from_secs(1)),
            Millis::from_secs(4)
        );
    }

    #[test]
    fn ratio_and_scale() {
        assert_eq!(Millis::from_secs(3).ratio(Millis::from_secs(2)), 1.5);
        assert_eq!(Millis::from_secs(2).scale(1.5), Millis::from_secs(3));
        assert_eq!(Millis::from_secs(2).scale(0.0), Millis::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Millis::from_ms(5).to_string(), "5ms");
        assert_eq!(Millis::from_secs(5).to_string(), "5.00s");
        assert_eq!(Millis::from_mins(5).to_string(), "5.00m");
        assert_eq!(Millis::from_hours(2).to_string(), "2.00h");
    }

    #[test]
    fn sum_of_durations() {
        let total: Millis = [Millis::from_secs(1), Millis::from_secs(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Millis::from_secs(3));
    }

    #[test]
    fn min_max() {
        let a = Millis::from_secs(1);
        let b = Millis::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
