//! Budget-feedback steering — the cost half of §IV-A's aggressiveness knob.
//!
//! The paper modulates WIRE's cost/speed balance through the fill target;
//! this module closes the loop against an explicit spend ceiling instead.
//! The engine bills instances through the priced-family ledger and exposes
//! the committed spend in every [`MonitorSnapshot`]; the throttle curve here
//! damps Algorithm 2's grow verdicts as that spend approaches the ceiling,
//! and vetoes growth outright once the ceiling is reached.
//!
//! Two pieces live here:
//!
//! * the pure throttle math ([`throttle_factor`] / [`throttle_launches`]),
//!   which [`crate::steering::steer`] applies whenever the snapshot's
//!   [`wire_simcloud::CloudConfig`] carries a budget — plain
//!   [`WirePolicy`] is budget-aware with no wrapper; and
//! * [`GrowAheadWirePolicy`], the deadline-aware variant that spends budget
//!   *early* (disables the throttle's damping region, keeping only the hard
//!   ceiling) while the predictor's critical-path projection says the
//!   deadline is at risk, and restores cost-first damping once it has slack.
//!
//! # Throttle-curve contract
//!
//! With `f = spent / ceiling` and knee `k` (default [`DEFAULT_BUDGET_KNEE`]):
//!
//! * `f <= k` — factor 1: growth undamped.
//! * `k < f < 1` — factor `(1 - f) / (1 - k)`: linear decay to zero.
//! * `f >= 1` — factor 0: hard veto, no launches.
//!
//! Launches allowed are `min(requested, floor(requested * factor),
//! (ceiling - spent) / unit_price)` — the last term guarantees the spend
//! committed by the grow itself can never overshoot the ceiling.

use crate::deadline::{projected_finish, RELAXED_FILL, URGENT_FILL};
use crate::steering::SteeringConfig;
use crate::wire_policy::WirePolicy;
use wire_dag::Millis;
use wire_obs::StreamingRecorder;
use wire_simcloud::{MonitorSnapshot, PoolPlan, ScalingPolicy};
use wire_telemetry::TelemetryHandle;

/// Spend fraction below which the throttle curve leaves growth undamped.
pub const DEFAULT_BUDGET_KNEE: f64 = 0.5;

/// Damping factor in `[0, 1]` for a grow verdict at the given spend level.
///
/// A `knee >= 1.0` collapses the damping region: the factor stays 1 until
/// the ceiling and drops to 0 there (the "spend early" curve).
pub fn throttle_factor(spent_milli: u64, ceiling_milli: u64, knee: f64) -> f64 {
    if ceiling_milli == 0 || spent_milli >= ceiling_milli {
        return 0.0;
    }
    let f = spent_milli as f64 / ceiling_milli as f64;
    if knee >= 1.0 || f <= knee {
        1.0
    } else {
        (1.0 - f) / (1.0 - knee)
    }
}

/// Apply the throttle curve to a requested launch count.
///
/// Returns the number of launches actually allowed: the damped request,
/// further capped by what the remaining budget can afford at
/// `unit_price_milli` per launch (each launch commits at least one charging
/// unit on the default family). `spend_early` switches to the knee-free
/// curve: full-rate growth until the hard ceiling.
pub fn throttle_launches(
    requested: u32,
    spent_milli: u64,
    ceiling_milli: u64,
    unit_price_milli: u64,
    knee: f64,
    spend_early: bool,
) -> u32 {
    if requested == 0 {
        return 0;
    }
    let factor = throttle_factor(
        spent_milli,
        ceiling_milli,
        if spend_early { 1.0 } else { knee },
    );
    let damped = ((requested as f64) * factor).floor() as u32;
    let affordable = (ceiling_milli.saturating_sub(spent_milli) / unit_price_milli.max(1))
        .min(u32::MAX as u64) as u32;
    damped.min(requested).min(affordable)
}

/// WIRE with a deadline *and* a budget: grow ahead while the deadline is at
/// risk, throttle once it has slack.
///
/// A mode flip mutates only `fill_target` and `budget_spend_early` on the
/// steering config the policy was constructed with, so budget knee, spot
/// floors and family steering survive mode switches. Urgent mode provisions partially-fillable instances
/// (fill target [`URGENT_FILL`]) and spends budget at full rate up to the
/// hard ceiling; relaxed mode restores [`RELAXED_FILL`] and the knee curve.
#[derive(Debug, Clone)]
pub struct GrowAheadWirePolicy {
    deadline: Millis,
    inner: WirePolicy,
    urgent: bool,
    switches: u32,
}

impl GrowAheadWirePolicy {
    pub fn new(deadline: Millis) -> Self {
        Self::with_steering(deadline, SteeringConfig::default())
    }

    /// Build with explicit steering knobs; `fill_target` and
    /// `budget_spend_early` are owned by the mode switch and start relaxed.
    pub fn with_steering(deadline: Millis, steering: SteeringConfig) -> Self {
        GrowAheadWirePolicy {
            deadline,
            inner: WirePolicy::new(SteeringConfig {
                fill_target: RELAXED_FILL,
                budget_spend_early: false,
                ..steering
            }),
            urgent: false,
            switches: 0,
        }
    }

    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.inner = self.inner.with_telemetry(telemetry);
        self
    }

    pub fn with_obs(mut self, sink: StreamingRecorder) -> Self {
        self.inner = self.inner.with_obs(sink);
        self
    }

    /// How often the policy flipped between relaxed and grow-ahead mode.
    pub fn mode_switches(&self) -> u32 {
        self.switches
    }
}

impl ScalingPolicy for GrowAheadWirePolicy {
    fn name(&self) -> &str {
        "wire-growahead"
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        // let the inner policy ingest this interval's observations first, so
        // the projection below uses the freshest predictor state (including
        // the very first tick). A mode flip therefore takes effect at the
        // *next* tick — one interval of latency, accepted deliberately:
        // re-planning within the same tick would ingest the interval's
        // observations twice and pollute the moving-median history.
        let plan = self.inner.plan(snapshot);
        let want_urgent = projected_finish(&self.inner, snapshot) > self.deadline;
        if want_urgent != self.urgent {
            self.urgent = want_urgent;
            self.switches += 1;
            let mut steering = self.inner.steering();
            steering.fill_target = if want_urgent {
                URGENT_FILL
            } else {
                RELAXED_FILL
            };
            steering.budget_spend_early = want_urgent;
            self.inner.set_steering(steering);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNEE: f64 = DEFAULT_BUDGET_KNEE;

    #[test]
    fn factor_is_one_below_the_knee() {
        assert_eq!(throttle_factor(0, 1000, KNEE), 1.0);
        assert_eq!(throttle_factor(500, 1000, KNEE), 1.0);
    }

    #[test]
    fn factor_decays_linearly_between_knee_and_ceiling() {
        // f = 0.75 with knee 0.5 -> (1 - 0.75) / 0.5 = 0.5
        let f = throttle_factor(750, 1000, KNEE);
        assert!((f - 0.5).abs() < 1e-12, "factor {f}");
    }

    #[test]
    fn factor_is_zero_at_and_past_the_ceiling() {
        assert_eq!(throttle_factor(1000, 1000, KNEE), 0.0);
        assert_eq!(throttle_factor(1500, 1000, KNEE), 0.0);
        assert_eq!(throttle_factor(0, 0, KNEE), 0.0);
    }

    #[test]
    fn spend_early_curve_ignores_the_knee() {
        assert_eq!(throttle_factor(999, 1000, 1.0), 1.0);
        assert_eq!(throttle_factor(1000, 1000, 1.0), 0.0);
    }

    #[test]
    fn launches_undamped_below_the_knee() {
        assert_eq!(throttle_launches(8, 0, 100_000, 1000, KNEE, false), 8);
    }

    #[test]
    fn launches_damped_in_the_decay_region() {
        // f = 0.75 -> factor 0.5 -> floor(8 * 0.5) = 4
        assert_eq!(throttle_launches(8, 75_000, 100_000, 1000, KNEE, false), 4);
    }

    #[test]
    fn launches_vetoed_at_the_ceiling() {
        assert_eq!(throttle_launches(8, 100_000, 100_000, 1000, KNEE, false), 0);
        assert_eq!(throttle_launches(8, 100_000, 100_000, 1000, KNEE, true), 0);
    }

    #[test]
    fn affordability_caps_even_undamped_requests() {
        // below the knee, but only 3 launches' worth of headroom remains
        assert_eq!(throttle_launches(8, 1_000, 4_500, 1000, KNEE, true), 3);
    }

    #[test]
    fn infinite_ceiling_never_throttles() {
        assert_eq!(
            throttle_launches(32, 1 << 40, u64::MAX, 1000, KNEE, false),
            32
        );
    }

    #[test]
    fn zero_price_does_not_divide_by_zero() {
        assert_eq!(throttle_launches(4, 10, 100, 0, KNEE, false), 4);
    }
}
