//! WIRE planning: the online workflow lookahead simulation (§III-B2), the
//! resource-steering policy (Algorithms 2 and 3), and the paper's comparison
//! baselines (§IV-C3: static full-site, pure-reactive, reactive-conserving).
//!
//! The planner consumes the sanitized [`wire_simcloud::MonitorSnapshot`] and
//! per-task occupancy estimates from [`wire_predictor::Predictor`], and emits
//! [`wire_simcloud::PoolPlan`]s. All pieces are exposed individually so the
//! benches can ablate them (lookahead without steering, steering with oracle
//! estimates, etc.).

pub mod baselines;
pub mod budget;
pub mod deadline;
pub mod lookahead;
pub mod oracle;
pub mod resize;
pub mod steering;
pub mod wire_policy;

pub use baselines::{PureReactive, ReactiveConserving, StaticPolicy};
pub use budget::{throttle_factor, throttle_launches, GrowAheadWirePolicy, DEFAULT_BUDGET_KNEE};
pub use lookahead::{lookahead, lookahead_into, LookaheadScratch, Upcoming};
pub use oracle::OracleWirePolicy;
pub use resize::resize_pool;
pub use steering::{check_decision_postconditions, steer, steer_explained, SteeringConfig};
pub use wire_policy::WirePolicy;
