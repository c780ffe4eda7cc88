//! Deterministic chaos harness for the WIRE simulator.
//!
//! Two pieces, layered on top of the engine's scripted-fault hooks
//! ([`wire_simcloud::FaultPlan`]):
//!
//! - [`InvariantChecker`]: a [`Recorder`](wire_telemetry::Recorder) that
//!   replays the engine's event stream against an independent model of the
//!   pool and task lifecycle, flagging any violation of the simulator's core
//!   invariants (exactly-once completion, billed ≥ occupied, drain-boundary
//!   alignment, monotonic time, per-workflow id ranges).
//! - [`check_decision_journal`]: applies the planner's Algorithm 2/3
//!   postconditions ([`wire_planner::check_decision_postconditions`]) to a
//!   recorded MAPE decision journal — no release while `r_j > t` or
//!   `c_j > 0.2u` survives unnoticed.
//!
//! Feed the checker next to other recorders with `wire_telemetry::Tee`.
//!
//! Everything here is observational: attaching the checker never perturbs a
//! run (the engine's event stream is identical with or without a recorder),
//! so a clean chaos run and a clean plain run are directly comparable.

pub mod checker;

pub use checker::{check_decision_journal, InvariantChecker, InvariantReport};
// One-stop imports for chaos tests: the fault-plan vocabulary lives in the
// simulator (the engine compiles plans into its own event queue).
pub use wire_simcloud::{Fault, FaultAction, FaultPlan, FaultTrigger};
