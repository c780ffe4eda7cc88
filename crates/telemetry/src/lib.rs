//! Telemetry substrate for the WIRE reproduction.
//!
//! This crate provides the [`Recorder`] hook the engine calls at every event
//! and MAPE tick, the [`Tee`] combinator that fans one event stream out to
//! two recorders, the raw event and [decision journal](decision) sink
//! ([`TelemetryHandle`]) explaining each Plan step in Algorithm 2/3 terms,
//! the mergeable [`Histogram`] sketch, and [exporters](export) for the raw
//! stream (JSONL events, Chrome `trace_event` JSON for Perfetto, the decision
//! journal as JSONL). Aggregated metrics and the prediction-quality join
//! live in `wire-obs`'s streaming recorder, the only metrics path.
//!
//! The crate sits *below* `wire-simcloud` in the dependency graph (it
//! depends only on `wire-dag`), so events carry raw `u32` ids. Recording is
//! opt-in and zero-cost when off: the engine defaults to [`NoopRecorder`],
//! whose `enabled()` guard compiles the whole telemetry path away.

pub mod decision;
pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod recorder;

pub use decision::{
    policy_name, BudgetStamp, DecisionAction, DecisionRecord, InstanceJudgement, JudgementOutcome,
};
pub use event::TelemetryEvent;
pub use histogram::Histogram;
pub use recorder::{NoopRecorder, Recorder, Tee, TelemetryBuffer, TelemetryHandle, TickStats};
