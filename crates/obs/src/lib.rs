//! Streaming observability for WIRE runs: the one place a run's metrics are
//! aggregated and its predictions are joined against outcomes.
//! `wire_telemetry::TelemetryHandle` keeps only the raw event stream and
//! the decision journal; tee it next to a [`StreamingRecorder`] when both
//! are wanted.
//!
//! The [`StreamingRecorder`] implements the engine's `Recorder` trait and
//! aggregates online instead of retaining events: mergeable log-bucketed
//! quantile sketches (`wire_telemetry::Histogram` + `merge`), per-tenant
//! and per-workflow cost/makespan/slowdown percentiles, windowed
//! virtual-time rollups (arrivals, completions, spend, predictor MAPE/p90
//! error per window), and run-health internals (event-queue depth,
//! controller tick latency, prediction-memoization hit rate, events per
//! wall-second). Peak retained state is proportional to *in-flight* work,
//! never to run length — the property that unblocks million-workflow
//! ensembles (ROADMAP item 1).
//!
//! Export surfaces:
//! - [`ObsSnapshot`]: the deterministic machine-readable summary
//!   (`results/OBS_snapshot.json`), mergeable across campaign shards with
//!   the same ordered-merge discipline as `wire-campaign`, so its bytes
//!   are identical regardless of `WIRE_THREADS` or cache state.
//! - [`render_report`]: the human summary behind the `wire report` CLI.
//! - [`export`]: the per-window metrics CSV and the human decision log,
//!   whose prediction-quality footer reads the snapshot.
//!
//! Wall-clock facts (tick latency, events/sec, retained bytes) are
//! deliberately *excluded* from the snapshot and live in [`HealthReport`].

#![deny(missing_docs)]

pub mod export;
mod recorder;
mod report;
mod snapshot;
mod state;

pub use recorder::StreamingRecorder;
pub use report::render_report;
pub use snapshot::{HealthAgg, ObsSnapshot, TenantAgg, WindowAgg, WindowRollup, SNAPSHOT_VERSION};
pub use state::{HealthReport, ObsConfig, ObsState};
