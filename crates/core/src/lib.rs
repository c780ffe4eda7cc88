//! WIRE experiment harness: MAPE-run orchestration, metrics, statistics and
//! report formatting.
//!
//! This crate sits on top of the whole stack (`wire-dag`, `wire-simcloud`,
//! `wire-predictor`, `wire-planner`, `wire-workloads`) and provides what the
//! paper's evaluation (§IV) needs:
//!
//! * [`experiment`] — the §IV-C grid: 4 workflows × 2 datasets ×
//!   {full-site, pure-reactive, reactive-conserving, wire} × 4 charging units
//!   with repetitions, as a spec ([`ExperimentGrid`]), each setting's cloud
//!   configuration and policy, and the aggregates Figures 5–6 and the
//!   headline claims read (`wire-campaign` runs every cell);
//! * [`prediction`] — the §IV-D offline prediction-accuracy study behind
//!   Figure 4 (per-stage error CDFs over random task orders);
//! * [`stats`] — means/medians/stds/quantiles used in Figures 5–6;
//! * [`report`] — fixed-width tables and CSV output for the bench binaries.

pub mod campaign;
pub mod experiment;
pub mod plot;
pub mod prediction;
pub mod report;
pub mod stats;

pub use campaign::{flatten, parse_csv, summarize, to_csv, FlatRun};
pub use experiment::{ExperimentGrid, GridCell, GridResult, Setting, CHARGING_UNITS_MINS};
pub use plot::{bar_chart, line_chart, Series};
pub use prediction::{
    stage_order_spread, stage_prediction_errors, stage_prediction_errors_with, OrderSpread,
    PredictionStudy, StageErrors,
};
pub use report::{fmt_mean_std, Table};
pub use stats::{mean, median, paired, quantile, std_dev, PairedComparison, Summary};
