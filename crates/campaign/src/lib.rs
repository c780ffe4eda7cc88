//! Sharded experiment-campaign runner with a content-addressed result cache.
//!
//! A campaign is a list of fully-resolved [`Cell`]s — one `Session::run()`
//! each — executed heaviest first ([`Cell::cost_hint`]) across a real
//! thread pool (the vendored `rayon` stand-in's `std::thread::scope` pool,
//! one cell per claim, sized by `WIRE_THREADS`) and merged back **in spec
//! order**, so every derived artifact is byte-identical regardless of
//! thread count. Completed cells are memoized
//! under `results/cache/` keyed by a stable FNV-1a hash of the whole cell
//! spec ([`cache_key`]); re-running a campaign after an interruption, or
//! regenerating a figure whose cells were already paid for by another
//! figure, costs only cache reads.
//!
//! Layout:
//!
//! * [`cell`] — the unit of work: workload/policy/config/seed, its
//!   [`cache_key`], the deterministic [`CellOutput`] summary, and the one
//!   session build behind [`execute`] (optionally shadowed by the chaos
//!   invariant checker), [`Cell::run`] (the full `RunResult`, with optional
//!   recorders) and [`run_ensemble`] (N workflows on one pool);
//! * [`cache`] — self-verifying on-disk entries (version + key + length +
//!   checksum header): truncated or garbled entries are detected, reported
//!   and recomputed, never trusted;
//! * [`runner`] — cache probing, pool dispatch, ordered merge, and the
//!   [`CampaignReport`] bookkeeping (executed/hit/corrupt counters);
//! * [`figures`] — the paper's figure/table regenerations (`wire campaign
//!   <target>`) as thin front-ends over [`run_campaign`];
//! * `direct` — the `wire campaign` targets that bypass the cell cache
//!   (Table I, Figure 4, pool timelines, offline paired analysis).

pub mod cache;
pub mod cell;
mod direct;
pub mod figures;
pub mod runner;
pub mod traffic;

pub use cache::CacheMiss;
pub use cell::{
    cache_key, cache_key_versioned, execute, run_ensemble, Cell, CellOutput, CellWorkload,
    PolicyKind, TransferKind, CACHE_FORMAT_VERSION,
};
pub use figures::{grid_cells, grid_results_from, save_obs_snapshot, FigureOutcome, FigureRunner};
pub use runner::{
    default_cache_dir, run_campaign, CacheMode, CampaignConfig, CampaignReport, CellViolation,
};
pub use traffic::{run_tenant, run_traffic, TenantOutcome, TrafficReport, TrafficSpec};
