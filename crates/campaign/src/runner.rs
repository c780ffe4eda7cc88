//! The sharded campaign runner: resolve cells against the cache, fan the
//! misses out across the thread pool heaviest first, merge results back in
//! spec order.

use std::cmp::Reverse;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::cache::{self, CacheMiss};
use crate::cell::{cache_key, execute, Cell};
use crate::CellOutput;

/// How the on-disk cache participates in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve completed cells from the cache, execute and store the rest
    /// (the `--resume` default).
    Resume,
    /// Ignore existing entries, re-execute everything, overwrite the cache
    /// (`--force`).
    Force,
    /// No cache at all: nothing read, nothing written (timing studies).
    Off,
}

/// Campaign execution knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads; `None` defers to `WIRE_THREADS` / available cores.
    pub threads: Option<usize>,
    /// Cache directory; `None` puts it at the default `results/cache/`.
    pub cache_dir: Option<PathBuf>,
    pub mode: CacheMode,
    /// Shadow every executed cell with the chaos invariant checker and the
    /// Algorithm 2/3 decision-journal audit.
    pub check: bool,
    /// Emit a live `completed/total (cached) ETA` line on stderr.
    pub progress: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: None,
            cache_dir: None,
            mode: CacheMode::Resume,
            check: false,
            progress: false,
        }
    }
}

impl CampaignConfig {
    /// Resolved worker count: explicit override, else the rayon ambient
    /// default (`WIRE_THREADS` / available cores).
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(rayon::current_num_threads)
            .max(1)
    }

    /// Resolved cache directory (even when `mode == Off`, for callers that
    /// want to report it).
    pub fn resolved_cache_dir(&self) -> PathBuf {
        self.cache_dir.clone().unwrap_or_else(default_cache_dir)
    }
}

/// `results/cache/` relative to the workspace root.
pub fn default_cache_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

/// One invariant-check failure, attributed to its cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellViolation {
    /// Index of the cell in the campaign's spec order.
    pub cell: usize,
    /// `Cell::label()` of the offender.
    pub label: String,
    pub message: String,
}

/// What a campaign did and produced. `outputs[i]` always corresponds to
/// `cells[i]` — the merge order is the spec order, independent of thread
/// count, scheduling and cache state.
#[derive(Debug)]
pub struct CampaignReport {
    pub outputs: Vec<CellOutput>,
    /// Cells actually executed this run (includes corrupt-entry recomputes).
    pub executed: usize,
    /// Cells served from the on-disk cache.
    pub cache_hits: usize,
    /// Cache entries that failed verification and were recomputed.
    pub corrupt_entries: usize,
    /// Invariant violations, sorted by `cell` (spec index); one cell's
    /// violations keep the order its checker reported them in. Independent
    /// of thread count and execution order.
    pub violations: Vec<CellViolation>,
    /// Campaign-wide observability aggregate: every cell's deterministic
    /// [`ObsSnapshot`](wire_obs::ObsSnapshot) merged in spec order, so the
    /// result is byte-identical at any thread count and for any mix of
    /// cached and freshly-executed cells.
    pub obs: wire_obs::ObsSnapshot,
    pub wall: Duration,
}

/// Run every cell, honoring the cache, and merge deterministically.
pub fn run_campaign(cells: &[Cell], cfg: &CampaignConfig) -> CampaignReport {
    let t0 = Instant::now();
    let threads = cfg.resolved_threads();
    let cache_dir = cfg.resolved_cache_dir();
    let mut slots: Vec<Option<CellOutput>> = vec![None; cells.len()];
    let mut corrupt_entries = 0usize;
    let mut misses: Vec<(usize, &Cell)> = Vec::new();

    for (i, cell) in cells.iter().enumerate() {
        match cfg.mode {
            CacheMode::Resume => match cache::load(&cache_dir, cache_key(cell)) {
                Ok(out) => slots[i] = Some(out),
                Err(CacheMiss::Absent) => misses.push((i, cell)),
                Err(CacheMiss::Corrupt(reason)) => {
                    eprintln!(
                        "wire-campaign: discarding corrupt cache entry for {} ({reason}); recomputing",
                        cell.label()
                    );
                    corrupt_entries += 1;
                    misses.push((i, cell));
                }
            },
            CacheMode::Force | CacheMode::Off => misses.push((i, cell)),
        }
    }
    // longest-processing-time first: the pool hands out one cell per claim
    // in this order, so the heaviest cells start at once on separate
    // workers and the light ones fill in around them; the sort is stable, so
    // ties keep spec order. The hint is computed once per cell and also
    // weights the progress ETA (a zero hint still counts one)
    let mut work: Vec<(usize, &Cell, u64)> = misses
        .into_iter()
        .map(|(i, cell)| (i, cell, cell.cost_hint().max(1)))
        .collect();
    work.sort_by_key(|w| Reverse(w.2));

    let cache_hits = cells.len() - work.len();
    let total_work = work.len();
    let done = AtomicUsize::new(0);
    // the ETA is weighted by cost hint, not by cell count: heaviest-first
    // finishes few cells early and many late
    let total_hint: u64 = work.iter().map(|w| w.2).sum();
    let done_hint = AtomicU64::new(0);
    let progress_t0 = Instant::now();
    let violations: Mutex<Vec<CellViolation>> = Mutex::new(Vec::new());

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction is infallible");
    let executed: Vec<(usize, CellOutput)> = pool.install(|| {
        work.into_par_iter()
            .map(|(i, cell, hint)| {
                let (out, cell_violations) = execute(cell, cfg.check);
                if !cell_violations.is_empty() {
                    let mut v = violations.lock().unwrap_or_else(|e| e.into_inner());
                    for message in cell_violations {
                        v.push(CellViolation {
                            cell: i,
                            label: cell.label(),
                            message,
                        });
                    }
                }
                if cfg.mode != CacheMode::Off {
                    if let Err(e) = cache::store(&cache_dir, cache_key(cell), &out) {
                        eprintln!(
                            "wire-campaign: cannot store cache entry for {}: {e}",
                            cell.label()
                        );
                    }
                }
                if cfg.progress {
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    let finished = done_hint.fetch_add(hint, Ordering::Relaxed) + hint;
                    let elapsed = progress_t0.elapsed().as_secs_f64();
                    let eta =
                        elapsed * (total_hint - finished) as f64 / finished as f64;
                    eprint!(
                        "\rcampaign: {k}/{total_work} cells ({cache_hits} cached) elapsed {elapsed:.1}s eta {eta:.1}s   "
                    );
                }
                (i, out)
            })
            .collect()
    });
    if cfg.progress && total_work > 0 {
        eprintln!();
    }

    // ordered deterministic merge: executed results land back in their spec
    // slots, so downstream CSVs are byte-identical at any thread count
    let executed_count = executed.len();
    for (i, out) in executed {
        slots[i] = Some(out);
    }
    let outputs: Vec<CellOutput> = slots
        .into_iter()
        .map(|s| s.expect("every cell resolved from cache or execution"))
        .collect();
    // fold per-cell snapshots in spec order — NOT execution order — so the
    // campaign-wide aggregate is independent of threading and cache state
    let mut obs = wire_obs::ObsSnapshot::default();
    for out in &outputs {
        obs.merge(&out.obs);
    }
    // violations were pushed in completion order; a stable sort by spec
    // index makes the list deterministic without reordering within a cell
    let mut violations = violations.into_inner().unwrap_or_else(|e| e.into_inner());
    violations.sort_by_key(|v| v.cell);
    CampaignReport {
        outputs,
        executed: executed_count,
        cache_hits,
        corrupt_entries,
        violations,
        obs,
        wall: t0.elapsed(),
    }
}
