//! Shared plumbing for the table/figure binaries that sit outside the
//! campaign runner.
//!
//! The campaign-backed figures (Figures 2, 3, 5 and 6, the headline claims,
//! the ablations, policy usage, the §IV-F overhead study and the scheduler,
//! spot and budget sweeps) regenerate through `wire campaign <target>`. The
//! binaries here cover the rest:
//!
//! | binary     | artifact | content |
//! |------------|----------|---------|
//! | `table1`   | Table I  | workload characteristics, paper vs generated |
//! | `fig4`     | Figure 4 | prediction-error CDFs per workload/class |
//! | `timeline` | Figs 5/6 | pool-size timelines, one run per setting |
//! | `analyze`  | Figure 5 | offline paired analysis of `results/campaign.csv` |
//! | `perf`     | —        | MAPE plan-tick cost trajectory |
//! | `obs`      | —        | streaming-observability overhead contract |
//! | `traffic`  | —        | service-scale traffic throughput contract |
//!
//! Binaries print aligned tables to stdout and drop CSV/JSON files under
//! `results/` (through `wire_campaign::figures`). Pass `--quick` for a
//! reduced sweep where a binary offers one.

/// `--quick` flag: smaller sweeps for CI-ish runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Best-effort peak-RSS probe: the process high-water mark (`VmHWM`) from
/// `/proc/self/status` on Linux, `None` where the file or field is absent.
/// Monotone over the process lifetime — sample it *after* each benchmark
/// cell; the delta between cells bounds the cell's net contribution.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}
