//! Contract benches, criterion microbenches and the peak-RSS probe.
//!
//! Every paper artifact (Table I, Figures 2–6, the headline claims, the
//! ablations and sweeps, the pool timelines and the offline paired
//! analysis) regenerates through `wire campaign <target>`. The binaries
//! here check contracts that need a timed run:
//!
//! | binary    | content |
//! |-----------|---------|
//! | `obs`     | streaming-observability overhead contract |
//! | `traffic` | service-scale traffic throughput contract |
//!
//! Each writes its evidence to `results/BENCH_*.json` and exits non-zero
//! when a documented budget is exceeded.

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
