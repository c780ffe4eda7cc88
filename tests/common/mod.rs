//! The golden pins, shared by `tests/golden.rs`, `tests/campaign.rs`,
//! `tests/chaos.rs` and `tests/obs.rs`: one table of pinned costs and
//! makespans, and the run digest (one blob layout, one hash, one table of
//! pins). Each test binary uses a subset.
#![allow(dead_code)]

use wire::prelude::*;

/// Pinned bills and makespans of fixed grid cells.
pub const GOLDEN: &[(WorkloadId, Setting, u64, u64, u64, u64)] = &[
    // (workload, setting, u_mins, seed, expected units, expected makespan_ms)
    //
    // Values are pinned against the vendored deterministic RNG
    // (vendor/rand, splitmix64): the original seed constants came from a
    // different generator and were re-derived when the RNG was vendored
    // into the repo. They were derived — and verified to pass — against the
    // PRE-optimization controller (the commit that vendored the RNG), so
    // hot-path commits that claim to change zero decisions must land with
    // these constants untouched.
    (WorkloadId::Tpch6S, Setting::Wire, 15, 1, 1, 886_732),
    (WorkloadId::Tpch6S, Setting::FullSite, 15, 1, 12, 574_631),
    (WorkloadId::PageRankS, Setting::Wire, 1, 2, 21, 1_209_958),
    (
        WorkloadId::PageRankS,
        Setting::ReactiveConserving,
        30,
        2,
        1,
        1_209_958,
    ),
    (WorkloadId::EpigenomicsS, Setting::Wire, 15, 3, 4, 2_642_446),
    (WorkloadId::Tpch1S, Setting::PureReactive, 60, 4, 8, 876_997),
];

/// Pinned digests of the *entire observable output* of a WIRE run: the
/// telemetry event stream, the MAPE decision journal, and the
/// billing/makespan summary. Any scratch-buffer or memoization change to
/// the hot path must keep these byte-identical — the optimizations are
/// required to change zero decisions.
pub const GOLDEN_DIGESTS: &[(WorkloadId, u64, u64)] = &[
    // (workload, seed, fnv1a of events+journal+summary)
    (WorkloadId::Tpch6S, 1, 0x3a84a8bcd96e413c),
    (WorkloadId::Tpch6S, 5, 0xd8ca60ae04e7f153),
    (WorkloadId::EpigenomicsS, 3, 0xed388bfc7a77f2ef),
    (WorkloadId::EpigenomicsS, 7, 0x5ec872e38055d573),
];

/// FNV-1a 64 of a run's blob: events JSONL, decisions JSONL, then one
/// summary line. Hand-rolled so the constant is stable across std versions
/// (DefaultHasher makes no such promise).
pub fn run_digest(buffer: &TelemetryBuffer, result: &RunResult) -> u64 {
    let mut blob = events_to_jsonl(buffer);
    blob.push_str(&decisions_to_jsonl(buffer));
    blob.push_str(&format!(
        "units={} makespan={} restarts={} launched={}\n",
        result.charging_units,
        result.makespan.as_ms(),
        result.restarts,
        result.instances_launched
    ));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in blob.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
