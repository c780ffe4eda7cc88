//! Streaming-observability contract tests.
//!
//! * composition: a [`StreamingRecorder`] teed into a golden WIRE run (next
//!   to the telemetry handle and the chaos invariant checker) must leave
//!   the pinned run digest untouched — observability observes, never
//!   perturbs;
//! * fidelity: the streaming aggregates must agree exactly with the full
//!   in-memory telemetry buffer recorded on the same run;
//! * determinism: the campaign-wide `OBS_snapshot` bytes must be identical
//!   at 1 and 8 worker threads, and identical between cold- and warm-cache
//!   runs (cache-served cells rehydrate their snapshots from disk).

use std::path::PathBuf;

use wire::core::experiment::{cloud_config_for, Setting};
use wire::prelude::*;
use wire_campaign::{run_campaign, run_ensemble, CacheMode, CampaignConfig, Cell};
use wire_chaos::InvariantChecker;

mod common;

use common::{run_digest, GOLDEN_DIGESTS};

/// Satellite: the streaming recorder rides through the chaos
/// `InvariantChecker` via the `Tee` combinator without moving a
/// pinned golden digest, and its aggregates match the full buffer.
#[test]
fn streaming_recorder_composes_without_perturbing_golden_digest() {
    // pinned WITHOUT the streaming recorder attached; re-derived below with
    // it teed in, the digest must land on the same value
    let (workload, seed, pinned) = GOLDEN_DIGESTS[0];
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    let handle = TelemetryHandle::new();
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let obs = StreamingRecorder::new();
    let policy = WirePolicy::default()
        .with_telemetry(handle.clone())
        .with_obs(obs.clone());
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(Tee(handle.clone(), Tee(checker.clone(), obs.clone())))
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    let buffer = handle.take();
    checker.absorb_decisions(&buffer.decisions);
    checker.assert_clean();

    assert_eq!(
        run_digest(&buffer, &result),
        pinned,
        "teeing the streaming recorder into a golden run moved the digest"
    );

    // fidelity: streaming counters agree exactly with the full buffer
    let snap = obs.snapshot();
    for kind in ["task_completed", "mape_tick", "instance_terminated"] {
        let buffered = buffer
            .events
            .iter()
            .filter(|(_, ev)| ev.kind() == kind)
            .count() as u64;
        assert_eq!(snap.counter(kind), buffered, "counter {kind} diverges");
    }
    let execs = &snap.sketches["task_exec_ms"];
    assert_eq!(execs.count, wf.num_tasks() as u64);
    // memoization counters flowed through the planner side-channel
    assert!(snap.health.memo_lookups > 0, "no memo lookups observed");
    assert!(
        snap.health.predictor_observations > 0,
        "no predictor intake observed"
    );
}

/// Ensembles populate the per-tenant and lifecycle aggregates.
#[test]
fn ensemble_populates_tenant_and_slowdown_aggregates() {
    let spec = EnsembleSpec::uniform(
        WorkloadId::Tpch6S,
        4,
        ArrivalProcess::Batch {
            gap: Millis::from_mins(8),
        },
    );
    let rec = StreamingRecorder::new();
    let result = run_ensemble(
        &spec,
        Setting::Wire,
        Millis::from_mins(15),
        7,
        Some(rec.clone()),
    );
    assert_eq!(result.per_workflow.len(), 4);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("workflow_submitted"), 4);
    assert_eq!(snap.counter("workflow_completed"), 4);
    let completed: u64 = snap.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(completed, 4);
    let slow = &snap.sketches["workflow_slowdown_milli"];
    assert_eq!(slow.count, 4);
    // a shared-pool run can never beat the single-tenant lower bound
    assert!(slow.min >= 1000.0, "slowdown below 1.0x: {}", slow.min);
    // bounded-memory accounting is monotone and live
    assert!(rec.state_bytes() <= rec.peak_state_bytes());
    assert!(rec.health().events_total > 0);
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wire-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn snapshot_cells() -> Vec<Cell> {
    let mut cells = vec![
        Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1),
        Cell::grid(
            WorkloadId::Tpch6S,
            Setting::FullSite,
            Millis::from_mins(15),
            1,
        ),
        Cell::grid(
            WorkloadId::PageRankS,
            Setting::ReactiveConserving,
            Millis::from_mins(30),
            2,
        ),
    ];
    let u = Millis::from_secs(60);
    for n in [10, 50] {
        cells.push(Cell::linear(n, u.scale(4.0), u));
    }
    cells
}

/// Satellite: the exported snapshot is byte-identical across thread counts
/// and across cold/warm cache state.
#[test]
fn obs_snapshot_bytes_are_thread_count_and_cache_invariant() {
    let cells = snapshot_cells();

    let uncached = |threads: usize| CampaignConfig {
        threads: Some(threads),
        mode: CacheMode::Off,
        ..Default::default()
    };
    let one = run_campaign(&cells, &uncached(1));
    let eight = run_campaign(&cells, &uncached(8));
    let bytes_one = one.obs.to_json_string();
    assert_eq!(
        bytes_one,
        eight.obs.to_json_string(),
        "OBS snapshot differs between 1 and 8 worker threads"
    );

    let dir = temp_cache("snapshot");
    let cached = CampaignConfig {
        threads: Some(4),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cached);
    let warm = run_campaign(&cells, &cached);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold.executed, cells.len());
    assert_eq!(
        warm.executed, 0,
        "warm run must serve everything from cache"
    );
    assert_eq!(
        cold.obs.to_json_string(),
        warm.obs.to_json_string(),
        "OBS snapshot differs between cold and warm cache"
    );
    assert_eq!(
        bytes_one,
        cold.obs.to_json_string(),
        "OBS snapshot differs between uncached and cached campaigns"
    );

    // and the bytes round-trip through the parser losslessly
    let parsed = wire::obs::ObsSnapshot::from_json_str(&bytes_one).expect("snapshot parses");
    assert_eq!(parsed.to_json_string(), bytes_one);
}
