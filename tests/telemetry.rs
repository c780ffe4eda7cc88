//! End-to-end telemetry tests: a full WIRE run must produce a loadable
//! Chrome trace, a decision journal that explains every pool change, a
//! round-trippable JSONL event stream, and per-MAPE-interval metrics rows
//! that reconcile with the run.

use wire::campaign::Cell;
use wire::core::experiment::Setting;
use wire::dag::Millis;
use wire::obs::{ObsConfig, ObsSnapshot, StreamingRecorder};
use wire::simcloud::RunResult;
use wire::telemetry::json::Json;
use wire::telemetry::{
    export, json, DecisionAction, TelemetryBuffer, TelemetryEvent, TelemetryHandle,
};
use wire::workloads::WorkloadId;

/// A run that both grows and releases instances (epigenomics fans out to
/// hundreds of short tasks, then narrows).
fn cell() -> Cell {
    Cell::grid(
        WorkloadId::EpigenomicsS,
        Setting::Wire,
        Millis::from_mins(15),
        1,
    )
}

/// [`cell`] with full telemetry: the event stream and decision journal,
/// and a streaming recorder with one window per MAPE interval.
fn recorded() -> (RunResult, TelemetryBuffer, ObsSnapshot) {
    let cell = cell();
    let journal = TelemetryHandle::new();
    let obs = StreamingRecorder::with_config(ObsConfig::per_interval(cell.cfg.mape_interval));
    let result = cell.run(Some(journal.clone()), Some(obs.clone()));
    (result, journal.take(), obs.snapshot())
}

#[test]
fn chrome_trace_is_valid_and_tracks_are_well_formed() {
    let (_, buffer, _) = recorded();
    let text = export::chrome_trace(&buffer, 4);
    let v = json::parse(&text).expect("chrome trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // per (pid, tid) track, complete slices must not overlap: sorted by ts,
    // each slice starts at or after the previous one ends
    let mut tracks: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "X" {
            let pid = e.get("pid").and_then(Json::as_u64).expect("pid");
            let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
            let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_u64).expect("dur");
            tracks.entry((pid, tid)).or_default().push((ts, dur));
        }
    }
    assert!(!tracks.is_empty(), "no task slices in the trace");
    for ((pid, tid), mut slices) in tracks {
        slices.sort_unstable();
        let mut prev_end = 0u64;
        for (ts, dur) in slices {
            assert!(
                ts >= prev_end,
                "track {pid}/{tid}: slice at {ts} overlaps previous ending {prev_end}"
            );
            prev_end = ts + dur;
        }
    }
}

#[test]
fn every_pool_change_has_a_journaled_reason() {
    let (_, buffer, _) = recorded();
    assert!(!buffer.decisions.is_empty());

    // index the journal by tick timestamp
    let by_at: std::collections::HashMap<u64, &DecisionAction> = buffer
        .decisions
        .iter()
        .map(|d| (d.at.as_ms(), &d.action))
        .collect();

    let mut launches_seen = 0u32;
    let mut drains_seen = 0u32;
    for &(at, ev) in &buffer.events {
        match ev {
            // a launch may only happen when that tick's Plan said grow
            TelemetryEvent::InstanceRequested { .. } => {
                launches_seen += 1;
                match by_at.get(&at.as_ms()) {
                    Some(DecisionAction::Grow { launch }) => assert!(*launch >= 1),
                    other => {
                        panic!("instance requested at {at} without a grow decision: {other:?}")
                    }
                }
            }
            // a drain may only happen when that tick's Plan said release
            TelemetryEvent::InstanceDraining { .. } => {
                drains_seen += 1;
                match by_at.get(&at.as_ms()) {
                    Some(DecisionAction::Release { released, .. }) => assert!(*released >= 1),
                    other => {
                        panic!("instance draining at {at} without a release decision: {other:?}")
                    }
                }
            }
            _ => {}
        }
    }
    assert!(launches_seen > 0, "run never scaled out");

    // every release decision carries per-instance Algorithm 2 evidence
    for d in &buffer.decisions {
        if let DecisionAction::Release { .. } = d.action {
            assert!(
                !d.judgements.is_empty(),
                "release decision at {} without judgements",
                d.at
            );
        }
    }
    let _ = drains_seen;
}

#[test]
fn event_stream_round_trips_through_jsonl() {
    let (_, buffer, _) = recorded();
    let text = export::events_to_jsonl(&buffer);
    let back = export::parse_jsonl(&text).expect("jsonl parses");
    assert_eq!(back, buffer.events);
}

#[test]
fn metrics_csv_rows_are_mape_intervals_that_reconcile_with_the_run() {
    let (_, buffer, snap) = recorded();
    let csv = wire::obs::export::metrics_csv(&snap);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let (window, start, tasks, pred_n, mae, p90) = (
        col("window"),
        col("start_ms"),
        col("tasks_completed"),
        col("pred_n"),
        col("pred_mae_ms"),
        col("pred_p90_rel"),
    );
    let interval = cell().cfg.mape_interval.as_ms();

    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert!(rows.len() > 1, "one window for the whole run");
    let num = |row: &[&str], c: usize| -> u64 { row[c].parse().expect("integer cell") };
    let (mut sum_tasks, mut sum_pred_n, mut last_window) = (0, 0, None);
    for row in &rows {
        assert_eq!(row.len(), header.len(), "row width matches header");
        // one row per MAPE interval, ascending, none evicted
        let w = num(row, window);
        assert!(last_window < Some(w), "windows ascend");
        last_window = Some(w);
        assert_eq!(num(row, start), w * interval);
        sum_tasks += num(row, tasks);
        sum_pred_n += num(row, pred_n);
        let p90_rel: f64 = row[p90].parse().expect("p90 is a number");
        if num(row, pred_n) == 0 {
            assert_eq!((num(row, mae), p90_rel), (0, 0.0));
        } else {
            assert!(p90_rel.is_finite() && p90_rel >= 0.0);
        }
    }

    // every completed task lands in exactly one window
    let completed = buffer
        .events
        .iter()
        .filter(|(_, ev)| matches!(ev, TelemetryEvent::TaskCompleted { .. }))
        .count() as u64;
    assert_eq!(sum_tasks, completed);

    // the windows' joins are the joins the decision log's footer reports
    let log = wire::obs::export::decision_log(&buffer, &snap);
    let footer = log
        .lines()
        .find_map(|l| l.strip_prefix("# prediction quality: n="))
        .expect("quality footer");
    let footer_n: u64 = footer
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .expect("footer n");
    assert!(footer_n > 0, "no prediction was joined");
    assert_eq!(sum_pred_n, footer_n);
}

#[test]
fn recording_does_not_change_the_simulation() {
    let (recorded_run, _, _) = recorded();
    let plain = cell().run(None, None);
    assert_eq!(plain.makespan, recorded_run.makespan);
    assert_eq!(plain.charging_units, recorded_run.charging_units);
    assert_eq!(plain.restarts, recorded_run.restarts);
}

#[test]
fn write_all_writes_every_exporter() {
    let (_, buffer, snap) = recorded();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_write_all");
    wire::obs::export::write_all(&dir, "run", &buffer, &snap, 4).expect("exporters write");
    let read = |suffix: &str| std::fs::read_to_string(dir.join(format!("run.{suffix}"))).unwrap();
    assert_eq!(read("events.jsonl"), export::events_to_jsonl(&buffer));
    assert_eq!(read("trace.json"), export::chrome_trace(&buffer, 4));
    assert_eq!(read("metrics.csv"), wire::obs::export::metrics_csv(&snap));
    assert_eq!(
        read("decisions.log"),
        wire::obs::export::decision_log(&buffer, &snap)
    );
    assert_eq!(read("decisions.jsonl"), export::decisions_to_jsonl(&buffer));
}

/// `wire run --metrics-csv` needs only the streaming recorder; with
/// `--decisions` the raw buffer rides beside it through a `Tee`, and the
/// CSV comes out the same either way.
#[test]
fn wire_run_writes_window_rows_and_a_quality_footer() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let wire = |extra: &[String]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wire"))
            .args(["run", "tpch6-s", "--u", "15"])
            .args(extra)
            .output()
            .expect("wire runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    wire(&["--metrics-csv".into(), path("alone.csv")]);
    wire(&[
        "--metrics-csv".into(),
        path("teed.csv"),
        "--decisions".into(),
        path("decisions.log"),
    ]);
    let csv = std::fs::read_to_string(path("alone.csv")).unwrap();
    assert_eq!(csv, std::fs::read_to_string(path("teed.csv")).unwrap());
    assert!(csv.starts_with(wire::obs::export::METRICS_CSV_HEADER));
    let tasks: u64 = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(4).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(tasks, WorkloadId::Tpch6S.spec().num_tasks() as u64);
    let log = std::fs::read_to_string(path("decisions.log")).unwrap();
    assert!(log.contains("# prediction quality: n="), "{log}");
    assert!(!log.contains("# prediction quality: n=0 "), "{log}");
}
