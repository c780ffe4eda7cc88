//! Exporters that read an [`ObsSnapshot`]: the per-window metrics CSV and
//! the human decision log, whose prediction-quality footer comes from the
//! snapshot's one prediction join. The raw-stream exporters (JSONL events,
//! Chrome trace, journal JSONL) stay in `wire_telemetry::export`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use wire_telemetry::export::{chrome_trace, decisions_to_jsonl, events_to_jsonl};
use wire_telemetry::TelemetryBuffer;

use crate::snapshot::{ObsSnapshot, WindowAgg};

/// Header of [`metrics_csv`].
pub const METRICS_CSV_HEADER: &str =
    "window,start_ms,arrivals,completions,tasks_completed,busy_ms,units,pred_n,pred_mae_ms,pred_p90_rel";

/// The snapshot's window rollups as CSV, one row per window in ascending
/// order, under [`METRICS_CSV_HEADER`]. `pred_mae_ms` is the window's mean
/// absolute prediction error and `pred_p90_rel` its p90 relative error (both
/// 0 on a window without joins). Windows folded into the evicted total come
/// first as one `evicted` row with an empty `start_ms`; a recorder built
/// with [`ObsConfig::per_interval`](crate::ObsConfig::per_interval) keeps
/// every window.
pub fn metrics_csv(snapshot: &ObsSnapshot) -> String {
    let rollup = &snapshot.windows;
    let mut out = format!("{METRICS_CSV_HEADER}\n");
    if rollup.evicted_windows > 0 {
        window_row(&mut out, "evicted", "", &rollup.evicted);
    }
    for (idx, w) in &rollup.live {
        let start = (idx * rollup.width_ms).to_string();
        window_row(&mut out, &idx.to_string(), &start, w);
    }
    out
}

fn window_row(out: &mut String, window: &str, start_ms: &str, w: &WindowAgg) {
    let mae_ms = w.pred_abs_err_ms_sum.checked_div(w.pred_n).unwrap_or(0);
    let _ = writeln!(
        out,
        "{window},{start_ms},{},{},{},{},{},{},{mae_ms},{:.3}",
        w.arrivals,
        w.completions,
        w.tasks_completed,
        w.busy_ms,
        w.units,
        w.pred_n,
        w.pred_rel_milli.quantile(0.9) / 1000.0,
    );
}

/// Human-readable decision log: one block per Plan step, then a footer
/// with the run's prediction quality from `snapshot.health`.
pub fn decision_log(buffer: &TelemetryBuffer, snapshot: &ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# WIRE MAPE decision journal\n");
    out.push_str("# one block per Plan step; Algorithm 2/3 inputs inline\n\n");
    for d in &buffer.decisions {
        out.push_str(&d.render_human());
    }
    let (abs, rel) = (
        &snapshot.health.pred_abs_err_ms,
        &snapshot.health.pred_rel_milli,
    );
    let _ = writeln!(
        out,
        "\n# prediction quality: n={} mae={:.1}s p50_rel={:.3} p90_rel={:.3}",
        abs.count,
        abs.mean() / 1000.0,
        rel.quantile(0.5) / 1000.0,
        rel.quantile(0.9) / 1000.0,
    );
    out
}

/// Write the full exporter set under `dir` with filenames `<stem>.*`:
/// `events.jsonl`, `trace.json`, `metrics.csv`, `decisions.log`,
/// `decisions.jsonl`. Creates `dir` if needed.
pub fn write_all(
    dir: &Path,
    stem: &str,
    buffer: &TelemetryBuffer,
    snapshot: &ObsSnapshot,
    slots_per_instance: u32,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let files = [
        ("events.jsonl", events_to_jsonl(buffer)),
        ("trace.json", chrome_trace(buffer, slots_per_instance)),
        ("metrics.csv", metrics_csv(snapshot)),
        ("decisions.log", decision_log(buffer, snapshot)),
        ("decisions.jsonl", decisions_to_jsonl(buffer)),
    ];
    for (suffix, text) in files {
        std::fs::write(dir.join(format!("{stem}.{suffix}")), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsState};
    use wire_dag::Millis;
    use wire_telemetry::TelemetryEvent;

    fn completed(task: u32, exec_ms: u64) -> TelemetryEvent {
        TelemetryEvent::TaskCompleted {
            task,
            stage: 0,
            instance: 0,
            slot: 0,
            exec: Millis::from_ms(exec_ms),
            transfer: Millis::ZERO,
            restarts: 0,
        }
    }

    fn snapshot(window_capacity: usize) -> ObsSnapshot {
        let mut st = ObsState::new(ObsConfig {
            window_ms: 1_000,
            window_capacity,
            ..ObsConfig::default()
        });
        st.note_plan_tick(&[(0, 1_600), (1, 2_000)], 0, 0);
        st.record(Millis::from_ms(500), &completed(0, 1_000));
        st.record(Millis::from_ms(2_500), &completed(1, 1_000));
        st.record(Millis::from_ms(2_600), &completed(2, 1_000));
        st.snapshot()
    }

    #[test]
    fn metrics_csv_has_one_row_per_window() {
        let csv = metrics_csv(&snapshot(usize::MAX));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            [
                METRICS_CSV_HEADER,
                // |1600-1000| = 600 ms abs, 0.6 rel
                "0,0,0,0,1,1000,0,1,600,0.600",
                // task 2 had no prediction: joins only task 1 (1000 ms abs)
                "2,2000,0,0,2,2000,0,1,1000,1.000",
            ]
        );
    }

    #[test]
    fn evicted_windows_fold_into_one_leading_row() {
        let csv = metrics_csv(&snapshot(1));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "evicted,,0,0,1,1000,0,1,600,0.600");
        assert_eq!(lines[2], "2,2000,0,0,2,2000,0,1,1000,1.000");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn decision_log_footer_reads_the_snapshot() {
        let log = decision_log(&TelemetryBuffer::new(), &snapshot(usize::MAX));
        assert!(
            log.ends_with("# prediction quality: n=2 mae=0.8s p50_rel=0.640 p90_rel=1.000\n"),
            "{log}"
        );
    }
}
