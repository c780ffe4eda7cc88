//! Campaign persistence: flatten experiment grids to CSV and reload them for
//! offline analysis, so expensive grids (Figures 5/6) can be archived and
//! re-summarized without re-running the simulator.

use crate::experiment::{GridResult, Setting};
use crate::report::Table;
use serde::{Deserialize, Serialize};

/// One run of one grid cell, flattened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatRun {
    pub workload: String,
    pub setting: String,
    pub charging_unit_mins: f64,
    pub repetition: usize,
    pub cost_units: u64,
    pub makespan_secs: f64,
    pub peak_instances: u32,
    pub restarts: u32,
    pub busy_slot_secs: f64,
    pub wasted_slot_secs: f64,
}

/// Flatten grid results, one row per repetition.
pub fn flatten(results: &[GridResult]) -> Vec<FlatRun> {
    let mut rows = Vec::new();
    for g in results {
        for (k, r) in g.runs.iter().enumerate() {
            // parse_csv splits on bare commas; keep the format round-trippable
            debug_assert!(
                !g.workload.name().contains(',') && !g.setting.label().contains(','),
                "campaign fields must not contain commas"
            );
            rows.push(FlatRun {
                workload: g.workload.name().to_string(),
                setting: g.setting.label().to_string(),
                charging_unit_mins: g.charging_unit.as_mins_f64(),
                repetition: k,
                cost_units: r.charging_units,
                makespan_secs: r.makespan.as_secs_f64(),
                peak_instances: r.peak_instances,
                restarts: r.restarts,
                busy_slot_secs: r.busy_slot_time.as_secs_f64(),
                wasted_slot_secs: r.wasted_slot_time.as_secs_f64(),
            });
        }
    }
    rows
}

/// Render flattened runs as CSV.
pub fn to_csv(rows: &[FlatRun]) -> String {
    let mut t = Table::new([
        "workload",
        "setting",
        "u_mins",
        "rep",
        "cost_units",
        "makespan_secs",
        "peak_instances",
        "restarts",
        "busy_slot_secs",
        "wasted_slot_secs",
    ]);
    for r in rows {
        t.push_row([
            r.workload.clone(),
            r.setting.clone(),
            format!("{}", r.charging_unit_mins),
            r.repetition.to_string(),
            r.cost_units.to_string(),
            format!("{}", r.makespan_secs),
            r.peak_instances.to_string(),
            r.restarts.to_string(),
            format!("{}", r.busy_slot_secs),
            format!("{}", r.wasted_slot_secs),
        ]);
    }
    t.to_csv()
}

/// Parse field `what` of CSV line `line`. Counts parse as unsigned
/// integers, so `-1`, `2.9` or `nan` there is an error, never a cast.
fn field<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| format!("line {line}: bad {what}: {e}"))
}

/// Parse a campaign CSV produced by [`to_csv`]. Every float column must be
/// finite and non-negative, and the charging unit positive.
pub fn parse_csv(text: &str) -> Result<Vec<FlatRun>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty csv")?;
    if !header.starts_with("workload,setting,u_mins") {
        return Err(format!("unexpected header: {header}"));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 10 {
            return Err(format!(
                "line {}: expected 10 fields, got {}",
                i + 2,
                f.len()
            ));
        }
        let line = i + 2;
        let float = |s: &str, what: &str| {
            field::<f64>(s, what, line).and_then(|v| {
                (v.is_finite() && v >= 0.0)
                    .then_some(v)
                    .ok_or(format!("line {line}: bad {what}: {v}"))
            })
        };
        let u_mins = float(f[2], "u_mins")?;
        if u_mins == 0.0 {
            return Err(format!("line {line}: bad u_mins: {u_mins}"));
        }
        rows.push(FlatRun {
            workload: f[0].to_string(),
            setting: f[1].to_string(),
            charging_unit_mins: u_mins,
            repetition: field(f[3], "rep", line)?,
            cost_units: field(f[4], "cost", line)?,
            makespan_secs: float(f[5], "makespan")?,
            peak_instances: field(f[6], "peak", line)?,
            restarts: field(f[7], "restarts", line)?,
            busy_slot_secs: float(f[8], "busy")?,
            wasted_slot_secs: float(f[9], "wasted")?,
        });
    }
    Ok(rows)
}

/// Offline summary from a reloaded campaign: mean cost and makespan per
/// (workload, setting, u) cell.
pub fn summarize(rows: &[FlatRun]) -> Table {
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<(String, String, String), Vec<&FlatRun>> = BTreeMap::new();
    for r in rows {
        cells
            .entry((
                r.workload.clone(),
                r.setting.clone(),
                format!("{}", r.charging_unit_mins),
            ))
            .or_default()
            .push(r);
    }
    let mut t = Table::new([
        "workload",
        "setting",
        "u (min)",
        "runs",
        "mean cost",
        "mean makespan (min)",
    ]);
    for ((w, s, u), runs) in cells {
        let n = runs.len() as f64;
        let cost = runs.iter().map(|r| r.cost_units as f64).sum::<f64>() / n;
        let mk = runs.iter().map(|r| r.makespan_secs).sum::<f64>() / n / 60.0;
        t.push_row([
            w,
            s,
            u,
            runs.len().to_string(),
            format!("{cost:.2}"),
            format!("{mk:.2}"),
        ]);
    }
    t
}

/// Sanity helper: the settings a campaign is expected to contain.
pub fn expected_settings() -> Vec<&'static str> {
    Setting::ALL.iter().map(|s| s.label()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::tests::small_grid;

    #[test]
    fn csv_round_trip() {
        let results = small_grid(3);
        let rows = flatten(&results);
        assert_eq!(rows.len(), 4); // 2 cells × 2 reps
        let csv = to_csv(&rows);
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed, rows);
    }

    #[test]
    fn summarize_groups_cells() {
        let results = small_grid(3);
        let rows = flatten(&results);
        let table = summarize(&rows);
        assert_eq!(table.num_rows(), 2);
        let rendered = table.render();
        assert!(rendered.contains("full-site"));
        assert!(rendered.contains("wire"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("nonsense,header\n1,2").is_err());
        let ok_header = "workload,setting,u_mins,rep,cost_units,makespan_secs,peak_instances,restarts,busy_slot_secs,wasted_slot_secs";
        assert!(parse_csv(&format!("{ok_header}\nx,y,z")).is_err());
        assert!(parse_csv(&format!("{ok_header}\nw,s,abc,0,1,2,3,4,5,6")).is_err());
        // a negative measurement or a non-positive charging unit is no run
        assert!(parse_csv(&format!("{ok_header}\nw,s,-15,0,1,2,3,4,5,6")).is_err());
        assert!(parse_csv(&format!("{ok_header}\nw,s,0,0,1,2,3,4,5,6")).is_err());
        assert!(parse_csv(&format!("{ok_header}\nw,s,15,0,1,-60,3,4,5,6")).is_err());
        assert!(parse_csv(&format!("{ok_header}\nw,s,15,0,1,60,3,4,-1,6")).is_err());
        // blank lines are fine
        assert_eq!(parse_csv(&format!("{ok_header}\n\n")).unwrap().len(), 0);
    }

    #[test]
    fn expected_settings_match() {
        assert_eq!(
            expected_settings(),
            vec!["full-site", "pure-reactive", "reactive-conserving", "wire"]
        );
    }
}
