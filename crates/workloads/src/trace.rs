//! Trace import/export — the reproduction's analogue of the paper's *task
//! emulator* (§IV-C2).
//!
//! The paper records per-task performance and dependencies from instrumented
//! Hadoop runs and replays them as Pegasus DAGs whose tasks "consume the
//! amount of resources according to the records". This module defines a
//! plain-text record format for exactly that data, so real traces (or traces
//! exported from one simulation) can be replayed as `(Workflow, ExecProfile)`
//! pairs.
//!
//! Format: one record per line, `#` comments, whitespace-insensitive fields:
//!
//! ```text
//! # task <id> <stage-name> <exec-ms> <input-bytes> <output-bytes>
//! task 0 map 13240 238000000 1200000
//! task 1 map 12830 238000000 1180000
//! task 2 reduce 4100 2400000 900000
//! # dep <from-id> <to-id>
//! dep 0 2
//! dep 1 2
//! ```
//!
//! Task ids must be dense (`0..n`) but may appear in any order; stages are
//! created in order of first appearance.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use wire_dag::{DagError, ExecProfile, Millis, StageId, TaskId, Workflow, WorkflowBuilder};

/// Errors raised while parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Line failed to parse; payload = (line number, message).
    Parse(usize, String),
    /// Task ids are not dense `0..n`.
    SparseIds,
    /// Duplicate definition of a task id.
    DuplicateTask(u32),
    /// A `dep` line references an undefined task.
    UnknownTask(u32),
    /// The dependency graph is invalid.
    Dag(DagError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            TraceError::SparseIds => write!(f, "task ids must be dense 0..n"),
            TraceError::DuplicateTask(id) => write!(f, "task {id} defined twice"),
            TraceError::UnknownTask(id) => write!(f, "dep references unknown task {id}"),
            TraceError::Dag(e) => write!(f, "invalid DAG: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

#[derive(Debug, Clone)]
struct TaskRecordLine {
    stage: String,
    exec: Millis,
    input_bytes: u64,
    output_bytes: u64,
}

/// Parse a trace into a runnable workflow + ground-truth profile.
pub fn parse_trace(name: &str, text: &str) -> Result<(Workflow, ExecProfile), TraceError> {
    let mut tasks: BTreeMap<u32, TaskRecordLine> = BTreeMap::new();
    let mut deps: Vec<(u32, u32)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let kind = fields.next().expect("non-empty line has a first field");
        let parse_u64 = |s: Option<&str>, what: &str| -> Result<u64, TraceError> {
            s.ok_or_else(|| TraceError::Parse(lineno + 1, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|e| TraceError::Parse(lineno + 1, format!("bad {what}: {e}")))
        };
        // ids are u32 and dense, so the largest valid one is below u32::MAX
        let parse_id = |s: Option<&str>, what: &str| -> Result<u32, TraceError> {
            let id = parse_u64(s, what)?;
            u32::try_from(id)
                .ok()
                .filter(|&id| id < u32::MAX)
                .ok_or_else(|| TraceError::Parse(lineno + 1, format!("{what} {id} out of range")))
        };
        match kind {
            "task" => {
                let id = parse_id(fields.next(), "task id")?;
                let stage = fields
                    .next()
                    .ok_or_else(|| TraceError::Parse(lineno + 1, "missing stage name".into()))?
                    .to_string();
                let exec_ms = parse_u64(fields.next(), "exec-ms")?;
                let input = parse_u64(fields.next(), "input-bytes")?;
                let output = parse_u64(fields.next(), "output-bytes")?;
                if tasks
                    .insert(
                        id,
                        TaskRecordLine {
                            stage,
                            exec: Millis::from_ms(exec_ms),
                            input_bytes: input,
                            output_bytes: output,
                        },
                    )
                    .is_some()
                {
                    return Err(TraceError::DuplicateTask(id));
                }
            }
            "dep" => {
                let from = parse_id(fields.next(), "from id")?;
                let to = parse_id(fields.next(), "to id")?;
                deps.push((from, to));
            }
            other => {
                return Err(TraceError::Parse(
                    lineno + 1,
                    format!("unknown record kind '{other}'"),
                ));
            }
        }
    }

    // dense ids 0..n
    let n = tasks.len() as u32;
    if tasks.keys().next_back().map(|&k| k + 1).unwrap_or(0) != n {
        return Err(TraceError::SparseIds);
    }

    let mut b = WorkflowBuilder::new(name);
    let mut stage_ids: BTreeMap<String, StageId> = BTreeMap::new();
    let mut exec = Vec::with_capacity(tasks.len());
    for rec in tasks.values() {
        let stage = *stage_ids
            .entry(rec.stage.clone())
            .or_insert_with(|| b.add_stage(rec.stage.clone()));
        b.add_task(stage, rec.input_bytes, rec.output_bytes);
        exec.push(rec.exec);
    }
    for (from, to) in deps {
        if from >= n {
            return Err(TraceError::UnknownTask(from));
        }
        if to >= n {
            return Err(TraceError::UnknownTask(to));
        }
        b.add_dep(TaskId(from), TaskId(to))
            .map_err(TraceError::Dag)?;
    }
    let wf = b.build().map_err(TraceError::Dag)?;
    Ok((wf, ExecProfile::new(exec)))
}

/// Export a workflow + profile as a trace (round-trips through
/// [`parse_trace`]).
pub fn export_trace(wf: &Workflow, prof: &ExecProfile) -> String {
    assert!(prof.matches(wf), "profile must match the workflow");
    // The format keys stages by name, so exported names must be unique —
    // sanitize whitespace and uniquify collisions with a #index suffix.
    let mut seen = std::collections::BTreeMap::<String, u32>::new();
    let stage_names: Vec<String> = wf
        .stages()
        .iter()
        .map(|st| {
            // '#' starts a comment in the format; sanitize it away too
            let base: String = st
                .name
                .chars()
                .map(|c| {
                    if c.is_whitespace() || c == '#' {
                        '_'
                    } else {
                        c
                    }
                })
                .collect();
            match seen.get_mut(&base) {
                Some(n) => {
                    *n += 1;
                    format!("{base}__{n}")
                }
                None => {
                    seen.insert(base.clone(), 0);
                    base
                }
            }
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# wire trace: {} tasks, {} stages",
        wf.num_tasks(),
        wf.num_stages()
    );
    for t in wf.tasks() {
        let _ = writeln!(
            out,
            "task {} {} {} {} {}",
            t.id.0,
            stage_names[t.stage.index()],
            prof.exec_time(t.id).as_ms(),
            t.input_bytes,
            t.output_bytes
        );
    }
    for t in wf.task_ids() {
        for &p in wf.preds(t) {
            let _ = writeln!(out, "dep {} {}", p.0, t.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadId;

    const SAMPLE: &str = r#"
# a two-stage job
task 0 map 13240 238000000 1200000
task 1 map 12830 238000000 1180000
task 2 reduce 4100 2400000 900000   # trailing comment
dep 0 2
dep 1 2
"#;

    #[test]
    fn parses_sample_trace() {
        let (wf, prof) = parse_trace("sample", SAMPLE).unwrap();
        assert_eq!(wf.num_tasks(), 3);
        assert_eq!(wf.num_stages(), 2);
        assert_eq!(wf.num_edges(), 2);
        assert_eq!(prof.exec_time(TaskId(0)), Millis::from_ms(13240));
        assert_eq!(wf.task(TaskId(2)).input_bytes, 2_400_000);
        assert_eq!(wf.stage(StageId(0)).name, "map");
    }

    #[test]
    fn round_trips_a_generated_workload() {
        let (wf, prof) = WorkloadId::Tpch6S.generate(5);
        let text = export_trace(&wf, &prof);
        let (wf2, prof2) = parse_trace("roundtrip", &text).unwrap();
        assert_eq!(wf2.num_tasks(), wf.num_tasks());
        assert_eq!(wf2.num_stages(), wf.num_stages());
        assert_eq!(wf2.num_edges(), wf.num_edges());
        assert_eq!(prof2, prof);
        for t in wf.task_ids() {
            assert_eq!(wf2.task(t).input_bytes, wf.task(t).input_bytes);
            assert_eq!(wf2.preds(t), wf.preds(t));
        }
    }

    #[test]
    fn duplicate_stage_names_survive_round_trip() {
        use wire_dag::WorkflowBuilder;
        let mut b = WorkflowBuilder::new("dups");
        let s0 = b.add_stage("map");
        let s1 = b.add_stage("map"); // same display name, distinct stage
        let a = b.add_task(s0, 1, 1);
        let c = b.add_task(s1, 1, 1);
        b.add_dep(a, c).unwrap();
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(2, Millis::from_secs(1));
        let (wf2, _) = parse_trace("rt", &export_trace(&wf, &prof)).unwrap();
        assert_eq!(wf2.num_stages(), 2, "stages merged on round-trip");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            parse_trace("x", "task abc map 1 2 3"),
            Err(TraceError::Parse(1, _))
        ));
        assert!(matches!(
            parse_trace("x", "task 0 map 1"),
            Err(TraceError::Parse(1, _))
        ));
        assert!(matches!(
            parse_trace("x", "frobnicate 1 2"),
            Err(TraceError::Parse(1, _))
        ));
    }

    #[test]
    fn rejects_sparse_and_duplicate_ids() {
        assert_eq!(
            parse_trace("x", "task 0 m 1 1 1\ntask 2 m 1 1 1").unwrap_err(),
            TraceError::SparseIds
        );
        assert_eq!(
            parse_trace("x", "task 0 m 1 1 1\ntask 0 m 1 1 1").unwrap_err(),
            TraceError::DuplicateTask(0)
        );
    }

    #[test]
    fn rejects_out_of_range_ids() {
        // an id past u32 must not alias a smaller one, and u32::MAX must
        // not overflow the density check
        for text in [
            "task 4294967296 m 1 1 1",
            "task 4294967295 m 1 1 1",
            "task 0 m 1 1 1\ndep 0 4294967296",
        ] {
            assert!(
                matches!(parse_trace("x", text), Err(TraceError::Parse(_, _))),
                "{text}"
            );
        }
    }

    #[test]
    fn rejects_bad_deps() {
        assert_eq!(
            parse_trace("x", "task 0 m 1 1 1\ndep 0 9").unwrap_err(),
            TraceError::UnknownTask(9)
        );
        let cyclic = "task 0 m 1 1 1\ntask 1 m 1 1 1\ndep 0 1\ndep 1 0";
        assert!(matches!(parse_trace("x", cyclic), Err(TraceError::Dag(_))));
    }

    #[test]
    fn parsed_trace_is_runnable() {
        use wire_dag::critical_path_ms;
        let (wf, prof) = parse_trace("sample", SAMPLE).unwrap();
        // map tasks in parallel, then reduce
        assert_eq!(critical_path_ms(&wf, &prof), Millis::from_ms(13240 + 4100));
    }
}
