//! Regenerate Table I: workflow characteristics, paper-reported vs generated.

use wire_campaign::figures::emit;
use wire_core::Table;
use wire_dag::width_profile;
use wire_workloads::WorkloadId;

fn main() {
    let mut t = Table::new([
        "run",
        "framework",
        "data GB (paper)",
        "data GB (ours)",
        "stages",
        "agg hours (paper)",
        "agg hours (ours)",
        "tasks (paper)",
        "tasks (ours)",
        "tasks/stage (paper)",
        "tasks/stage (ours)",
        "stage mean s (paper)",
        "stage mean s (ours)",
    ]);
    for id in WorkloadId::ALL {
        let row = id.paper_row();
        let (wf, prof) = id.generate(1);
        let wp = width_profile(&wf);
        let min_w = wf.stages().iter().map(|s| s.len()).min().unwrap();
        let means: Vec<f64> = wf
            .stage_ids()
            .map(|s| prof.stage_mean_secs(&wf, s))
            .collect();
        let min_m = means.iter().copied().fold(f64::INFINITY, f64::min);
        let max_m = means.iter().copied().fold(0.0_f64, f64::max);
        t.push_row([
            row.name.to_string(),
            row.framework.to_string(),
            format!("{}", row.data_gb),
            format!("{:.3}", id.spec().total_input_bytes as f64 / 1e9),
            format!("{}", wf.num_stages()),
            format!("{}", row.aggregate_hours),
            format!("{:.3}", prof.aggregate().as_secs_f64() / 3600.0),
            format!("{}", row.total_tasks),
            format!("{}", wf.num_tasks()),
            format!("{}–{}", row.tasks_per_stage.0, row.tasks_per_stage.1),
            format!("{}–{}", min_w, wp.max_width()),
            format!(
                "{}–{}",
                row.avg_stage_exec_secs.0, row.avg_stage_exec_secs.1
            ),
            format!("{:.2}–{:.2}", min_m, max_m),
        ]);
    }
    emit(
        "Table I — example workflows (paper vs generated, seed 1)",
        "table1",
        &t,
    );
}
