//! CI chaos smoke: one seeded three-fault differential run.
//!
//! Checks, in order:
//! 1. a run with an *empty* fault plan is indistinguishable from a plain run
//!    (the chaos hooks cost nothing when unused);
//! 2. the same seed + plan reproduces the same `RunResult` bit-for-bit;
//! 3. the invariant checker and the Algorithm 2/3 decision postconditions
//!    hold throughout the faulted runs.
//!
//! Writes `results/CHAOS_report.json` either way (CI uploads it as an
//! artifact on failure) and exits non-zero on any violation.

use wire_chaos::{FaultPlan, InvariantChecker};
use wire_dag::{Millis, StageId};
use wire_planner::WirePolicy;
use wire_simcloud::{CloudConfig, InstanceId, RunResult, Session, TransferModel};
use wire_telemetry::json::{self, Json};
use wire_telemetry::TelemetryHandle;
use wire_workloads::WorkloadId;

const WORKLOAD: WorkloadId = WorkloadId::Tpch6S;
const SEED: u64 = 1;

/// The scripted three-fault storm: a full-pool wipe at the second stage's
/// first dispatch, a targeted kill, and a two-tick monitoring blackout.
fn storm() -> FaultPlan {
    FaultPlan::new()
        .kill_pool_at_stage_start(StageId(1))
        .kill_instance_at(Millis::from_mins(45), InstanceId(1))
        .freeze_monitoring(Millis::from_mins(60), 2)
}

fn run(plan: FaultPlan, checker: Option<&InvariantChecker>) -> RunResult {
    let (wf, prof) = WORKLOAD.generate(SEED);
    let cfg = CloudConfig::exogeni(Millis::from_mins(15));
    let handle = TelemetryHandle::new();
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(WirePolicy::default().with_telemetry(handle.clone()))
        .seed(SEED)
        .recording(checker.cloned())
        .chaos(plan)
        .submit(&wf, &prof)
        .run()
        .expect("chaos_diff run completes");
    if let Some(c) = checker {
        c.absorb_decisions(&handle.take().decisions);
    }
    result
}

/// (units, makespan, restarts, failures, launched, task count, pool timeline)
type Fingerprint = (u64, Millis, u32, u32, u32, usize, Vec<(Millis, u32)>);

/// The fields two identical runs must agree on (everything observable).
fn fingerprint(r: &RunResult) -> Fingerprint {
    (
        r.charging_units,
        r.makespan,
        r.restarts,
        r.failures,
        r.instances_launched,
        r.task_records.len(),
        r.pool_timeline.clone(),
    )
}

fn main() {
    let plain = run(FaultPlan::new(), None);
    let noop = run(FaultPlan::new(), None);
    let noop_identical = fingerprint(&plain) == fingerprint(&noop);

    let cfg = CloudConfig::exogeni(Millis::from_mins(15));
    let (wf, _) = WORKLOAD.generate(SEED);
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let a = run(storm(), Some(&checker));
    let b = run(storm(), None);
    let reproducible = fingerprint(&a) == fingerprint(&b);
    let report = checker.report();

    let ok = noop_identical && reproducible && report.is_clean();
    let violations = Json::Arr(report.violations.iter().map(|v| json::s(v)).collect());
    let json = format!(
        "{{\n  \"workload\": \"{:?}\",\n  \"seed\": {},\n  \"faults\": {},\n  \
         \"noop_plan_identical\": {},\n  \"storm_reproducible\": {},\n  \
         \"storm_failures\": {},\n  \"storm_restarts\": {},\n  \
         \"checker_events\": {},\n  \"checker_ticks\": {},\n  \
         \"violations\": {}\n}}\n",
        WORKLOAD,
        SEED,
        storm().len(),
        noop_identical,
        reproducible,
        a.failures,
        a.restarts,
        report.events,
        report.ticks,
        violations.render(),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/CHAOS_report.json", &json).expect("write CHAOS_report.json");

    print!("{}", report.render());
    println!("noop plan identical: {noop_identical}");
    println!("storm reproducible:  {reproducible}");
    println!("report: results/CHAOS_report.json");
    if !ok {
        eprintln!("chaos_diff: FAILED");
        std::process::exit(1);
    }
    println!("chaos_diff: OK");
}
