//! The engine keeps the monitor snapshot's task rows across MAPE ticks and
//! re-renders only the rows whose task changed phase, plus the running
//! rows whose ages move with the clock. In debug builds every tick asserts
//! that the maintained rows equal a fresh render of every visible task and
//! that the advertised dispatch order is the order the scheduler then pops.
//!
//! These sessions drive every phase-change site under a rank scheduler in a
//! multi-workflow session — dispatch, completion, resubmission after a pool
//! kill, spot eviction, OOM restart — plus frozen monitoring ticks, so the
//! debug oracle sees each transition. That oracle is the check: it lives in
//! the engine's `build_snapshot` under `cfg(debug_assertions)`, so it runs
//! whenever this suite runs in the default (dev) test profile. A release
//! run checks only the invariants and the task accounting below.

use wire::core::experiment::{cloud_config_for, Setting};
use wire::prelude::*;
use wire::simcloud::InstanceId;
use wire_chaos::{FaultPlan, InvariantChecker};

/// Three catalog DAGs arriving 20 minutes apart, so later arrivals append
/// rows while earlier workflows are mid-run.
const ENSEMBLE: [(WorkloadId, u64); 3] = [
    (WorkloadId::Tpch6S, 0),
    (WorkloadId::PageRankS, 20),
    (WorkloadId::EpigenomicsS, 40),
];

struct Scenario {
    name: &'static str,
    cfg: CloudConfig,
    plan: FaultPlan,
    memory: Option<i64>,
}

/// WIRE's cloud, ticking every 20 s instead of every 3 min so that many
/// tasks stay running across ticks without changing phase: their rows are
/// kept current only by the running-list refresh.
fn base_cfg() -> CloudConfig {
    CloudConfig {
        mape_interval: Millis::from_secs(20),
        ..cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            WorkloadId::EpigenomicsS.spec().total_input_bytes,
        )
    }
}

fn scenarios() -> Vec<Scenario> {
    let slots = base_cfg().slots_per_instance;
    let mut spot = base_cfg();
    spot.families = vec![FamilySpec::new("spot", slots, 1000).spot(Millis::from_mins(10), 400)];
    let mut small = base_cfg();
    // every task peaks at 700 MB: two co-resident tasks overrun 800 MB
    small.families = vec![FamilySpec::new("small", slots, 1000).memory_mb(800)];
    vec![
        Scenario {
            name: "kill-storm",
            cfg: base_cfg(),
            plan: FaultPlan::new()
                .kill_pool_at(Millis::from_mins(8))
                .kill_instance_at(Millis::from_mins(25), InstanceId(1))
                .kill_pool_at(Millis::from_mins(45)),
            memory: None,
        },
        Scenario {
            name: "spot-evictions",
            cfg: spot,
            plan: FaultPlan::new(),
            memory: None,
        },
        Scenario {
            name: "oom-restarts",
            cfg: small,
            plan: FaultPlan::new(),
            memory: Some(700),
        },
        Scenario {
            name: "blackout",
            cfg: base_cfg(),
            plan: FaultPlan::new()
                .freeze_monitoring(Millis::from_mins(5), 4)
                .freeze_monitoring(Millis::from_mins(30), 6),
            memory: None,
        },
    ]
}

fn run(sc: &Scenario, spec: SchedulerSpec) -> RunResult {
    let seed = 5;
    let dags: Vec<_> = ENSEMBLE
        .iter()
        .map(|&(w, at)| (w.generate(seed), Millis::from_mins(at)))
        .collect();
    let total: usize = dags.iter().map(|((wf, _), _)| wf.num_tasks()).sum();
    let mut checker = InvariantChecker::new(&sc.cfg);
    for ((wf, _), _) in &dags {
        checker = checker.expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    }
    let mut session = Session::new(sc.cfg.clone())
        .scheduler(spec)
        .transfer(TransferModel::default())
        .policy(WirePolicy::default())
        .seed(seed)
        .chaos(sc.plan.clone());
    if let Some(peak) = sc.memory {
        let mem = MemoryProfile::uniform(total, 200, peak).unwrap();
        checker = checker.expect_memory(&mem);
        session = session.memory(mem);
    }
    let mut session = session.recording(checker.clone());
    for ((wf, prof), at) in &dags {
        session = session.submit_at(*at, wf, prof);
    }
    let r = session
        .run()
        .unwrap_or_else(|e| panic!("{} / {}: {e:?}", sc.name, spec.tag()));
    checker.assert_clean();
    let mut ids: Vec<u32> = r.task_records.iter().map(|t| t.task.0).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..total as u32).collect::<Vec<_>>(),
        "{} / {}: tasks lost or duplicated",
        sc.name,
        spec.tag()
    );
    r
}

#[test]
fn incremental_snapshot_matches_a_fresh_render_through_every_transition() {
    for sc in scenarios() {
        for spec in [SchedulerSpec::Portfolio, SchedulerSpec::Heft] {
            let label = format!("{} / {}", sc.name, spec.tag());
            let inc = run(&sc, spec);
            // each scenario must actually reach the transition it targets
            match sc.name {
                "kill-storm" => assert!(inc.failures > 0 && inc.restarts > 0, "{label}"),
                "spot-evictions" => assert!(inc.evictions > 0 && inc.restarts > 0, "{label}"),
                "oom-restarts" => assert!(inc.oom_restarts > 0, "{label}"),
                _ => {}
            }
        }
    }
}

/// The blackout must freeze ticks: fewer MAPE iterations than the same run
/// with monitoring left on.
#[test]
fn blackout_scenario_actually_skips_ticks() {
    let all = scenarios();
    let blackout = all.iter().find(|s| s.name == "blackout").unwrap();
    let calm = Scenario {
        name: "calm",
        cfg: base_cfg(),
        plan: FaultPlan::new(),
        memory: None,
    };
    let frozen = run(blackout, SchedulerSpec::Portfolio);
    let live = run(&calm, SchedulerSpec::Portfolio);
    assert!(
        frozen.mape_iterations < live.mape_iterations,
        "blackout ran {} ticks, calm run {}",
        frozen.mape_iterations,
        live.mape_iterations
    );
}
