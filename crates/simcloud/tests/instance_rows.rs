//! The snapshot's instance rows persist across ticks and are re-rendered
//! only for instances marked as changed. This session churns the pool so
//! every marking site fires between ticks: launches and boots, dispatches
//! and finishes on 4-slot instances, OOM kills, drains, immediate
//! terminations, MTBF failures and spot evictions.
//!
//! Debug builds compare every maintained row with a fresh render inside the
//! engine on every tick; the policy here re-checks the rows against the
//! task rows, so a stale row also fails a release build.

use wire_dag::{ExecProfile, Millis, TaskId, Workflow, WorkflowBuilder};
use wire_simcloud::{
    CloudConfig, FamilySpec, InstanceStateView, MemoryProfile, MonitorSnapshot, PoolPlan,
    ScalingPolicy, Session, TaskView, TerminateWhen, TransferModel,
};

const SLOTS: u32 = 4;

/// Grows on odd ticks; every fourth tick shrinks by one immediate
/// termination of the newest running instance and one drain of a middle
/// one, always keeping a running instance. (Dispatch fills the lowest ids
/// first, so killing those would restart the same tasks forever.) Checks
/// the rows it is shown on every tick.
#[derive(Default)]
struct Churn {
    tick: u32,
    drains: u32,
    kills: u32,
}

impl ScalingPolicy for Churn {
    fn name(&self) -> &str {
        "churn"
    }

    fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
        check_rows(s);
        self.tick += 1;
        if self.tick % 2 == 1 {
            // alternate the on-demand and the spot family
            return PoolPlan::launch_onto(vec![0, 1, (self.tick / 2) % 2]);
        }
        let running: Vec<_> = s
            .instances
            .iter()
            .filter(|iv| iv.is_running())
            .map(|iv| iv.id)
            .collect();
        let mut plan = PoolPlan::keep();
        if self.tick.is_multiple_of(4) && running.len() >= 3 {
            let newest = running[running.len() - 1];
            let middle = running[running.len() / 2];
            plan.terminate.push((newest, TerminateWhen::Now));
            plan.terminate
                .push((middle, TerminateWhen::AtChargeBoundary));
            self.kills += 1;
            self.drains += 1;
        }
        plan
    }
}

/// Rows ascend by id, launching rows hold no task, each row's tasks run on
/// it per the task rows, and every running task sits in exactly one row.
fn check_rows(s: &MonitorSnapshot<'_>) {
    for pair in s.instances.windows(2) {
        assert!(pair[0].id < pair[1].id, "rows out of id order");
    }
    let mut held = 0;
    for iv in s.instances {
        assert_eq!(
            iv.tasks.len() as u32 + iv.free_slots,
            SLOTS,
            "{}: tasks + free slots",
            iv.id
        );
        if matches!(iv.state, InstanceStateView::Launching { .. }) {
            assert!(iv.tasks.is_empty(), "{} launching with tasks", iv.id);
        }
        for &t in &iv.tasks {
            assert!(
                matches!(s.tasks[t.index()], TaskView::Running { instance, .. } if instance == iv.id),
                "{} lists {t}, which does not run there",
                iv.id
            );
        }
        held += iv.tasks.len();
    }
    let running = s
        .tasks
        .iter()
        .filter(|t| matches!(t, TaskView::Running { .. }))
        .count();
    assert_eq!(held, running, "a running task is missing from its row");
}

/// Two stages of `width` tasks, the second joined on the first.
fn workflow(width: usize, seed: u64) -> (Workflow, ExecProfile) {
    let mut b = WorkflowBuilder::new("churn");
    let s0 = b.add_stage("a");
    let s1 = b.add_stage("b");
    let first: Vec<TaskId> = (0..width).map(|_| b.add_task(s0, 1_000, 1_000)).collect();
    for k in 0..width / 2 {
        let t = b.add_task(s1, 1_000, 1_000);
        b.add_dep(first[k], t).unwrap();
        b.add_dep(first[width - 1 - k], t).unwrap();
    }
    let wf = b.build().unwrap();
    let times = (0..wf.num_tasks() as u64)
        .map(|i| Millis::from_secs(30 + (i * 37 + seed * 11) % 150))
        .collect();
    (wf, ExecProfile::new(times))
}

#[test]
fn instance_rows_survive_a_churning_pool() {
    let (mut drains, mut kills) = (0, 0);
    let (mut failures, mut evictions, mut ooms, mut launched) = (0, 0, 0, 0);
    for seed in 0..6u64 {
        let (wf_a, prof_a) = workflow(24, seed);
        let (wf_b, prof_b) = workflow(16, seed + 1);
        let n = wf_a.num_tasks() + wf_b.num_tasks();
        // four co-resident peaks of up to 900 MB overrun a 2 GB instance
        let demands = vec![300; n];
        let peaks = (0..n).map(|i| 300 + (i as i64 * 173) % 600).collect();
        let memory = MemoryProfile::new(demands, peaks).unwrap();
        let cfg = CloudConfig {
            slots_per_instance: SLOTS,
            site_capacity: 12,
            initial_instances: 3,
            charging_unit: Millis::from_mins(5),
            launch_lag: Millis::from_mins(2),
            mape_interval: Millis::from_mins(1),
            mean_time_between_failures: Some(Millis::from_mins(40)),
            max_sim_time: Millis::from_hours(48),
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            families: vec![
                FamilySpec::new("od", SLOTS, 1_000).memory_mb(2_048),
                FamilySpec::new("spot", SLOTS, 1_000)
                    .memory_mb(2_048)
                    .spot(Millis::from_mins(15), 300),
            ],
            ..CloudConfig::default()
        };
        let mut policy = Churn::default();
        let r = Session::new(cfg)
            .transfer(TransferModel::none())
            .policy(&mut policy)
            .seed(seed)
            .memory(memory)
            .submit(&wf_a, &prof_a)
            .submit_at(Millis::from_mins(7), &wf_b, &prof_b)
            .run()
            .unwrap();
        assert_eq!(r.task_records.len(), n, "seed {seed}");
        drains += policy.drains;
        kills += policy.kills;
        failures += r.failures;
        evictions += r.evictions;
        ooms += r.oom_restarts;
        launched += r.instances_launched;
    }
    // the churn really happened at every kind of marking site
    assert!(drains > 0 && kills > 0, "drains {drains}, kills {kills}");
    assert!(failures > 0, "no MTBF failure");
    assert!(evictions > 0, "no spot eviction");
    assert!(ooms > 0, "no OOM restart");
    assert!(launched > 18, "launched only {launched}");
}
