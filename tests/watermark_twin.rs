//! Differential test of the controller's done-prefix window.
//!
//! `MonitorSnapshot::done_prefix` is documented as always sound to ignore:
//! a consumer fed `done_prefix: 0` must decide exactly what it decides with
//! the engine's watermark. WIRE's controller windows its per-tick work there
//! (the lookahead's per-task columns, the live-task cursor), so a twin that
//! runs two `WirePolicy`s side by side — one on the engine's snapshot, one
//! on the same snapshot with the watermark erased — must produce equal
//! `PoolPlan`s on every tick, and `lookahead_into` must project the same
//! `Upcoming` from both. The sessions below make the watermark move the way
//! streams move it: many small workflows finishing in arrival order, DAGs
//! that finish out of order so a slot straddles the watermark, and a
//! budgeted spot cloud with family steering.

use wire::planner::{lookahead_into, LookaheadScratch};
use wire::prelude::*;
use wire::simcloud::RunError;
use wire_campaign::TrafficSpec;

/// Two policies fed the same tick, one with the watermark erased, plus the
/// evidence that the watermark actually moved.
struct Twin {
    windowed: WirePolicy,
    full: WirePolicy,
    scratch: [LookaheadScratch; 2],
    remaining: Vec<Millis>,
    values: Vec<Millis>,
    ticks: u64,
    /// Ticks whose watermark sat strictly inside a workflow slot.
    straddling: u64,
    max_prefix: usize,
}

impl Twin {
    fn new(policy: WirePolicy) -> Self {
        Twin {
            windowed: policy.clone(),
            full: policy,
            scratch: Default::default(),
            remaining: Vec::new(),
            values: Vec::new(),
            ticks: 0,
            straddling: 0,
            max_prefix: 0,
        }
    }
}

impl ScalingPolicy for Twin {
    fn name(&self) -> &str {
        "wire-twin"
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        let dp = snapshot.done_prefix;
        let erased = MonitorSnapshot {
            done_prefix: 0,
            ..*snapshot
        };
        let plan = self.windowed.plan(snapshot);
        let reference = self.full.plan(&erased);
        assert_eq!(
            plan, reference,
            "plans diverge at {} with done_prefix {dp}",
            snapshot.now
        );

        // The projection on its own, under estimates that change every tick
        // and include zeros (overdue pins and instant cascades): the windowed
        // scratch must not carry anything the full one would not.
        let n = snapshot.tasks.len();
        let tick = snapshot.now.as_ms() / 1_000;
        self.remaining.clear();
        self.values.clear();
        for i in 0..n as u64 {
            let r = Millis::from_secs((i * 7_919 + tick) % 7 * 15);
            self.remaining.push(r);
            self.values.push(r + Millis::from_secs(30));
        }
        let horizon = snapshot.config.mape_interval;
        let [windowed, full] = &mut self.scratch;
        let up = lookahead_into(windowed, snapshot, &self.remaining, &self.values, horizon);
        let up_full = lookahead_into(full, &erased, &self.remaining, &self.values, horizon);
        assert_eq!(
            up, up_full,
            "lookahead diverges at {} with done_prefix {dp}",
            snapshot.now
        );

        self.ticks += 1;
        self.max_prefix = self.max_prefix.max(dp);
        if snapshot
            .workflows
            .iter()
            .any(|s| (s.task_base as usize) < dp && dp < s.task_base as usize + s.num_tasks())
        {
            self.straddling += 1;
        }
        plan
    }
}

/// A reduced `traffic` tenant, built as `run_tenant` builds one: the same
/// config, template, seed derivation, arrivals and streaming recorder, at
/// 60 workflows instead of 1000.
#[test]
fn traffic_tenant_plans_identically_without_the_watermark() {
    let spec = TrafficSpec::with_total(60);
    let (wf, prof) = spec.template();
    let obs = StreamingRecorder::new();
    let mut twin = Twin::new(WirePolicy::default());
    twin.windowed = twin.windowed.with_obs(obs.clone());
    let mut session = Session::new(spec.config())
        .transfer(TransferModel::none())
        .policy(&mut twin)
        .seed(spec.seed);
    for at in spec.arrival_times(0) {
        session = session.submit_at(at, &wf, &prof);
    }
    let result = session.recording(obs).run().expect("tenant completes");
    assert_eq!(result.per_workflow.len(), 60);
    assert!(twin.ticks > 100, "only {} ticks", twin.ticks);
    // nearly every arrived task lies below the watermark by the end
    assert!(
        twin.max_prefix >= 8 * 55,
        "watermark peaked at {}",
        twin.max_prefix
    );
}

/// Parallel chains whose task ids run against their dependency order: in
/// chain `c`, task `6c + 1` waits on task `6c + 2`. Catalog DAGs number
/// tasks in stage order, so the task sitting at the watermark never has a
/// live predecessor there; here it does, which is what a mistake in the
/// lookahead's straddling-slot rows would get wrong.
fn zigzag_chains(chains: u32) -> (Workflow, ExecProfile) {
    let mut b = WorkflowBuilder::new("zigzag");
    let s = b.add_stage("s");
    for _ in 0..chains {
        let t: Vec<TaskId> = (0..6).map(|_| b.add_task(s, 1_000, 1_000)).collect();
        for w in [0, 2, 1, 4, 3, 5].windows(2) {
            b.add_dep(t[w[0]], t[w[1]]).unwrap();
        }
    }
    let wf = b.build().unwrap();
    let prof = ExecProfile::uniform(wf.num_tasks(), Millis::from_mins(4));
    (wf, prof)
}

/// Staggered submissions that finish out of order: once the first DAG is
/// done, the zigzag chains and then the long Epigenomics DAG hold the
/// watermark inside their slots while the later, shorter catalog DAGs
/// finish, then the watermark jumps past them.
#[test]
fn staggered_dags_plan_identically_across_a_straddled_slot() {
    let catalog = |k: u64, w: WorkloadId| w.generate(11 + k);
    let jobs = [
        catalog(0, WorkloadId::Tpch6S),
        zigzag_chains(3),
        catalog(2, WorkloadId::EpigenomicsS),
        catalog(3, WorkloadId::PageRankS),
        catalog(4, WorkloadId::Tpch1S),
        catalog(5, WorkloadId::Tpch6S),
    ];
    let cfg = CloudConfig {
        charging_unit: Millis::from_mins(5),
        launch_lag: Millis::from_mins(1),
        mape_interval: Millis::from_mins(1),
        ..CloudConfig::default()
    };
    let mut twin = Twin::new(WirePolicy::default());
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(&mut twin)
        .seed(5);
    for (k, (wf, prof)) in jobs.iter().enumerate() {
        session = session.submit_at(Millis::from_mins(3 * k as u64), wf, prof);
    }
    let result = session.run().expect("session completes");
    assert_eq!(result.per_workflow.len(), jobs.len());
    assert!(
        twin.straddling > 10,
        "watermark straddled a slot on only {} of {} ticks",
        twin.straddling,
        twin.ticks
    );
    assert!(twin.max_prefix > jobs[0].0.num_tasks());
}

/// A budgeted cloud with a discounted spot family, family steering on, and
/// staggered arrivals: the budget throttle and the spot choice read the
/// same lookahead tables the watermark now windows.
#[test]
fn budgeted_spot_session_plans_identically_without_the_watermark() {
    let jobs: Vec<(Workflow, ExecProfile)> = [
        WorkloadId::Tpch6S,
        WorkloadId::EpigenomicsS,
        WorkloadId::PageRankS,
    ]
    .iter()
    .enumerate()
    .map(|(k, w)| w.generate(21 + k as u64))
    .collect();
    let slots = CloudConfig::default().slots_per_instance;
    let cfg = CloudConfig {
        charging_unit: Millis::from_mins(5),
        launch_lag: Millis::from_mins(1),
        mape_interval: Millis::from_mins(1),
        run_setup: Millis::ZERO,
        run_teardown: Millis::ZERO,
        families: vec![
            FamilySpec::new("on-demand", slots, 1_000),
            FamilySpec::new("spot", slots, 1_000).spot(Millis::from_mins(40), 300),
        ],
        ..CloudConfig::default()
    }
    .with_budget(40_000);
    let mut twin = Twin::new(WirePolicy::default().with_family_steering(0.5));
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(&mut twin)
        .seed(9);
    for (k, (wf, prof)) in jobs.iter().enumerate() {
        session = session.submit_at(Millis::from_mins(4 * k as u64), wf, prof);
    }
    match session.run() {
        Ok(_) | Err(RunError::TimeLimit { .. }) => {}
        Err(e) => panic!("run failed: {e}"),
    }
    assert!(twin.ticks > 20, "only {} ticks", twin.ticks);
    assert!(twin.max_prefix > 0, "the watermark never moved");
}
