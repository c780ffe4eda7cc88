//! Differential and metamorphic chaos suites: scripted fault plans must be
//! deterministic, inert when empty, order-insensitive where faults commute,
//! and policy-independent where the engine (not the policy) owns the
//! invariant — all with the invariant checker riding along.

mod common;

use common::{run_digest, GOLDEN_DIGESTS};
use wire::core::experiment::{cloud_config_for, Setting};
use wire::planner::OracleWirePolicy;
use wire::prelude::*;
use wire::simcloud::InstanceId;
use wire_chaos::{FaultPlan, InvariantChecker};

/// The golden run digest (`common::run_digest`) with an explicit (possibly
/// empty) fault plan attached and the invariant checker teed into the same
/// recorder slot.
fn wire_run_digest_chaotic(workload: WorkloadId, seed: u64, plan: FaultPlan) -> u64 {
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    let handle = TelemetryHandle::new();
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let policy = WirePolicy::default().with_telemetry(handle.clone());
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(Tee(handle.clone(), checker.clone()))
        .chaos(plan)
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    let buffer = handle.take();
    checker.absorb_decisions(&buffer.decisions);
    checker.assert_clean();
    run_digest(&buffer, &result)
}

#[test]
fn noop_fault_plan_reproduces_the_golden_digests_byte_identically() {
    // Attaching an empty plan (and the checker) must not shift a single
    // byte of the observable output: one pinned cell per workload.
    for (w, seed, expected) in [GOLDEN_DIGESTS[0], GOLDEN_DIGESTS[2]] {
        let digest = wire_run_digest_chaotic(w, seed, FaultPlan::new());
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: empty fault plan perturbed the run (digest {digest:#x})",
            w.name()
        );
    }
}

#[test]
fn commuting_faults_are_order_insensitive_in_the_plan() {
    // Lag jitter at 10min and a transfer spike at 20min touch disjoint state
    // at distinct times: declaring them in either order must yield the same
    // behaviour. (Only the behaviour: the `ChaosFault` telemetry events carry
    // plan *indices*, which legitimately swap under permutation, so the
    // comparison is on the run outcome, not the raw event bytes.)
    let ab = FaultPlan::new()
        .jitter_lag(Millis::from_mins(10), 0.4)
        .spike_transfers(Millis::from_mins(20), 2.0);
    let ba = FaultPlan::new()
        .spike_transfers(Millis::from_mins(20), 2.0)
        .jitter_lag(Millis::from_mins(10), 0.4);
    let a = run_with_policy(WorkloadId::Tpch6S, 5, WirePolicy::default(), ab);
    let b = run_with_policy(WorkloadId::Tpch6S, 5, WirePolicy::default(), ba);
    assert_eq!(a.charging_units, b.charging_units);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.instances_launched, b.instances_launched);
    assert_eq!(a.task_records, b.task_records);
    assert_eq!(a.pool_timeline, b.pool_timeline);
    assert_eq!(a.instance_bills, b.instance_bills);
}

fn run_with_policy<P: wire::simcloud::ScalingPolicy>(
    workload: WorkloadId,
    seed: u64,
    policy: P,
    plan: FaultPlan,
) -> RunResult {
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let r = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(checker.clone())
        .chaos(plan)
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    checker.assert_clean();
    r
}

#[test]
fn wire_and_oracle_complete_the_same_task_multiset_under_identical_faults() {
    // The engine owns exactly-once completion; the policy only shapes cost
    // and timing. Under the same fault plan, online WIRE and the oracle
    // (ground-truth estimates) must complete exactly the same task multiset.
    let storm = || {
        FaultPlan::new()
            .kill_pool_at_stage_start(StageId(1))
            .kill_instance_at(Millis::from_mins(50), InstanceId(0))
            .jitter_lag(Millis::from_mins(5), 0.3)
    };
    let workload = WorkloadId::Tpch6S;
    let seed = 2;
    let (wf, prof) = workload.generate(seed);

    let online = run_with_policy(workload, seed, WirePolicy::default(), storm());
    let oracle = run_with_policy(
        workload,
        seed,
        OracleWirePolicy::new(prof.clone(), TransferModel::default()),
        storm(),
    );

    let ids = |r: &RunResult| {
        let mut v: Vec<u32> = r.task_records.iter().map(|t| t.task.0).collect();
        v.sort_unstable();
        v
    };
    let expected: Vec<u32> = (0..wf.num_tasks() as u32).collect();
    assert_eq!(ids(&online), expected, "WIRE lost or duplicated tasks");
    assert_eq!(ids(&oracle), expected, "oracle lost or duplicated tasks");
}

#[test]
fn chaos_in_workflow_b_leaves_workflow_a_records_untouched() {
    // Two-workflow session; the second arrives after the first finishes.
    // A pool wipe while only B is running must resubmit B's work (release_now
    // path under a live multi-workflow layout) without perturbing one byte of
    // A's completed records.
    let (wf_a, prof_a) = WorkloadId::Tpch6S.generate(11);
    let (wf_b, prof_b) = WorkloadId::PageRankS.generate(11);
    let cfg = cloud_config_for(Setting::Wire, Millis::from_mins(15), 0);

    let run = |plan: FaultPlan| {
        let checker = InvariantChecker::new(&cfg)
            .expect_workflow(wf_a.num_tasks() as u32, wf_a.num_stages() as u32)
            .expect_workflow(wf_b.num_tasks() as u32, wf_b.num_stages() as u32);
        let r = Session::new(cfg.clone())
            .transfer(TransferModel::default())
            .policy(WirePolicy::default())
            .seed(11)
            .recording(checker.clone())
            .chaos(plan)
            .submit(&wf_a, &prof_a)
            .submit_at(Millis::from_mins(30), &wf_b, &prof_b)
            .run()
            .expect("session completes");
        checker.assert_clean();
        r
    };

    let calm = run(FaultPlan::new());
    // A's golden makespan is ~14.8 min, so by 40 min only B is on the pool.
    let stormy = run(FaultPlan::new().kill_pool_at(Millis::from_mins(40)));

    assert!(stormy.failures > 0, "the 40-min pool wipe must strike");
    let a_records = |r: &RunResult| {
        r.task_records
            .iter()
            .filter(|t| t.workflow == WorkflowId(0))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        a_records(&calm),
        a_records(&stormy),
        "workflow A's records changed because B crashed"
    );
    assert_eq!(calm.per_workflow[0], stormy.per_workflow[0]);
    // B actually paid for the crash
    let b_restarts: u32 = stormy
        .task_records
        .iter()
        .filter(|t| t.workflow == WorkflowId(1))
        .map(|t| t.restarts)
        .sum();
    assert!(b_restarts > 0, "B's tasks must record the resubmissions");
    assert_eq!(
        stormy.task_records.len(),
        wf_a.num_tasks() + wf_b.num_tasks()
    );
}

/// WIRE's cloud config with the whole pool moved onto a single discounted
/// spot family: every launch is eviction-exposed, so an aggressive eviction
/// mean turns the run into a kill storm without any scripted faults.
fn all_spot_cfg(mtbe_mins: u64) -> CloudConfig {
    let mut cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        WorkloadId::EpigenomicsS.spec().total_input_bytes,
    );
    let slots = cfg.slots_per_instance;
    cfg.families =
        vec![FamilySpec::new("spot", slots, 1000).spot(Millis::from_mins(mtbe_mins), 400)];
    cfg
}

#[test]
fn spot_kill_storm_keeps_every_invariant_and_every_task() {
    // Priced-eviction postconditions under provider-driven churn: across
    // seeds, the checker must stay clean (floor-billed evictions, spot-only
    // strikes, matching resubmits), every task must complete exactly once,
    // and the bill the checker re-derives from the event stream must equal
    // the engine's own ledger at the spot unit price.
    let mut total_evictions = 0u32;
    for seed in [3u64, 7, 11] {
        let (wf, prof) = WorkloadId::EpigenomicsS.generate(seed);
        let cfg = all_spot_cfg(10);
        let checker = InvariantChecker::new(&cfg)
            .expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
        let r = Session::new(cfg)
            .transfer(TransferModel::default())
            .policy(WirePolicy::default())
            .seed(seed)
            .recording(checker.clone())
            .submit(&wf, &prof)
            .run()
            .expect("kill-storm run completes");
        checker.assert_clean();
        total_evictions += r.evictions;
        let mut ids: Vec<u32> = r.task_records.iter().map(|t| t.task.0).collect();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..wf.num_tasks() as u32).collect();
        assert_eq!(ids, expected, "seed {seed}: tasks lost or duplicated");
        assert_eq!(
            checker.billed_milli(),
            r.cost_milli,
            "seed {seed}: re-derived bill disagrees with the engine ledger"
        );
        assert_eq!(r.cost_milli, r.charging_units * 400, "seed {seed}");
    }
    assert!(
        total_evictions > 0,
        "the storm must actually evict instances"
    );
}

#[test]
fn checker_catches_the_bill_eviction_grace_mutant() {
    // Teeth test: the hidden config knob bills the charging unit a spot
    // eviction interrupts instead of forgiving it. The checker's billing
    // postcondition must flag the overcharge on a real engine run.
    let seed = 3;
    let (wf, prof) = WorkloadId::EpigenomicsS.generate(seed);
    let mut cfg = all_spot_cfg(10);
    cfg.mutation_bill_eviction_grace = true;
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let r = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(WirePolicy::default())
        .seed(seed)
        .recording(checker.clone())
        .submit(&wf, &prof)
        .run()
        .expect("mutant run completes");
    assert!(
        r.evictions > 0,
        "the mutant needs a mid-unit eviction to bite"
    );
    let report = checker.report();
    assert!(
        !report.is_clean(),
        "the overcharging mutant went undetected"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("forgives the open unit")),
        "wrong violation flagged:\n{}",
        report.render()
    );
}

#[test]
fn checker_catches_the_budget_veto_mutant() {
    // Teeth test for the budget postconditions (hard veto + commit bound):
    // the policy-side mutation knob grows straight through the ceiling while
    // journaling honest ground facts. The extended checker must name the
    // violated hard veto on a real engine run; the same run without the
    // mutation must come back clean.
    let seed = 3;
    let workload = WorkloadId::EpigenomicsS;
    let (wf, prof) = workload.generate(seed);
    // ~0.1 × the natural bill at a 1-minute unit: committed spend crosses
    // the ceiling while Algorithm 3 is still asking for growth.
    let ceiling_milli = 8_000;

    let run = |mutate: bool| {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(1),
            workload.spec().total_input_bytes,
        )
        .with_budget(ceiling_milli);
        let handle = TelemetryHandle::new();
        let checker = InvariantChecker::new(&cfg)
            .expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
        let mut policy = WirePolicy::default().with_telemetry(handle.clone());
        policy.set_steering(wire::planner::SteeringConfig {
            mutation_ignore_budget_veto: mutate,
            ..Default::default()
        });
        let r = Session::new(cfg)
            .transfer(TransferModel::default())
            .policy(policy)
            .seed(seed)
            .recording(Tee(handle.clone(), checker.clone()))
            .submit(&wf, &prof)
            .run()
            .expect("budgeted run completes");
        let buffer = handle.take();
        checker.absorb_decisions(&buffer.decisions);
        (checker.report(), r)
    };

    let (clean_report, honest) = run(false);
    assert!(
        clean_report.is_clean(),
        "honest budgeted run must be violation-free:\n{}",
        clean_report.render()
    );

    let (mutant_report, mutant) = run(true);
    assert!(
        mutant.cost_milli > honest.cost_milli,
        "the mutant must actually outspend the throttled run ({} vs {})",
        mutant.cost_milli,
        honest.cost_milli
    );
    assert!(
        !mutant_report.is_clean(),
        "the veto-ignoring mutant went undetected"
    );
    assert!(
        mutant_report
            .violations
            .iter()
            .any(|v| v.contains("hard veto")),
        "wrong violation flagged:\n{}",
        mutant_report.render()
    );
}

#[test]
fn paused_arrivals_defer_a_workflow_without_losing_it() {
    let (wf_a, prof_a) = WorkloadId::Tpch6S.generate(4);
    let (wf_b, prof_b) = WorkloadId::Tpch1S.generate(4);
    let cfg = cloud_config_for(Setting::Wire, Millis::from_mins(15), 0);
    let checker = InvariantChecker::new(&cfg)
        .expect_workflow(wf_a.num_tasks() as u32, wf_a.num_stages() as u32)
        .expect_workflow(wf_b.num_tasks() as u32, wf_b.num_stages() as u32);
    let resume_at = Millis::from_mins(45);
    let r = Session::new(cfg.clone())
        .transfer(TransferModel::default())
        .policy(WirePolicy::default())
        .seed(4)
        .recording(checker.clone())
        .chaos(
            FaultPlan::new()
                .pause_arrivals(Millis::from_mins(5))
                .resume_arrivals(resume_at),
        )
        .submit(&wf_a, &prof_a)
        .submit_at(Millis::from_mins(10), &wf_b, &prof_b)
        .run()
        .expect("session completes");
    checker.assert_clean();
    assert_eq!(r.task_records.len(), wf_a.num_tasks() + wf_b.num_tasks());
    // B keeps its scheduled 10-min submission stamp (queueing delay is B's
    // slowdown, not a schedule rewrite), but none of its tasks may start
    // before the blackout lifted.
    assert_eq!(r.per_workflow[1].submitted_at, Millis::from_mins(10));
    let b_tasks: Vec<_> = r
        .task_records
        .iter()
        .filter(|t| t.workflow == WorkflowId(1))
        .collect();
    assert!(!b_tasks.is_empty());
    for t in b_tasks {
        assert!(
            t.started_at >= resume_at,
            "task {} ran at {} during the arrival blackout",
            t.task.0,
            t.started_at
        );
    }
}
