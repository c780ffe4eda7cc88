//! Golden regression tests: exact cost/makespan values for fixed
//! (workload, setting, charging-unit, seed) combinations.
//!
//! These pin the *deterministic* behaviour of the whole stack — generators,
//! transfer model, scheduler, predictor, planner, billing. Any intentional
//! change to defaults or algorithm semantics will trip them; update the
//! constants deliberately (and note why in the commit) rather than loosening
//! the assertions.

mod common;

use common::{run_digest, GOLDEN, GOLDEN_DIGESTS};
use wire::campaign::Cell;
use wire::core::experiment::{build_policy, cloud_config_for};
use wire::prelude::*;
use wire_chaos::InvariantChecker;

#[test]
fn golden_costs_and_makespans() {
    for &(w, s, u, seed, units, makespan_ms) in GOLDEN {
        let r = Cell::grid(w, s, Millis::from_mins(u), seed).run(None, None);
        assert_eq!(
            r.charging_units,
            units,
            "{} / {} / u={u} / seed={seed}: cost changed",
            w.name(),
            s.label()
        );
        assert_eq!(
            r.makespan.as_ms(),
            makespan_ms,
            "{} / {} / u={u} / seed={seed}: makespan changed",
            w.name(),
            s.label()
        );
    }
}

fn wire_run_digest(workload: WorkloadId, seed: u64) -> u64 {
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    wire_run_digest_with(workload, seed, cfg).0
}

fn wire_run_digest_with(workload: WorkloadId, seed: u64, cfg: CloudConfig) -> (u64, RunResult) {
    wire_run_digest_memory(workload, seed, cfg, false)
}

/// [`wire_run_digest_with`], optionally with an attached memory profile in
/// which every task claims and peaks at 0 MB.
fn wire_run_digest_memory(
    workload: WorkloadId,
    seed: u64,
    cfg: CloudConfig,
    zero_memory: bool,
) -> (u64, RunResult) {
    let (wf, prof) = workload.generate(seed);
    let handle = TelemetryHandle::new();
    // The invariant checker rides every golden run: recorders are
    // observational, so teeing it in cannot (and must not) move the digest.
    let mut checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let policy = WirePolicy::default().with_telemetry(handle.clone());
    let mut session = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed);
    if zero_memory {
        let zeros = vec![0; wf.num_tasks()];
        let profile = MemoryProfile::new(zeros.clone(), zeros).unwrap();
        checker = checker.expect_memory(&profile);
        session = session.memory(profile);
    }
    let result = session
        .recording(Tee(handle.clone(), checker.clone()))
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    let buffer = handle.take();
    checker.absorb_decisions(&buffer.decisions);
    checker.assert_clean();
    (run_digest(&buffer, &result), result)
}

#[test]
fn golden_wire_trace_and_journal_digests() {
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let digest = wire_run_digest(w, seed);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: event stream or decision journal changed (digest {digest:#x})",
            w.name()
        );
    }
}

#[test]
fn explicit_legacy_family_row_is_byte_identical_to_the_empty_table() {
    // The differential spine of the heterogeneous-cloud change: spelling the
    // implicit legacy family out as an explicit one-row table (same slots,
    // unit speed, reference price, unlimited memory, no spot tier) must take
    // no new code path. The pinned digests cannot move by a byte, and the
    // bill must resolve to units × the reference price with zero evictions
    // and zero OOM restarts.
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let mut cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        cfg.families = vec![FamilySpec::legacy(cfg.slots_per_instance)];
        let (digest, result) = wire_run_digest_with(w, seed, cfg);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: an explicit legacy family row changed the run (digest {digest:#x})",
            w.name()
        );
        assert_eq!(
            result.cost_milli,
            result.charging_units * FamilySpec::LEGACY_PRICE_MILLI,
            "{} / seed={seed}: legacy pricing drifted",
            w.name()
        );
        assert_eq!(result.evictions, 0);
        assert_eq!(result.oom_restarts, 0);
    }
}

#[test]
fn an_all_zero_memory_profile_leaves_golden_digests_byte_identical() {
    // Without a profile every task claims and peaks at 0 MB, so attaching
    // those zeros explicitly is the same input to the one dispatch path:
    // the pinned digests cannot move by a byte.
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        let (digest, result) = wire_run_digest_memory(w, seed, cfg, true);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: an all-zero memory profile changed the run (digest {digest:#x})",
            w.name()
        );
        assert_eq!(result.oom_restarts, 0);
    }
}

#[test]
fn unset_budget_leaves_golden_digests_byte_identical() {
    // The differential spine of the budget-steering change: a cloud with no
    // budget field set must take no new code path — no spend scan, no
    // budget-verdict events, no journal stamps. The pinned digests cannot
    // move by a byte.
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        assert!(cfg.budget.is_none(), "default cloud grew a budget");
        let (digest, _) = wire_run_digest_with(w, seed, cfg);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: unconstrained run moved with the budget change (digest {digest:#x})",
            w.name()
        );
    }
}

#[test]
fn infinite_budget_equals_unconstrained_field_for_field() {
    // An explicit infinite ceiling (BudgetConfig::default) turns the ledger
    // on — spend is scanned, verdicts are emitted, decisions are stamped —
    // but the throttle must never bite: every run-level fact matches the
    // unconstrained run exactly. (The digest legitimately differs: the event
    // stream gains budget_verdict entries.)
    for &(w, seed, _) in GOLDEN_DIGESTS {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        let (_, base) = wire_run_digest_with(w, seed, cfg.clone());
        let (_, budgeted) = wire_run_digest_with(w, seed, cfg.with_budget(u64::MAX));
        let cell = format!("{} / seed={seed}", w.name());
        assert_eq!(base.charging_units, budgeted.charging_units, "{cell}");
        assert_eq!(base.makespan, budgeted.makespan, "{cell}");
        assert_eq!(base.cost_milli, budgeted.cost_milli, "{cell}");
        assert_eq!(base.restarts, budgeted.restarts, "{cell}");
        assert_eq!(
            base.instances_launched, budgeted.instances_launched,
            "{cell}"
        );
        assert_eq!(base.peak_instances, budgeted.peak_instances, "{cell}");
        assert_eq!(base.instance_time, budgeted.instance_time, "{cell}");
        assert_eq!(base.busy_slot_time, budgeted.busy_slot_time, "{cell}");
        assert_eq!(base.wasted_slot_time, budgeted.wasted_slot_time, "{cell}");
        assert_eq!(base.mape_iterations, budgeted.mape_iterations, "{cell}");
        assert_eq!(base.evictions, budgeted.evictions, "{cell}");
        assert_eq!(base.oom_restarts, budgeted.oom_restarts, "{cell}");
        assert_eq!(base.task_records, budgeted.task_records, "{cell}");
        assert_eq!(base.instance_bills, budgeted.instance_bills, "{cell}");
        assert_eq!(base.pool_timeline, budgeted.pool_timeline, "{cell}");
        assert_eq!(base.per_workflow, budgeted.per_workflow, "{cell}");
    }
}

#[test]
fn golden_session_n1_matches_a_static_fifo_engine_exactly() {
    // The two ways to build an engine — a one-submission Session (scheduler
    // behind the type-erased AnyScheduler) and `Engine::from_submissions_with`
    // with a statically-typed ReadyQueue — must be decision-identical: same
    // RNG draws, same event order, same bill, for every pinned golden cell.
    for &(w, s, u, seed, _, _) in GOLDEN {
        let (wf, prof) = w.generate(seed);
        let cfg = cloud_config_for(s, Millis::from_mins(u), w.spec().total_input_bytes);
        let SchedulerSpec::Fifo { first_five } = cfg.scheduler else {
            panic!("golden cells run a FIFO scheduler");
        };
        let direct = Engine::from_submissions_with(
            vec![(Millis::ZERO, &wf, &prof)],
            cfg.clone(),
            TransferModel::default(),
            build_policy(s, &cfg),
            seed,
            NoopRecorder,
            |tasks, stages| ReadyQueue::with_sizes(tasks, stages, first_five),
        )
        .and_then(|engine| engine.run())
        .unwrap();
        let session = Session::new(cfg.clone())
            .policy(build_policy(s, &cfg))
            .seed(seed)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        let cell = format!("{} / {}", w.name(), s.label());
        assert_eq!(direct.charging_units, session.charging_units, "{cell}");
        assert_eq!(direct.makespan, session.makespan, "{cell}");
        assert_eq!(direct.restarts, session.restarts, "{cell}");
        assert_eq!(
            direct.instances_launched, session.instances_launched,
            "{cell}"
        );
        assert_eq!(direct.task_records, session.task_records, "{cell}");
        assert_eq!(direct.instance_bills, session.instance_bills, "{cell}");
        assert_eq!(direct.pool_timeline, session.pool_timeline, "{cell}");
        assert_eq!(direct.per_workflow, session.per_workflow, "{cell}");
    }
}

#[test]
fn golden_wire_beats_full_site_in_the_pinned_cell() {
    // derived sanity on the pinned values: 12× cost gap on TPCH-6 S at u=15
    let wire = GOLDEN[0];
    let full = GOLDEN[1];
    assert_eq!(full.4 / wire.4, 12);
}
