//! Multi-workflow session integration tests: ensembles with staggered
//! arrivals must run to completion under every policy, with per-workflow
//! outcomes recorded and all conservation invariants intact.

use proptest::prelude::*;
use wire::campaign::run_ensemble;
use wire::core::experiment::{cloud_config, Setting};
use wire::prelude::*;
use wire_chaos::InvariantChecker;

#[test]
fn staggered_ensemble_completes_under_every_policy() {
    // Three distinct workloads, batched 10 minutes apart, one shared pool.
    let spec = EnsembleSpec::new(
        vec![
            WorkloadId::Tpch6S,
            WorkloadId::PageRankS,
            WorkloadId::Tpch1S,
        ],
        ArrivalProcess::Batch {
            gap: Millis::from_mins(10),
        },
    );
    let seed = 11;
    let members = spec.generate(seed);
    let total_tasks: usize = members.iter().map(|m| m.workflow.num_tasks()).sum();

    for setting in [
        Setting::FullSite,
        Setting::PureReactive,
        Setting::ReactiveConserving,
        Setting::Wire,
    ] {
        let r = run_ensemble(&spec, setting, Millis::from_mins(15), seed, None);
        assert_eq!(
            r.task_records.len(),
            total_tasks,
            "{}: every submitted task completes",
            setting.label()
        );
        assert_eq!(
            r.per_workflow.len(),
            3,
            "{}: one outcome per submitted workflow",
            setting.label()
        );
        assert!(r.bills_are_consistent(), "{}", setting.label());

        // per-workflow records line up with the arrival process and cover
        // the session: the last finisher defines the session makespan.
        let times = spec.arrival_times(seed);
        for (i, (out, &at)) in r.per_workflow.iter().zip(&times).enumerate() {
            assert_eq!(out.id, WorkflowId(i as u32), "submission order kept");
            assert_eq!(out.submitted_at, at, "{}: arrival honored", setting.label());
            assert_eq!(out.makespan, out.finished_at - out.submitted_at);
            assert!(
                out.slowdown >= 1.0 - 1e-9,
                "{}: slowdown {} below the critical-path bound",
                setting.label(),
                out.slowdown
            );
            assert!(out.finished_at <= r.makespan);
        }
        let last = r.per_workflow.iter().map(|o| o.finished_at).max().unwrap();
        assert_eq!(last, r.makespan, "{}", setting.label());
    }
}

#[test]
fn poisson_ensemble_runs_deterministically() {
    let spec = EnsembleSpec::uniform(
        WorkloadId::Tpch6S,
        4,
        ArrivalProcess::Poisson {
            mean_gap: Millis::from_mins(8),
        },
    );
    let a = run_ensemble(&spec, Setting::Wire, Millis::from_mins(15), 3, None);
    let b = run_ensemble(&spec, Setting::Wire, Millis::from_mins(15), 3, None);
    assert_eq!(a.charging_units, b.charging_units);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.pool_timeline, b.pool_timeline);
    assert_eq!(a.per_workflow, b.per_workflow);
    assert_eq!(a.workflow, "ensemble[4]");
}

// Conservation across a K-workflow session: every task of every submitted
// workflow completes exactly once, dependencies are honored workflow-locally,
// and the bill covers all consumed slot time.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_task_in_a_session_completes_exactly_once(
        k in 2usize..=4,
        seed in 0u64..500,
        gap_mins in 0u64..20,
    ) {
        let workloads = [WorkloadId::Tpch6S, WorkloadId::PageRankS, WorkloadId::Tpch1S, WorkloadId::EpigenomicsS];
        let spec = EnsembleSpec::new(
            workloads[..k].to_vec(),
            ArrivalProcess::Batch { gap: Millis::from_mins(gap_mins) },
        );
        let members = spec.generate(seed);
        let cfg = cloud_config(Setting::Wire, Millis::from_mins(15));
        let mut checker = InvariantChecker::new(&cfg);
        for m in &members {
            checker = checker
                .expect_workflow(m.workflow.num_tasks() as u32, m.workflow.num_stages() as u32);
        }
        let mut session = Session::new(cfg.clone())
            .transfer(TransferModel::default())
            .policy(WirePolicy::default())
            .seed(seed)
            .recording(checker.clone());
        for m in &members {
            session = session.submit_at(m.submit_at, &m.workflow, &m.profile);
        }
        let r = session.run().unwrap();
        let report = checker.report();
        prop_assert!(report.is_clean(), "{}", report.render());

        // exactly-once completion, counted per workflow
        let total: usize = members.iter().map(|m| m.workflow.num_tasks()).sum();
        prop_assert_eq!(r.task_records.len(), total);
        let mut seen = vec![false; total];
        let mut per_wf = vec![0usize; k];
        for rec in &r.task_records {
            prop_assert!(!seen[rec.task.index()], "duplicate completion record");
            seen[rec.task.index()] = true;
            per_wf[rec.workflow.index()] += 1;
        }
        for (i, m) in members.iter().enumerate() {
            prop_assert_eq!(per_wf[i], m.workflow.num_tasks(),
                "workflow {} task count", i);
        }

        // dependencies respected within each workflow's global id range
        let mut base = 0u32;
        for (i, m) in members.iter().enumerate() {
            let recs: Vec<_> = r.task_records.iter()
                .filter(|rec| rec.workflow == WorkflowId(i as u32))
                .collect();
            for rec in &recs {
                prop_assert!(rec.started_at >= m.submit_at,
                    "task ran before its workflow arrived");
                let local = TaskId(rec.task.0 - base);
                for &p in m.workflow.preds(local) {
                    let pg = TaskId(p.0 + base);
                    let pred = recs.iter().find(|q| q.task == pg).unwrap();
                    prop_assert!(pred.finished_at <= rec.started_at);
                }
            }
            base += m.workflow.num_tasks() as u32;
        }

        // billing covers consumed slot time
        let paid = r.charging_units
            * cfg.charging_unit.as_ms()
            * cfg.slots_per_instance as u64;
        prop_assert!(paid >= r.busy_slot_time.as_ms() + r.wasted_slot_time.as_ms());
        prop_assert!(r.peak_instances <= cfg.site_capacity);
    }
}
