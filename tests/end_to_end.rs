//! End-to-end integration: every Table I workload runs to completion under
//! every resource-management setting, and basic cross-crate invariants hold.

use wire::campaign::Cell;
use wire::core::experiment::{cloud_config, Setting};
use wire::prelude::*;

const U15: Millis = Millis(15 * 60_000);

#[test]
fn all_small_workloads_complete_under_all_settings() {
    for workload in WorkloadId::SMALL {
        let total = workload.generate(1).0.num_tasks();
        for setting in Setting::ALL {
            let r = Cell::grid(workload, setting, U15, 1).run(None, None);
            assert_eq!(
                r.task_records.len(),
                total,
                "{} under {}",
                workload.name(),
                setting.label()
            );
            assert!(r.charging_units >= 1);
            assert!(!r.makespan.is_zero());
        }
    }
}

#[test]
fn makespan_never_beats_critical_path() {
    for workload in WorkloadId::SMALL {
        let (wf, prof) = workload.generate(2);
        let lower = wire::dag::critical_path_ms(&wf, &prof);
        for setting in [Setting::FullSite, Setting::Wire] {
            let r = Cell::grid(workload, setting, U15, 2).run(None, None);
            assert!(
                r.makespan >= lower,
                "{} {}: makespan {} < critical path {}",
                workload.name(),
                setting.label(),
                r.makespan,
                lower
            );
        }
    }
}

#[test]
fn billing_covers_consumed_slot_time() {
    // billed slot capacity must be at least the slot time actually consumed
    for workload in WorkloadId::SMALL {
        for setting in Setting::ALL {
            let cfg = cloud_config(setting, U15);
            let r = Cell::grid(workload, setting, U15, 3).run(None, None);
            let paid_slot_ms = r.charging_units * U15.as_ms() * cfg.slots_per_instance as u64;
            let used = r.busy_slot_time.as_ms() + r.wasted_slot_time.as_ms();
            assert!(
                paid_slot_ms >= used,
                "{} {}: paid {paid_slot_ms} < used {used}",
                workload.name(),
                setting.label()
            );
        }
    }
}

#[test]
fn wire_cost_at_most_full_site_on_every_small_workload() {
    for workload in WorkloadId::SMALL {
        let full = Cell::grid(workload, Setting::FullSite, U15, 4).run(None, None);
        let wire = Cell::grid(workload, Setting::Wire, U15, 4).run(None, None);
        assert!(
            wire.charging_units <= full.charging_units,
            "{}: wire {} > full-site {}",
            workload.name(),
            wire.charging_units,
            full.charging_units
        );
    }
}

#[test]
fn full_site_is_fastest_setting() {
    for workload in [WorkloadId::EpigenomicsS, WorkloadId::PageRankS] {
        let full = Cell::grid(workload, Setting::FullSite, U15, 5).run(None, None);
        for setting in [
            Setting::PureReactive,
            Setting::ReactiveConserving,
            Setting::Wire,
        ] {
            let other = Cell::grid(workload, setting, U15, 5).run(None, None);
            assert!(
                other.makespan >= full.makespan,
                "{}: {} faster than full-site",
                workload.name(),
                setting.label()
            );
        }
    }
}

#[test]
fn runs_are_reproducible_across_processes_shape() {
    // same seed ⇒ identical cost and makespan for the stateful WIRE policy
    let a = Cell::grid(WorkloadId::PageRankS, Setting::Wire, U15, 11).run(None, None);
    let b = Cell::grid(WorkloadId::PageRankS, Setting::Wire, U15, 11).run(None, None);
    assert_eq!(a.charging_units, b.charging_units);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.task_records, b.task_records);
}

#[test]
fn per_instance_bills_sum_to_total() {
    for workload in WorkloadId::SMALL {
        for setting in Setting::ALL {
            let r = Cell::grid(workload, setting, U15, 9).run(None, None);
            assert!(
                r.bills_are_consistent(),
                "{} {}: bills do not reconcile with {} units and {} instance time: {:?}",
                workload.name(),
                setting.label(),
                r.charging_units,
                r.instance_time,
                r.instance_bills
            );
        }
    }
}

#[test]
fn site_capacity_never_exceeded() {
    for setting in Setting::ALL {
        let r =
            Cell::grid(WorkloadId::EpigenomicsS, setting, Millis::from_mins(1), 6).run(None, None);
        assert!(
            r.peak_instances <= 12,
            "{}: peak {} > site capacity",
            setting.label(),
            r.peak_instances
        );
    }
}

#[test]
fn task_records_are_internally_consistent() {
    let r = Cell::grid(WorkloadId::Tpch1S, Setting::Wire, U15, 7).run(None, None);
    for rec in &r.task_records {
        assert!(rec.ready_at <= rec.started_at, "{rec:?}");
        assert!(rec.started_at < rec.finished_at, "{rec:?}");
        assert_eq!(
            (rec.finished_at - rec.started_at).as_ms(),
            (rec.exec_time + rec.transfer_time).as_ms(),
            "occupancy mismatch {rec:?}"
        );
        assert!(rec.finished_at <= r.makespan);
    }
}

#[test]
fn mape_loop_runs_at_the_configured_cadence() {
    let r = Cell::grid(WorkloadId::EpigenomicsS, Setting::Wire, U15, 8).run(None, None);
    // iterations ≈ makespan / interval (3 min); the engine stops ticking at
    // workflow completion
    let expected = r.makespan.as_ms() / Millis::from_mins(3).as_ms();
    assert!(
        (r.mape_iterations as i64 - expected as i64).abs() <= 1,
        "iterations {} vs expected {}",
        r.mape_iterations,
        expected
    );
}
