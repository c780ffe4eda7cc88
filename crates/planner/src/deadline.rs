//! Deadline projection — an extension beyond the paper.
//!
//! §IV-A observes that "it is possible to modulate the aggressiveness of the
//! heuristic to obtain a selected balance of cost and speed, e.g., by
//! modulating the target utilization level". [`crate::GrowAheadWirePolicy`]
//! closes that loop: it runs standard WIRE, but each interval it projects a
//! crude completion time ([`projected_finish`]) from the predicted remaining
//! work and the current pool, and when the projection overshoots a user
//! deadline it lowers Algorithm 3's fill target to [`URGENT_FILL`]
//! (provisioning instances it can only partially fill); when the projection
//! has slack it restores the paper's cost-first [`RELAXED_FILL`].

use crate::wire_policy::WirePolicy;
use wire_dag::Millis;
use wire_simcloud::{MonitorSnapshot, TaskView};

/// Fill targets used at the two aggressiveness levels.
pub const RELAXED_FILL: f64 = 1.0;
pub const URGENT_FILL: f64 = 0.1;

/// Barrier-aware completion projection behind
/// [`crate::GrowAheadWirePolicy`]'s mode switch: per stage
/// with incomplete tasks, the stage needs at least max(longest estimate,
/// stage work / pool slots); stages execute as a (pessimistic) sequence.
/// Exact pipelining between stages is ignored — the point is a usable mode
/// switch, not an exact ETA. Returns `Millis::ZERO` (assume on time) until
/// the policy's predictor has ingested its first interval.
pub fn projected_finish(inner: &WirePolicy, snapshot: &MonitorSnapshot<'_>) -> Millis {
    let Some(predictor) = inner.predictor() else {
        return Millis::ZERO; // no information yet: assume on time
    };
    let ns = snapshot.total_stages();
    let mut stage_work = vec![Millis::ZERO; ns];
    let mut stage_longest = vec![Millis::ZERO; ns];
    // tasks below the done-prefix watermark would all hit the Done arm
    for (i, tv) in snapshot.tasks.iter().enumerate().skip(snapshot.done_prefix) {
        let task = wire_dag::TaskId(i as u32);
        let status = match *tv {
            TaskView::Done { .. } => continue,
            TaskView::Unready => wire_predictor::TaskStatus::UnstartedBlocked,
            TaskView::Ready => wire_predictor::TaskStatus::UnstartedReady,
            TaskView::Running { exec_age, .. } => {
                wire_predictor::TaskStatus::Running { age: exec_age }
            }
        };
        let stage = snapshot.stage_of(task);
        let p = predictor.predict_occupancy(stage, snapshot.spec(task).input_bytes, status);
        let s = stage.index();
        stage_work[s] += p.remaining;
        stage_longest[s] = stage_longest[s].max(p.remaining);
    }
    let slots = (snapshot.pool_size().max(1) * snapshot.config.slots_per_instance) as u64;
    let eta: Millis = (0..ns)
        .map(|s| (stage_work[s] / slots).max(stage_longest[s]))
        .sum();
    snapshot.now + eta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::{check_decision_postconditions, SteeringConfig};
    use crate::GrowAheadWirePolicy;
    use wire_dag::{ExecProfile, TaskId, Workflow, WorkflowBuilder};
    use wire_simcloud::{
        CloudConfig, CompletionView, InstanceId, InstanceStateView, InstanceView, RunResult,
        ScalingPolicy, Session, SnapshotBuffers, WorkflowSlot,
    };
    use wire_telemetry::TelemetryHandle;
    use wire_workloads::WorkloadId;

    fn cfg() -> CloudConfig {
        CloudConfig {
            charging_unit: Millis::from_mins(15),
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            ..CloudConfig::default()
        }
    }

    fn run<P: ScalingPolicy>(wf: &Workflow, prof: &ExecProfile, policy: P, seed: u64) -> RunResult {
        Session::new(cfg())
            .policy(policy)
            .seed(seed)
            .submit(wf, prof)
            .run()
            .unwrap()
    }

    #[test]
    fn loose_deadline_behaves_like_wire() {
        let (wf, prof) = WorkloadId::PageRankS.generate(1);
        let wire = run(&wf, &prof, WirePolicy::default(), 1);
        let relaxed = run(
            &wf,
            &prof,
            GrowAheadWirePolicy::new(Millis::from_hours(50)),
            1,
        );
        assert_eq!(relaxed.charging_units, wire.charging_units);
        assert_eq!(relaxed.makespan, wire.makespan);
    }

    #[test]
    fn tight_deadline_buys_speed_with_cost() {
        let (wf, prof) = WorkloadId::PageRankS.generate(1);
        let relaxed = run(
            &wf,
            &prof,
            GrowAheadWirePolicy::new(Millis::from_hours(50)),
            1,
        );
        let tight = run(
            &wf,
            &prof,
            GrowAheadWirePolicy::new(Millis::from_mins(10)),
            1,
        );
        assert!(
            tight.makespan <= relaxed.makespan,
            "tight {} vs relaxed {}",
            tight.makespan,
            relaxed.makespan
        );
        assert!(
            tight.charging_units >= relaxed.charging_units,
            "tight {} vs relaxed {}",
            tight.charging_units,
            relaxed.charging_units
        );
    }

    #[test]
    fn completes_and_reports_switches() {
        let (wf, prof) = WorkloadId::PageRankS.generate(2);
        let mut policy = GrowAheadWirePolicy::new(Millis::from_mins(2));
        let r = run(&wf, &prof, &mut policy, 2);
        assert_eq!(r.task_records.len(), wf.num_tasks());
        // the projection must flip to urgent at least once under a
        // 2-minute deadline for a multi-minute workload
        assert!(policy.mode_switches() >= 1);
    }

    // --- projected_finish slack units ---------------------------------

    /// One 4-task stage; tasks carry no input bytes so the predictor's
    /// byte-scaling stays out of the arithmetic.
    fn flat_wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        let s = b.add_stage("s");
        for _ in 0..4 {
            b.add_task(s, 0, 0);
        }
        b.build().unwrap()
    }

    fn proj_cfg() -> CloudConfig {
        CloudConfig {
            slots_per_instance: 1,
            charging_unit: Millis::from_mins(15),
            mape_interval: Millis::from_mins(3),
            ..CloudConfig::default()
        }
    }

    fn running_inst(id: u32) -> InstanceView {
        InstanceView {
            id: InstanceId(id),
            state: InstanceStateView::Running {
                charge_start: Millis::ZERO,
            },
            tasks: vec![],
            free_slots: 1,
            family: 0,
        }
    }

    /// Two tasks done at 10 minutes each (fed to the predictor as this
    /// interval's completions), two still ready, `n_inst` one-slot
    /// instances running.
    fn half_done(n_inst: u32) -> SnapshotBuffers {
        let done = TaskView::Done {
            exec_time: Millis::from_mins(10),
            transfer_time: Millis::ZERO,
        };
        let obs = |t: u32| CompletionView {
            task: TaskId(t),
            input_bytes: 0,
            exec_time: Millis::from_mins(10),
            transfer_time: Millis::ZERO,
            peak_mb: 0,
        };
        SnapshotBuffers {
            tasks: vec![done, done, TaskView::Ready, TaskView::Ready],
            instances: (0..n_inst).map(running_inst).collect(),
            new_completions: vec![obs(0), obs(1)],
            interval_transfers: vec![],
            interval_ooms: 0,
            ready_in_dispatch_order: vec![TaskId(2), TaskId(3)],
            spent_milli: 0,
        }
    }

    #[test]
    fn projection_is_zero_before_the_predictor_ingests() {
        let w = flat_wf();
        let slots = [WorkflowSlot::solo(&w)];
        let c = proj_cfg();
        let b = half_done(1);
        let s = b.snapshot(Millis::from_mins(10), &slots, &c);
        // a fresh policy has no predictor yet: assume on time
        assert_eq!(projected_finish(&WirePolicy::default(), &s), Millis::ZERO);
    }

    #[test]
    fn projection_tracks_remaining_work_and_pool_size() {
        let w = flat_wf();
        let slots = [WorkflowSlot::solo(&w)];
        let c = proj_cfg();
        let now = Millis::from_mins(10);
        let mut policy = WirePolicy::default();
        let b = half_done(1);
        let s = b.snapshot(now, &slots, &c);
        policy.plan(&s); // ingest the two 10-minute completions

        // two ~10-minute tasks on one slot: the projection must land past
        // `now` and account for both (serialized, not just the longest)
        let one_slot = projected_finish(&policy, &s);
        assert!(one_slot > now, "remaining work must project past now");
        let eta = one_slot - now;
        assert!(
            eta >= Millis::from_mins(10),
            "two pending tasks on one slot cannot beat a single estimate ({eta})"
        );

        // doubling the pool can only pull the projection closer
        let b2 = half_done(2);
        let s2 = b2.snapshot(now, &slots, &c);
        let two_slots = projected_finish(&policy, &s2);
        assert!(two_slots <= one_slot, "{two_slots} > {one_slot}");
        assert!(two_slots > now);

        // with nothing left to run the projection collapses to `now`
        let done = TaskView::Done {
            exec_time: Millis::from_mins(10),
            transfer_time: Millis::ZERO,
        };
        let mut all_done = half_done(1);
        all_done.tasks = vec![done; 4];
        all_done.ready_in_dispatch_order.clear();
        let s3 = all_done.snapshot(now, &slots, &c);
        assert_eq!(projected_finish(&policy, &s3), now);
    }

    // --- grow-ahead vs plain WIRE -------------------------------------

    #[test]
    fn growahead_misses_fewer_deadlines_than_wire_pinned() {
        // Pinned miss-rate comparison on identical seeds: at a 25-minute
        // deadline the Epigenomics S cell takes plain WIRE 39–48 minutes
        // (5 misses in 5 seeds) while grow-ahead buys enough pool to land
        // every seed inside the deadline — paying for it in units.
        let deadline = Millis::from_mins(25);
        let mut wire_misses = 0u32;
        let mut growahead_misses = 0u32;
        for seed in 1..=5u64 {
            let (wf, prof) = WorkloadId::EpigenomicsS.generate(seed);
            let w = run(&wf, &prof, WirePolicy::default(), seed);
            let g = run(&wf, &prof, GrowAheadWirePolicy::new(deadline), seed);
            wire_misses += u32::from(w.makespan > deadline);
            growahead_misses += u32::from(g.makespan > deadline);
            assert!(
                g.charging_units >= w.charging_units,
                "seed {seed}: grow-ahead bought speed without paying units ({} < {})",
                g.charging_units,
                w.charging_units
            );
        }
        assert_eq!(
            (wire_misses, growahead_misses),
            (5, 0),
            "pinned miss counts moved"
        );
    }

    #[test]
    fn growahead_flips_urgent_and_completes() {
        let (wf, prof) = WorkloadId::EpigenomicsS.generate(2);
        let mut policy = GrowAheadWirePolicy::new(Millis::from_mins(25));
        let r = run(&wf, &prof, &mut policy, 2);
        assert_eq!(r.task_records.len(), wf.num_tasks());
        assert!(
            policy.mode_switches() >= 1,
            "deadline never registered as at risk"
        );
    }

    #[test]
    fn growahead_keeps_the_budget_contract_across_mode_flips() {
        // A budgeted grow-ahead run: the urgency flips rewrite the steering
        // (fill target + spend-early), but the budget knobs must survive
        // them — every journaled decision still satisfies the commit bound.
        let (wf, prof) = WorkloadId::EpigenomicsS.generate(2);
        let handle = TelemetryHandle::new();
        let steering = SteeringConfig {
            budget_knee: 0.25,
            ..SteeringConfig::default()
        };
        let mut policy = GrowAheadWirePolicy::with_steering(Millis::from_mins(25), steering)
            .with_telemetry(handle.clone());
        let ceiling_milli = 8_000;
        let r = Session::new(cfg().with_budget(ceiling_milli))
            .policy(&mut policy)
            .seed(2)
            .recording(handle.clone())
            .submit(&wf, &prof)
            .run()
            .unwrap();
        assert_eq!(r.task_records.len(), wf.num_tasks());
        assert!(
            policy.mode_switches() >= 1,
            "the flip under test never happened"
        );
        let buffer = handle.take();
        assert!(!buffer.decisions.is_empty());
        for d in &buffer.decisions {
            let stamp = d.budget.expect("budgeted decision must be stamped");
            assert_eq!(stamp.ceiling_milli, ceiling_milli);
            check_decision_postconditions(d).unwrap();
        }
    }
}
