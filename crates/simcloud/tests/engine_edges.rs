//! Edge-case integration tests for the engine's drain/cancel/billing
//! semantics that the unit tests don't reach.

use wire_dag::{ExecProfile, Millis, TaskId, WorkflowBuilder};
use wire_simcloud::{
    CloudConfig, FamilySpec, HoldPolicy, InstanceId, MemoryProfile, MonitorSnapshot, PoolPlan,
    RunError, ScalingPolicy, Session, TelemetryEvent, TelemetryHandle, TerminateWhen,
    TransferModel,
};

fn chain(n: usize, secs: u64) -> (wire_dag::Workflow, ExecProfile) {
    let mut b = WorkflowBuilder::new("chain");
    let s = b.add_stage("s");
    let ts: Vec<TaskId> = (0..n).map(|_| b.add_task(s, 0, 0)).collect();
    for w in ts.windows(2) {
        b.add_dep(w[0], w[1]).unwrap();
    }
    (
        b.build().unwrap(),
        ExecProfile::uniform(n, Millis::from_secs(secs)),
    )
}

fn cfg() -> CloudConfig {
    CloudConfig {
        slots_per_instance: 1,
        site_capacity: 8,
        launch_lag: Millis::from_mins(3),
        charging_unit: Millis::from_mins(15),
        mape_interval: Millis::from_mins(3),
        initial_instances: 1,
        run_setup: Millis::ZERO,
        run_teardown: Millis::ZERO,
        ..CloudConfig::default()
    }
}

/// Terminate the same instance twice (second while draining): must be an
/// InvalidPlan, not a double-release.
#[test]
fn double_terminate_is_rejected() {
    struct DoubleKill(u32);
    impl ScalingPolicy for DoubleKill {
        fn name(&self) -> &str {
            "double-kill"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            self.0 += 1;
            PoolPlan {
                launch: if self.0 == 1 { 1 } else { 0 },
                launch_families: vec![],
                terminate: if self.0 >= 2 {
                    vec![(InstanceId(0), TerminateWhen::AtChargeBoundary)]
                } else {
                    vec![]
                },
            }
        }
    }
    let (wf, prof) = chain(2, 20 * 60);
    let err = Session::new(cfg())
        .transfer(TransferModel::none())
        .policy(DoubleKill(0))
        .seed(1)
        .submit(&wf, &prof)
        .run()
        .unwrap_err();
    // the second terminate hits a Draining instance
    assert!(matches!(err, RunError::InvalidPlan(_)), "{err:?}");
}

/// A draining instance whose task completes before the boundary still
/// terminates exactly at the boundary (idle drain) and bills one unit.
#[test]
fn drain_terminates_idle_at_boundary() {
    struct KillAtFirstTick(bool);
    impl ScalingPolicy for KillAtFirstTick {
        fn name(&self) -> &str {
            "kill-first-tick"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            if self.0 {
                PoolPlan::keep()
            } else {
                self.0 = true;
                PoolPlan {
                    launch: 1,
                    launch_families: vec![],
                    terminate: vec![(InstanceId(0), TerminateWhen::AtChargeBoundary)],
                }
            }
        }
    }
    // tasks run 5 min each; the chain of three keeps the run alive past the
    // 15-min boundary where the drained instance is released
    let (wf, prof) = chain(3, 5 * 60);
    let handle = TelemetryHandle::new();
    let r = Session::new(cfg())
        .transfer(TransferModel::none())
        .policy(KillAtFirstTick(false))
        .seed(1)
        .recording(handle.clone())
        .submit(&wf, &prof)
        .run()
        .unwrap();
    let term = handle
        .take()
        .events
        .into_iter()
        .find(|(_, e)| matches!(e, TelemetryEvent::InstanceTerminated { instance: 0, .. }))
        .map(|(t, _)| t)
        .expect("i0 terminated");
    assert_eq!(term, Millis::from_mins(15));
    // task 0 completed on i0 before the drain point (no restart); task 1 ran
    // on the replacement
    assert_eq!(r.restarts, 0);
    assert_eq!(r.task_records.len(), 3);
}

/// Launching instances cannot be terminated.
#[test]
fn terminating_a_launching_instance_is_invalid() {
    struct KillLaunching(u32);
    impl ScalingPolicy for KillLaunching {
        fn name(&self) -> &str {
            "kill-launching"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            self.0 += 1;
            match self.0 {
                1 => PoolPlan::launch(1),
                // i1 is ready 3 min after the first tick = at the second
                // tick; to hit it while Launching we need lag > interval,
                // so instead terminate an id that is still launching due to
                // a same-tick launch+terminate
                _ => PoolPlan {
                    launch: 1,
                    launch_families: vec![],
                    terminate: vec![(InstanceId(2), TerminateWhen::Now)],
                },
            }
        }
    }
    let (wf, prof) = chain(2, 30 * 60);
    let err = Session::new(cfg())
        .transfer(TransferModel::none())
        .policy(KillLaunching(0))
        .seed(1)
        .submit(&wf, &prof)
        .run()
        .unwrap_err();
    assert!(matches!(err, RunError::InvalidPlan(_)), "{err:?}");
}

/// Billing at the exact unit boundary: a task ending exactly at the unit
/// boundary bills exactly one unit when the instance is then released.
#[test]
fn exact_boundary_billing() {
    struct ReleaseWhenIdle;
    impl ScalingPolicy for ReleaseWhenIdle {
        fn name(&self) -> &str {
            "release-idle"
        }
        fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
            let idle: Vec<_> = s
                .instances
                .iter()
                .filter(|iv| iv.is_running() && iv.tasks.is_empty())
                .map(|iv| (iv.id, TerminateWhen::AtChargeBoundary))
                .collect();
            PoolPlan {
                launch: 0,
                launch_families: vec![],
                terminate: idle,
            }
        }
    }
    // one 15-minute task = exactly one charging unit
    let (wf, prof) = chain(1, 15 * 60);
    let r = Session::new(cfg())
        .transfer(TransferModel::none())
        .policy(ReleaseWhenIdle)
        .seed(1)
        .submit(&wf, &prof)
        .run()
        .unwrap();
    assert_eq!(r.charging_units, 1);
    assert_eq!(r.makespan, Millis::from_mins(15));
}

/// Zero-length exec profile floors: tasks with tiny exec still complete in
/// order and the run terminates.
#[test]
fn sub_second_tasks_complete() {
    let (wf, _) = chain(50, 1);
    let prof = ExecProfile::uniform(50, Millis::from_ms(3));
    struct Hold;
    impl ScalingPolicy for Hold {
        fn name(&self) -> &str {
            "hold"
        }
        fn plan(&mut self, _s: &MonitorSnapshot<'_>) -> PoolPlan {
            PoolPlan::keep()
        }
    }
    let r = Session::new(cfg())
        .transfer(TransferModel::none())
        .policy(Hold)
        .seed(1)
        .submit(&wf, &prof)
        .run()
        .unwrap();
    assert_eq!(r.task_records.len(), 50);
    assert_eq!(r.makespan, Millis::from_ms(150));
    assert_eq!(r.charging_units, 1);
}

/// A task whose memory demand or true peak exceeds the largest family's
/// capacity could never be placed (or would OOM forever): the run is
/// rejected before it starts, naming the task and the capacity. A task at
/// exactly the capacity runs.
#[test]
fn memory_beyond_every_family_is_rejected_up_front() {
    let (wf, prof) = chain(3, 60);
    let cfg = CloudConfig {
        // the initial instance is family 0, the largest
        families: vec![
            FamilySpec::new("big", 1, 2_000).memory_mb(2_048),
            FamilySpec::new("small", 1, 1_000).memory_mb(1_024),
        ],
        ..cfg()
    };
    let run = |demand: i64, peak: i64| {
        let memory = MemoryProfile::new(vec![100, demand, 100], vec![100, peak, 100]).unwrap();
        Session::new(cfg.clone())
            .transfer(TransferModel::none())
            .policy(HoldPolicy)
            .memory(memory)
            .submit(&wf, &prof)
            .run()
    };
    for (demand, peak) in [(2_049, 2_049), (100, 2_049), (2_049, 100)] {
        let err = run(demand, peak).unwrap_err();
        let RunError::Config(msg) = &err else {
            panic!("demand {demand} peak {peak}: {err:?}");
        };
        assert!(msg.contains("t1") && msg.contains("2048 MB"), "{msg}");
    }
    let ok = run(2_048, 2_048).unwrap();
    assert_eq!(ok.task_records.len(), 3);
}
