//! Criterion microbenchmarks: the hot paths of the WIRE controller and the
//! simulator (predictor update, Algorithm 3, lookahead, end-to-end runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wire_campaign::Cell;
use wire_core::experiment::{cloud_config, Setting};
use wire_dag::Millis;
use wire_planner::{resize_pool, WirePolicy};
use wire_predictor::{CompletedTaskObs, IntervalObservations, Predictor};
use wire_simcloud::{Session, TransferModel};
use wire_workloads::WorkloadId;

fn bench_predictor_update(c: &mut Criterion) {
    let (wf, _) = WorkloadId::Tpch1S.generate(1);
    c.bench_function("predictor/observe_interval_62tasks", |b| {
        b.iter(|| {
            let mut p = Predictor::new(&wf);
            let mut obs = IntervalObservations::empty_for(&wf);
            for t in wf.task_ids() {
                let spec = wf.task(t);
                obs.per_stage[spec.stage.index()]
                    .completed
                    .push(CompletedTaskObs {
                        task: t,
                        input_bytes: spec.input_bytes,
                        exec_time: Millis::from_secs(5),
                    });
            }
            p.observe_interval(&obs);
            std::hint::black_box(p.state_bytes())
        })
    });
}

fn bench_resize_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/resize_pool");
    for n in [100usize, 1000, 4000] {
        let q: Vec<Millis> = (0..n)
            .map(|i| Millis::from_secs(1 + (i as u64 % 90)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &q, |b, q| {
            b.iter(|| resize_pool(std::hint::black_box(q), Millis::from_mins(15), 4))
        });
    }
    group.finish();
}

fn bench_lookahead(c: &mut Criterion) {
    // one MAPE planning step (lookahead + Algorithms 2-3) on a mid-run
    // snapshot of the 4005-task Genome L workflow — the §IV-F hot path
    use wire_dag::TaskId;
    use wire_planner::{lookahead, steer, SteeringConfig};
    use wire_simcloud::{CloudConfig, InstanceId};
    use wire_simcloud::{InstanceStateView, InstanceView, SnapshotBuffers, TaskView};

    let (wf, _) = WorkloadId::EpigenomicsL.generate(1);
    let cfg = CloudConfig::default();
    let n = wf.num_tasks();
    // synthetic mid-run state: first quarter done, 48 running, rest ready or
    // blocked
    let mut tasks = vec![TaskView::Unready; n];
    for t in tasks.iter_mut().take(n / 4) {
        *t = TaskView::Done {
            exec_time: Millis::from_secs(10),
            transfer_time: Millis::from_secs(2),
        };
    }
    let mut instances = Vec::new();
    for i in 0..12u32 {
        let held: Vec<TaskId> = (0..4).map(|k| TaskId((n / 4) as u32 + i * 4 + k)).collect();
        for &t in &held {
            tasks[t.index()] = TaskView::Running {
                instance: InstanceId(i),
                exec_age: Millis::from_secs(5),
                occupied_for: Millis::from_secs(7),
            };
        }
        instances.push(InstanceView {
            id: InstanceId(i),
            state: InstanceStateView::Running {
                charge_start: Millis::ZERO,
            },
            tasks: held,
            free_slots: 0,
            family: 0,
        });
    }
    let ready: Vec<TaskId> = ((n / 4 + 48) as u32..(n / 2) as u32).map(TaskId).collect();
    for &t in &ready {
        tasks[t.index()] = TaskView::Ready;
    }
    let bufs = SnapshotBuffers {
        tasks,
        instances,
        new_completions: vec![],
        interval_transfers: vec![],
        interval_ooms: 0,
        ready_in_dispatch_order: ready,
        spent_milli: 0,
    };
    let slots = [wire_simcloud::WorkflowSlot::solo(&wf)];
    let snap = bufs.snapshot(Millis::from_mins(30), &slots, &cfg);
    let remaining = vec![Millis::from_secs(8); n];
    let values = vec![Millis::from_secs(12); n];

    c.bench_function("planner/lookahead_4005tasks", |b| {
        b.iter(|| {
            let up = lookahead(
                std::hint::black_box(&snap),
                &remaining,
                &values,
                Millis::from_mins(3),
            );
            std::hint::black_box(up.q_task.len())
        })
    });
    c.bench_function("planner/full_plan_step_4005tasks", |b| {
        b.iter(|| {
            let up = lookahead(&snap, &remaining, &values, Millis::from_mins(3));
            let plan = steer(
                &snap,
                up.occupancies(),
                &up.restart_cost,
                &up.projected_busy,
                SteeringConfig::default(),
            );
            std::hint::black_box(plan.launch)
        })
    });
}

/// A synthetic mid-run snapshot of an `n`-task single-stage workflow: first
/// quarter done, a few full instances of running tasks, a tranche of ready
/// tasks queued behind them — the state shape every MAPE tick sees mid-ramp.
fn midrun_state(
    n: usize,
) -> (
    wire_dag::Workflow,
    wire_simcloud::CloudConfig,
    wire_simcloud::SnapshotBuffers,
    Vec<Millis>,
    Vec<Millis>,
) {
    use wire_dag::{TaskId, WorkflowBuilder};
    use wire_simcloud::{
        CloudConfig, InstanceId, InstanceStateView, InstanceView, SnapshotBuffers, TaskView,
    };

    let mut b = WorkflowBuilder::new("bench");
    let s = b.add_stage("s");
    for _ in 0..n {
        b.add_task(s, 1_000, 1_000);
    }
    let wf = b.build().unwrap();
    let cfg = CloudConfig::default();

    let done = n / 4;
    let n_inst = (n / 32).clamp(3, 12) as u32;
    let mut tasks = vec![TaskView::Unready; n];
    for t in tasks.iter_mut().take(done) {
        *t = TaskView::Done {
            exec_time: Millis::from_secs(10),
            transfer_time: Millis::from_secs(2),
        };
    }
    let mut instances = Vec::new();
    for i in 0..n_inst {
        let held: Vec<TaskId> = (0..4).map(|k| TaskId(done as u32 + i * 4 + k)).collect();
        for &t in &held {
            tasks[t.index()] = TaskView::Running {
                instance: InstanceId(i),
                exec_age: Millis::from_secs(5),
                occupied_for: Millis::from_secs(7),
            };
        }
        instances.push(InstanceView {
            id: InstanceId(i),
            state: InstanceStateView::Running {
                charge_start: Millis::ZERO,
            },
            tasks: held,
            free_slots: 0,
            family: 0,
        });
    }
    let first_ready = done + 4 * n_inst as usize;
    let ready: Vec<TaskId> = (first_ready as u32..(n / 2) as u32).map(TaskId).collect();
    for &t in &ready {
        tasks[t.index()] = TaskView::Ready;
    }
    let bufs = SnapshotBuffers {
        tasks,
        instances,
        new_completions: vec![],
        interval_transfers: vec![],
        interval_ooms: 0,
        ready_in_dispatch_order: ready,
        spent_milli: 0,
    };
    let remaining = vec![Millis::from_secs(8); n];
    let values = vec![Millis::from_secs(12); n];
    (wf, cfg, bufs, remaining, values)
}

/// The Figure 2 tail's tick shape: one stage of `n` tasks, every one running
/// on its own single-slot instance, so the controller predicts `n` running
/// tasks over an `n`-row pool. Tasks started in id order (FIFO), half a
/// second apart, and the cloud is `Cell::linear`'s at U = 1 min: a 3 s
/// interval and horizon.
fn wide_running_state(
    n: usize,
) -> (
    wire_dag::Workflow,
    wire_simcloud::CloudConfig,
    wire_simcloud::SnapshotBuffers,
) {
    use wire_dag::{TaskId, WorkflowBuilder};
    use wire_simcloud::{
        CloudConfig, InstanceId, InstanceStateView, InstanceView, SnapshotBuffers, TaskView,
    };

    let mut b = WorkflowBuilder::new("wide");
    let s = b.add_stage("s");
    for _ in 0..n {
        b.add_task(s, 1_000, 1_000);
    }
    let wf = b.build().unwrap();
    let cfg = CloudConfig::linear_analysis(Millis::from_mins(1), Millis::from_secs(3));
    let mut tasks = Vec::with_capacity(n);
    let mut instances = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let age = Millis::from_ms(500 * (n as u64 - i as u64));
        tasks.push(TaskView::Running {
            instance: InstanceId(i),
            exec_age: age,
            occupied_for: age + Millis::from_secs(2),
        });
        instances.push(InstanceView {
            id: InstanceId(i),
            state: InstanceStateView::Running {
                charge_start: Millis::ZERO,
            },
            tasks: vec![TaskId(i)],
            free_slots: 0,
            family: 0,
        });
    }
    let bufs = SnapshotBuffers {
        tasks,
        instances,
        ..SnapshotBuffers::default()
    };
    (wf, cfg, bufs)
}

/// Tasks per workflow and live tasks in [`streaming_state`].
const STREAM_WF_TASKS: usize = 8;

/// A streaming session's snapshot: `prefix` finished tasks spread over
/// `prefix / 8` finished 8-task workflows, then one live 8-task workflow
/// (four running on one instance, four queued while a second instance
/// launches), with `done_prefix` at `prefix`. The live part is the same for
/// every `prefix`, so a tick's cost should not grow with it.
fn streaming_state(
    prefix: usize,
) -> (
    wire_dag::Workflow,
    wire_simcloud::CloudConfig,
    wire_simcloud::SnapshotBuffers,
    Vec<Millis>,
    Vec<Millis>,
) {
    use wire_dag::{TaskId, WorkflowBuilder};
    use wire_simcloud::{
        CloudConfig, InstanceId, InstanceStateView, InstanceView, SnapshotBuffers, TaskView,
    };

    assert_eq!(prefix % STREAM_WF_TASKS, 0);
    let mut b = WorkflowBuilder::new("stream");
    let s = b.add_stage("s");
    for _ in 0..STREAM_WF_TASKS {
        b.add_task(s, 1_000, 1_000);
    }
    let wf = b.build().unwrap();
    let cfg = CloudConfig::default();

    let n = prefix + STREAM_WF_TASKS;
    let mut tasks = vec![
        TaskView::Done {
            exec_time: Millis::from_secs(10),
            transfer_time: Millis::from_secs(2),
        };
        prefix
    ];
    let running: Vec<TaskId> = (prefix as u32..prefix as u32 + 4).map(TaskId).collect();
    let ready: Vec<TaskId> = (prefix as u32 + 4..n as u32).map(TaskId).collect();
    // a long stream has launched many instances; only the last two are live
    let (busy, launching) = (
        InstanceId(prefix as u32 / 2),
        InstanceId(prefix as u32 / 2 + 1),
    );
    tasks.extend(running.iter().map(|_| TaskView::Running {
        instance: busy,
        exec_age: Millis::from_secs(5),
        occupied_for: Millis::from_secs(7),
    }));
    tasks.extend(ready.iter().map(|_| TaskView::Ready));
    let instances = vec![
        InstanceView {
            id: busy,
            state: InstanceStateView::Running {
                charge_start: Millis::ZERO,
            },
            tasks: running,
            free_slots: 0,
            family: 0,
        },
        InstanceView {
            id: launching,
            state: InstanceStateView::Launching {
                ready_at: Millis::from_mins(31),
            },
            tasks: vec![],
            free_slots: 4,
            family: 0,
        },
    ];
    let bufs = SnapshotBuffers {
        tasks,
        instances,
        ready_in_dispatch_order: ready,
        ..SnapshotBuffers::default()
    };
    let remaining = vec![Millis::from_secs(8); n];
    let values = vec![Millis::from_secs(12); n];
    (wf, cfg, bufs, remaining, values)
}

/// Workflow slots for [`streaming_state`]: one per 8 tasks, all borrowing
/// the same template.
fn streaming_slots(wf: &wire_dag::Workflow, n: usize) -> Vec<wire_simcloud::WorkflowSlot<'_>> {
    (0..n / STREAM_WF_TASKS)
        .map(|k| wire_simcloud::WorkflowSlot {
            id: wire_dag::WorkflowId(k as u32),
            workflow: wf,
            submitted_at: Millis::from_secs(60 * k as u64),
            task_base: (k * STREAM_WF_TASKS) as u32,
            stage_base: k as u32,
        })
        .collect()
}

/// The finished-prefix sizes of the streaming cases: the tick should cost
/// the same in front of 10^3 and 10^5 finished tasks.
const STREAM_PREFIXES: [usize; 2] = [1_000, 100_000];

fn bench_lookahead_sweep(c: &mut Criterion) {
    // the §III-B2 projection alone, scratch reused across iterations — the
    // steady-state per-tick cost the zero-allocation work targets
    use wire_planner::{lookahead_into, LookaheadScratch};

    let mut group = c.benchmark_group("planner/lookahead");
    for n in [100usize, 1000, 4000] {
        let (wf, cfg, bufs, remaining, values) = midrun_state(n);
        let slots = [wire_simcloud::WorkflowSlot::solo(&wf)];
        let snap = bufs.snapshot(Millis::from_mins(30), &slots, &cfg);
        let mut scratch = LookaheadScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let up = lookahead_into(
                    &mut scratch,
                    std::hint::black_box(&snap),
                    &remaining,
                    &values,
                    Millis::from_mins(3),
                );
                std::hint::black_box(up.q_task.len())
            })
        });
    }
    for prefix in STREAM_PREFIXES {
        let (wf, cfg, bufs, remaining, values) = streaming_state(prefix);
        let slots = streaming_slots(&wf, bufs.tasks.len());
        let snap = wire_simcloud::MonitorSnapshot {
            done_prefix: prefix,
            ..bufs.snapshot(Millis::from_mins(30), &slots, &cfg)
        };
        let mut scratch = LookaheadScratch::default();
        group.bench_with_input(
            BenchmarkId::new("stream_prefix", prefix),
            &prefix,
            |b, _| {
                b.iter(|| {
                    let up = lookahead_into(
                        &mut scratch,
                        std::hint::black_box(&snap),
                        &remaining,
                        &values,
                        Millis::from_mins(3),
                    );
                    std::hint::black_box(up.q_task.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_plan_tick(c: &mut Criterion) {
    // one full WirePolicy::plan — Monitor translate + Analyze (memoized
    // predictions) + Plan (lookahead + Algorithms 2-3) — on a warmed policy,
    // i.e. the whole controller tick the engine charges per MAPE interval
    use wire_simcloud::ScalingPolicy;

    let mut group = c.benchmark_group("planner/plan_tick");
    for n in [100usize, 1000, 4000] {
        let (wf, cfg, bufs, _, _) = midrun_state(n);
        let slots = [wire_simcloud::WorkflowSlot::solo(&wf)];
        let snap = bufs.snapshot(Millis::from_mins(30), &slots, &cfg);
        let mut policy = WirePolicy::default();
        policy.plan(&snap); // warm start: grow buffers, seed the models
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(policy.plan(&snap).launch))
        });
    }
    for prefix in STREAM_PREFIXES {
        let (wf, cfg, bufs, _, _) = streaming_state(prefix);
        let slots = streaming_slots(&wf, bufs.tasks.len());
        let snap = wire_simcloud::MonitorSnapshot {
            done_prefix: prefix,
            ..bufs.snapshot(Millis::from_mins(30), &slots, &cfg)
        };
        let mut policy = WirePolicy::default();
        policy.plan(&snap); // warm start: adopt the watermark, retire the prefix
        group.bench_with_input(
            BenchmarkId::new("stream_prefix", prefix),
            &prefix,
            |b, _| b.iter(|| std::hint::black_box(policy.plan(&snap).launch)),
        );
    }
    let n = 1000;
    let (wf, cfg, bufs) = wide_running_state(n);
    let slots = [wire_simcloud::WorkflowSlot::solo(&wf)];
    let snap = bufs.snapshot(Millis::from_mins(30), &slots, &cfg);
    let mut policy = WirePolicy::default();
    policy.plan(&snap); // warm start: grow buffers, seed the running ages
    group.bench_with_input(BenchmarkId::new("wide_running", n), &n, |b, _| {
        b.iter(|| std::hint::black_box(policy.plan(&snap).launch))
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/end_to_end");
    group.sample_size(10);
    group.bench_function("tpch6s_wire_u15", |b| {
        let cell = Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1);
        b.iter(|| cell.run(None, None))
    });
    group.bench_function("pagerank_s_wire_u15", |b| {
        let cell = Cell::grid(
            WorkloadId::PageRankS,
            Setting::Wire,
            Millis::from_mins(15),
            1,
        );
        b.iter(|| cell.run(None, None))
    });
    group.finish();
}

fn bench_full_mape_iteration(c: &mut Criterion) {
    // a single wire run of the large epigenomics workflow, dominated by MAPE
    // iterations over 4005 tasks — per-iteration cost is what §IV-F bounds
    let mut group = c.benchmark_group("engine/genome_l_wire");
    group.sample_size(10);
    group.bench_function("genome_l_wire_u15", |b| {
        let (wf, prof) = WorkloadId::EpigenomicsL.generate(1);
        let cfg = cloud_config(Setting::Wire, Millis::from_mins(15));
        b.iter(|| {
            Session::new(cfg.clone())
                .transfer(TransferModel::default())
                .policy(WirePolicy::default())
                .seed(1)
                .submit(&wf, &prof)
                .run()
                .unwrap()
                .charging_units
        })
    });
    group.finish();
}

fn bench_chaos_overhead(c: &mut Criterion) {
    // the chaos hooks sit on the engine's hot paths (arrival handling,
    // plan application, dispatch); an engine built WITHOUT a fault plan
    // must pay nothing measurable for them, and an attached-but-empty
    // plan must stay within noise of the no-plan run
    use wire_simcloud::FaultPlan;

    let mut group = c.benchmark_group("engine/chaos_overhead");
    group.sample_size(10);
    let (wf, prof) = WorkloadId::Tpch6S.generate(1);
    let cfg = cloud_config(Setting::Wire, Millis::from_mins(15));
    group.bench_function("no_plan", |b| {
        b.iter(|| {
            Session::new(cfg.clone())
                .transfer(TransferModel::default())
                .policy(WirePolicy::default())
                .seed(1)
                .submit(&wf, &prof)
                .run()
                .unwrap()
                .charging_units
        })
    });
    group.bench_function("empty_plan", |b| {
        b.iter(|| {
            Session::new(cfg.clone())
                .transfer(TransferModel::default())
                .policy(WirePolicy::default())
                .seed(1)
                .chaos(FaultPlan::new())
                .submit(&wf, &prof)
                .run()
                .unwrap()
                .charging_units
        })
    });
    // non-empty but behaviourally inert: exercises the per-dispatch
    // stage-trigger scan and the fault event machinery
    group.bench_function("inert_plan", |b| {
        b.iter(|| {
            Session::new(cfg.clone())
                .transfer(TransferModel::default())
                .policy(WirePolicy::default())
                .seed(1)
                .chaos(FaultPlan::new().restore_transfers(Millis::from_mins(1)))
                .submit(&wf, &prof)
                .run()
                .unwrap()
                .charging_units
        })
    });
    group.finish();
}

fn bench_rank_queue_tick(c: &mut Criterion) {
    // one MAPE tick's worth of rank-scheduler traffic on a standing backlog:
    // 250 dispatches and 250 newly ready tasks, then one full dispatch-order
    // walk, as WIRE's lookahead makes through the snapshot's lent order (a
    // policy that never reads the order costs no walk)
    use wire_dag::{ExecProfile, TaskId, WorkflowBuilder};
    use wire_simcloud::{CloudConfig, RankKind, RankScheduler, Scheduler, WorkflowSlot};

    const BACKLOG: usize = 25_000;
    const CHURN: usize = 250;
    let n = BACKLOG + CHURN;
    let mut b = WorkflowBuilder::new("backlog");
    let stage = b.add_stage("s");
    for _ in 0..n {
        b.add_task(stage, 0, 0);
    }
    let wf = b.build().unwrap();
    let prof = ExecProfile::new(
        (0..n as u64)
            .map(|i| Millis::from_secs(1 + (i * 7919) % 900))
            .collect(),
    );
    let cfg = CloudConfig::default();
    let mut q = RankScheduler::new(RankKind::Heft, n, &cfg);
    q.prepare(&WorkflowSlot::solo(&wf), &prof);
    for t in 0..BACKLOG as u32 {
        q.push_ready(TaskId(t), stage);
    }
    // tasks waiting to become ready; each tick's pops refill it
    let mut incoming: Vec<TaskId> = (BACKLOG as u32..n as u32).map(TaskId).collect();
    c.bench_function("scheduler/rank_tick_25k_backlog", |bch| {
        bch.iter(|| {
            let popped: Vec<TaskId> = (0..CHURN).filter_map(|_| q.pop()).collect();
            for t in incoming.drain(..) {
                q.push_ready(t, stage);
            }
            incoming = popped;
            std::hint::black_box(q.iter_in_order().count())
        })
    });
}

criterion_group!(
    benches,
    bench_predictor_update,
    bench_resize_pool,
    bench_lookahead,
    bench_lookahead_sweep,
    bench_plan_tick,
    bench_end_to_end,
    bench_full_mape_iteration,
    bench_chaos_overhead,
    bench_rank_queue_tick
);
criterion_main!(benches);
