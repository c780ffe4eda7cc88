//! The snapshot's lent dispatch order ([`DispatchOrder`]).
//!
//! * The lookahead projects the same load whether the order is lent from a
//!   live scheduler or handed over as a slice, and both match a from-scratch
//!   projection that copies the whole backlog into one queue.
//! * The engine walks the scheduler's queue only when someone reads the
//!   order: a static-policy run materializes no ready-order entries outside
//!   the debug pop-order oracle, under every scheduler and with memory-parked
//!   tasks. Nor does dispatch ever pop an empty queue.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wire_dag::{ExecProfile, Millis, StageId, TaskId, Workflow, WorkflowBuilder, WorkflowId};
use wire_planner::{lookahead_into, LookaheadScratch, StaticPolicy, Upcoming};
use wire_simcloud::{
    AnyScheduler, CloudConfig, DispatchOrder, Engine, FamilySpec, InstanceId, InstanceStateView,
    InstanceView, MemoryProfile, MonitorSnapshot, NoopRecorder, PoolPlan, ReadyQueue,
    ScalingPolicy, Scheduler, SchedulerSpec, SnapshotBuffers, TaskView, TransferModel,
    WorkflowSlot,
};

// ---- lookahead over a lent order ---------------------------------------------

/// One random monitor state: workflows, consistent task and instance rows,
/// and a ready backlog split into a memory-parked prefix and a scheduler.
struct Case {
    workflows: Vec<Workflow>,
    bufs: SnapshotBuffers,
    done_prefix: usize,
    parked: Vec<TaskId>,
    queue: ReadyQueue,
    remaining: Vec<Millis>,
    values: Vec<Millis>,
    horizon: Millis,
}

const NOW: Millis = Millis::from_mins(30);

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut workflows = Vec::new();
    for w in 0..rng.gen_range(1..=2usize) {
        let mut b = WorkflowBuilder::new(format!("w{w}"));
        let n = rng.gen_range(2..=24usize);
        let stages: Vec<StageId> = (0..rng.gen_range(1..=3usize))
            .map(|s| b.add_stage(format!("s{s}")))
            .collect();
        for i in 0..n {
            let t = b.add_task(stages[i * stages.len() / n], 0, 0);
            for _ in 0..rng.gen_range(0..=2u32).min(i as u32) {
                let _ = b.add_dep(TaskId(rng.gen_range(0..i as u32)), t);
            }
        }
        workflows.push(b.build().unwrap());
    }
    let slots = slots(&workflows);
    let n: usize = workflows.iter().map(Workflow::num_tasks).sum();
    let stages: usize = workflows.iter().map(Workflow::num_stages).sum();
    let width = rng.gen_range(1..=3u32);
    let horizon = Millis::from_mins(rng.gen_range(1..=6u64));

    let mut instances: Vec<InstanceView> = (0..rng.gen_range(1..=4u32))
        .map(|i| InstanceView {
            id: InstanceId(i),
            state: match rng.gen_range(0..5u32) {
                0 => InstanceStateView::Launching {
                    ready_at: NOW + Millis::from_secs(rng.gen_range(0..=480u64)),
                },
                1 => InstanceStateView::Draining {
                    terminate_at: NOW + horizon,
                },
                _ => InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
            },
            tasks: vec![],
            free_slots: width,
            family: 0,
        })
        .collect();
    // rows in global task order: local ids are topological, so every
    // predecessor's row is drawn first
    let mut tasks = Vec::with_capacity(n);
    let mut ready = Vec::new();
    for slot in &slots {
        for t in slot.workflow.task_ids() {
            let g = slot.global_task(t);
            let preds_done = (slot.workflow.preds(t).iter())
                .all(|&p| matches!(tasks[slot.global_task(p).index()], TaskView::Done { .. }));
            let mut row = match rng.gen_range(0..10u32) {
                _ if !preds_done => TaskView::Unready,
                0..=3 => TaskView::Done {
                    exec_time: Millis::from_secs(60),
                    transfer_time: Millis::ZERO,
                },
                4..=6 => TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: Millis::ZERO,
                    occupied_for: Millis::ZERO,
                },
                _ => TaskView::Ready,
            };
            if let TaskView::Running { .. } = row {
                let host = instances.iter_mut().find(|iv| {
                    iv.free_slots > 0 && !matches!(iv.state, InstanceStateView::Launching { .. })
                });
                row = match host {
                    Some(iv) => {
                        iv.tasks.push(g);
                        iv.free_slots -= 1;
                        let age = Millis::from_secs(rng.gen_range(0..=600u64));
                        TaskView::Running {
                            instance: iv.id,
                            exec_age: age,
                            occupied_for: age + Millis::from_secs(rng.gen_range(0..=30u64)),
                        }
                    }
                    None => TaskView::Ready,
                };
            }
            if row == TaskView::Ready {
                ready.push(g);
            }
            tasks.push(row);
        }
    }
    let full_prefix = tasks.iter().take_while(|t| t.is_done()).count();
    let done_prefix = rng.gen_range(0..=full_prefix);

    ready.shuffle(&mut rng);
    let parked = ready.split_off(ready.len() - rng.gen_range(0..=ready.len()));
    let mut queue = ReadyQueue::with_sizes(n, stages, rng.gen_bool(0.5));
    for &t in &ready {
        let slot = slots.iter().rev().find(|s| s.contains(t)).unwrap();
        queue.push_ready(
            t,
            slot.global_stage(slot.workflow.task(slot.local_task(t)).stage),
        );
    }
    let mut order = parked.clone();
    order.extend(queue.iter_in_order());

    // minimum remaining occupancy: some overdue (zero), most inside the
    // horizon so completions unlock successors mid-projection
    let span = horizon.as_ms() * 6 / 5;
    let remaining = (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => Millis::ZERO,
            _ => Millis::from_ms(rng.gen_range(0..=span)),
        })
        .collect();
    let values = (0..n)
        .map(|_| Millis::from_secs(rng.gen_range(0..=900u64)))
        .collect();
    Case {
        bufs: SnapshotBuffers {
            tasks,
            instances,
            ready_in_dispatch_order: order,
            ..SnapshotBuffers::default()
        },
        workflows,
        done_prefix,
        parked,
        queue,
        remaining,
        values,
        horizon,
    }
}

fn slots(workflows: &[Workflow]) -> Vec<WorkflowSlot<'_>> {
    let (mut task_base, mut stage_base) = (0, 0);
    (workflows.iter().enumerate())
        .map(|(i, wf)| {
            let slot = WorkflowSlot {
                id: WorkflowId(i as u32),
                workflow: wf,
                submitted_at: Millis::ZERO,
                task_base,
                stage_base,
            };
            task_base += wf.num_tasks() as u32;
            stage_base += wf.num_stages() as u32;
            slot
        })
        .collect()
}

/// What the reference projects: `Q_task`, the restart cost and projected
/// busy time per instance, and the backlog left at the horizon.
struct Projected {
    q_task: Vec<(TaskId, Millis)>,
    restart_cost: Vec<(InstanceId, Millis)>,
    projected_busy: Vec<(InstanceId, Millis)>,
    leftover: Vec<TaskId>,
}

/// §III-B2's projection from scratch: the whole snapshot, fresh buffers, a
/// linear search for completing tasks, and the whole dispatch order copied
/// into one queue that the tasks the projection unlocks join at the back.
fn reference(
    snap: &MonitorSnapshot<'_>,
    order: &[TaskId],
    remaining: &[Millis],
    values: &[Millis],
    horizon: Millis,
) -> Projected {
    let preds = |g: usize| {
        let slot = snap.slot_of_task(TaskId(g as u32));
        let local = slot.local_task(TaskId(g as u32));
        slot.workflow
            .preds(local)
            .iter()
            .map(|&p| slot.global_task(p))
    };
    let mut done: Vec<bool> = snap.tasks.iter().map(TaskView::is_done).collect();
    let mut unmet: Vec<usize> = (0..done.len())
        .map(|g| preds(g).filter(|p| !done[p.index()]).count())
        .collect();
    let mut backlog: VecDeque<TaskId> = order.iter().copied().collect();
    let mut free = VecDeque::new();
    // (task, row, started at, sunk occupancy at 0); events (time, kind, id)
    // with slot openings (kind 0) before completions (kind 1)
    let mut running: Vec<(TaskId, usize, Millis, Millis)> = Vec::new();
    let mut events = BinaryHeap::new();
    let (mut restart, mut busy) = (Vec::new(), Vec::new());
    for (row, iv) in snap.instances.iter().enumerate() {
        match iv.state {
            InstanceStateView::Running { .. } => free.extend((0..iv.free_slots).map(|_| row)),
            InstanceStateView::Launching { ready_at } => {
                let at = ready_at.saturating_sub(snap.now);
                for _ in 0..iv.free_slots {
                    if at.is_zero() {
                        free.push_back(row);
                    } else if at < horizon {
                        events.push(Reverse((at, 0, row as u32)));
                    }
                }
            }
            InstanceStateView::Draining { .. } => {}
        }
        let (mut still, mut beyond) = (Millis::ZERO, Millis::ZERO);
        for &t in &iv.tasks {
            beyond = beyond.max(remaining[t.index()].saturating_sub(horizon));
            let TaskView::Running { occupied_for, .. } = snap.tasks[t.index()] else {
                continue;
            };
            still = still.max(occupied_for + horizon);
            running.push((t, row, Millis::ZERO, occupied_for));
            let rem = remaining[t.index()];
            if !rem.is_zero() && rem < horizon {
                events.push(Reverse((rem, 1, t.0)));
            }
        }
        restart.push((iv.id, still));
        busy.push((iv.id, beyond));
    }
    // fill free slots from the backlog at `now`, then take the next event
    let mut now = Millis::ZERO;
    loop {
        while !free.is_empty() && !backlog.is_empty() {
            let (row, t) = (free.pop_front().unwrap(), backlog.pop_front().unwrap());
            running.push((t, row, now, Millis::ZERO));
            events.push(Reverse((now + remaining[t.index()], 1, t.0)));
        }
        match events.pop() {
            Some(Reverse((at, kind, id))) if at < horizon => {
                now = at;
                if kind == 0 {
                    free.push_back(id as usize);
                    continue;
                }
                let pos = running.iter().position(|r| r.0 == TaskId(id)).unwrap();
                let (t, row, ..) = running.remove(pos);
                done[t.index()] = true;
                if !matches!(
                    snap.instances[row].state,
                    InstanceStateView::Draining { .. }
                ) {
                    free.push_back(row);
                }
                let slot = snap.slot_of_task(t);
                for &s in slot.workflow.succs(slot.local_task(t)) {
                    let g = slot.global_task(s);
                    if !done[g.index()] && unmet[g.index()] > 0 {
                        unmet[g.index()] -= 1;
                        if unmet[g.index()] == 0 {
                            backlog.push_back(g);
                        }
                    }
                }
            }
            _ => break,
        }
    }
    running.sort_by_key(|r| r.0);
    for &(_, row, started, sunk) in &running {
        restart[row].1 = restart[row].1.max(sunk + (horizon - started));
    }
    let leftover: Vec<TaskId> = backlog.into();
    Projected {
        q_task: (running.iter().map(|r| r.0).chain(leftover.iter().copied()))
            .map(|t| (t, values[t.index()]))
            .collect(),
        restart_cost: restart,
        projected_busy: busy,
        leftover,
    }
}

/// The two lookahead runs over `c` (order lent from the scheduler, order as
/// a slice) and the reference.
fn project(c: &Case) -> (Upcoming, Upcoming, Projected) {
    let cfg = CloudConfig::default();
    let slots = slots(&c.workflows);
    let sliced = MonitorSnapshot {
        done_prefix: c.done_prefix,
        ..c.bufs.snapshot(NOW, &slots, &cfg)
    };
    let lent = MonitorSnapshot {
        ready_in_dispatch_order: DispatchOrder::scheduled(&c.parked, &c.queue),
        ..sliced
    };
    let mut scratch = LookaheadScratch::default();
    let run = |scratch: &mut LookaheadScratch, snap: &MonitorSnapshot<'_>| {
        lookahead_into(scratch, snap, &c.remaining, &c.values, c.horizon).clone()
    };
    let from_lent = run(&mut scratch, &lent);
    let from_slice = run(&mut scratch, &sliced);
    let reference = reference(
        &sliced,
        &c.bufs.ready_in_dispatch_order,
        &c.remaining,
        &c.values,
        c.horizon,
    );
    (from_lent, from_slice, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_lent_order_projects_the_same_load_as_a_copied_one(seed in 0u64..u64::MAX) {
        let c = case(seed);
        prop_assert_eq!(c.bufs.ready_in_dispatch_order.len(), c.parked.len() + c.queue.len());
        let (lent, sliced, reference) = project(&c);
        prop_assert_eq!(&lent, &sliced);
        prop_assert_eq!(&lent.q_task, &reference.q_task);
        let occ: Vec<Millis> = reference.q_task.iter().map(|&(_, o)| o).collect();
        prop_assert_eq!(lent.occupancies(), &occ[..]);
        prop_assert_eq!(&lent.restart_cost, &reference.restart_cost);
        prop_assert_eq!(&lent.projected_busy, &reference.projected_busy);
    }
}

/// The property above is only as good as its cases: they must park tasks,
/// unlock tasks mid-projection, and harvest both unlocked tasks and a
/// leftover of the snapshot's order (the case where the harvest's order
/// between the two matters).
#[test]
fn the_cases_reach_parked_unlocked_and_mixed_harvests() {
    let (mut parked, mut unlocked, mut mixed) = (0, 0, 0);
    for seed in 0..128 {
        let c = case(seed);
        let (.., reference) = project(&c);
        let was_unready = |t: &TaskId| c.bufs.tasks[t.index()] == TaskView::Unready;
        let left_unlocked = reference.leftover.iter().filter(|t| was_unready(t)).count();
        parked += !c.parked.is_empty() as u32;
        unlocked += reference.q_task.iter().any(|(t, _)| was_unready(t)) as u32;
        mixed += (left_unlocked > 0 && left_unlocked < reference.leftover.len()) as u32;
    }
    assert!(parked >= 16, "{parked} of 128 cases park tasks");
    assert!(unlocked >= 16, "{unlocked} of 128 cases unlock tasks");
    assert!(mixed >= 8, "{mixed} of 128 cases harvest both");
}

// ---- engine work count ---------------------------------------------------------

/// Calls of `iter_in_order` by one walker, and the task ids they yielded.
#[derive(Default)]
struct Walks {
    calls: Cell<u32>,
    yields: Cell<u64>,
}

/// Shared between [`Counting`] and [`Observe`]: who walked the scheduler's
/// queue, and how far.
#[derive(Default)]
struct Probe {
    /// The engine, outside the debug pop-order oracle.
    outside: Walks,
    /// The engine's debug pop-order oracle.
    oracle: Walks,
    /// [`Observe`]'s own check.
    checked: Walks,
    /// Set when `plan` returns in a debug build: the engine's pop-order
    /// oracle walks the order next.
    oracle_next: Cell<bool>,
    /// Set while [`Observe`] walks the order itself.
    checking: Cell<bool>,
    /// Tasks popped from the scheduler and not pushed back since.
    popped: RefCell<BTreeSet<TaskId>>,
    /// MAPE ticks the policy saw.
    ticks: Cell<u32>,
    /// Ticks whose order began with at least one memory-parked task.
    parked_ticks: Cell<u32>,
    /// `pop` calls that found the queue empty.
    empty_pops: Cell<u32>,
}

/// Wraps the session's scheduler and counts the task ids its
/// `iter_in_order` yields, by walker, and the pops that came back empty.
struct Counting {
    inner: AnyScheduler,
    probe: Rc<Probe>,
}

impl Scheduler for Counting {
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        self.inner.prepare(slot, profile);
    }

    fn push_ready(&mut self, task: TaskId, stage: StageId) {
        self.probe.popped.borrow_mut().remove(&task);
        self.inner.push_ready(task, stage);
    }

    fn push_resubmit(&mut self, task: TaskId) {
        self.probe.popped.borrow_mut().remove(&task);
        self.inner.push_resubmit(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        let task = self.inner.pop();
        self.probe.popped.borrow_mut().extend(task);
        let empty = &self.probe.empty_pops;
        empty.set(empty.get() + task.is_none() as u32);
        task
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        let p = &*self.probe;
        let walks = if p.checking.get() {
            &p.checked
        } else if p.oracle_next.replace(false) {
            &p.oracle
        } else {
            &p.outside
        };
        walks.calls.set(walks.calls.get() + 1);
        let yields = &walks.yields;
        Box::new(
            self.inner
                .iter_in_order()
                .inspect(move |_| yields.set(yields.get() + 1)),
        )
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// A static pool that also checks the lent order on every tick: its length
/// is the number of Ready rows, and the memory-parked tasks lead it.
struct Observe {
    inner: StaticPolicy,
    probe: Rc<Probe>,
}

impl ScalingPolicy for Observe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, snap: &MonitorSnapshot<'_>) -> PoolPlan {
        let p = &*self.probe;
        p.ticks.set(p.ticks.get() + 1);
        let order = snap.ready_in_dispatch_order;
        let is_ready = |t: &TaskId| snap.tasks[t.index()] == TaskView::Ready;
        let ready_rows = snap.tasks.iter().filter(|&&t| t == TaskView::Ready).count();
        assert_eq!(order.len(), ready_rows, "order length at {}", snap.now);

        p.checking.set(true);
        let walked: Vec<TaskId> = order.iter().collect();
        p.checking.set(false);
        assert_eq!(walked.len(), ready_rows);
        assert!(walked.iter().all(is_ready), "a walked task is not Ready");
        // parked: popped from the scheduler, still Ready (not placed)
        let parked: BTreeSet<TaskId> = p.popped.borrow().iter().copied().filter(is_ready).collect();
        let (head, tail) = walked.split_at(parked.len());
        assert_eq!(head.iter().copied().collect::<BTreeSet<_>>(), parked);
        assert!(tail.iter().all(|t| !parked.contains(t)));
        p.parked_ticks
            .set(p.parked_ticks.get() + !parked.is_empty() as u32);

        let plan = self.inner.plan(snap);
        p.oracle_next.set(cfg!(debug_assertions));
        plan
    }
}

/// Two wide two-stage workflows, the second arriving later: the backlog far
/// outgrows a two-instance pool.
fn burst() -> Vec<(Workflow, ExecProfile)> {
    (0..2)
        .map(|w| {
            let mut b = WorkflowBuilder::new(format!("burst{w}"));
            let (s0, s1) = (b.add_stage("map"), b.add_stage("reduce"));
            let maps: Vec<TaskId> = (0..40).map(|_| b.add_task(s0, 0, 0)).collect();
            for (i, &m) in maps.iter().enumerate() {
                let r = b.add_task(s1, 0, 0);
                b.add_dep(m, r).unwrap();
                b.add_dep(maps[(i + 1) % maps.len()], r).unwrap();
            }
            let wf = b.build().unwrap();
            let times = (0..wf.num_tasks() as u64)
                .map(|i| Millis::from_secs(40 + (i * 37 + w * 11) % 200))
                .collect();
            (wf, ExecProfile::new(times))
        })
        .collect()
}

fn count_walks(spec: SchedulerSpec, memory: bool) -> Rc<Probe> {
    let dags = burst();
    let n: usize = dags.iter().map(|(wf, _)| wf.num_tasks()).sum();
    let submissions = (dags.iter().enumerate())
        .map(|(i, (wf, prof))| (Millis::from_mins(7 * i as u64), wf, prof))
        .collect();
    let mut cfg = CloudConfig {
        slots_per_instance: 3,
        site_capacity: 2,
        initial_instances: 2,
        mape_interval: Millis::from_mins(1),
        scheduler: spec,
        ..CloudConfig::default()
    };
    if memory {
        cfg.families = vec![FamilySpec::new("m", 3, 1_000).memory_mb(1_000)];
    }
    let probe = Rc::new(Probe::default());
    let policy = Observe {
        inner: StaticPolicy::new(2),
        probe: probe.clone(),
    };
    let counted = probe.clone();
    let mut engine = Engine::from_submissions_with(
        submissions,
        cfg.clone(),
        TransferModel::none(),
        policy,
        11,
        NoopRecorder,
        move |tasks, stages| Counting {
            inner: spec.build(tasks, stages, &cfg),
            probe: counted,
        },
    )
    .unwrap();
    if memory {
        // every third task claims 600 of an instance's 1000 MB, so a second
        // one parks until the first leaves; some peaks overrun their claim
        let demand: Vec<i64> = (0..n).map(|i| if i % 3 == 0 { 600 } else { 150 }).collect();
        let peak = (0..n).map(|i| demand[i] + (i as i64 % 4) * 80).collect();
        engine = engine
            .with_memory(&MemoryProfile::new(demand, peak).unwrap())
            .unwrap();
    }
    let r = engine.run().unwrap();
    assert_eq!(r.task_records.len(), n);
    probe
}

#[test]
fn a_static_policy_tick_walks_no_backlog() {
    for memory in [false, true] {
        for spec in SchedulerSpec::ALL {
            let probe = count_walks(spec, memory);
            let at = format!("{} memory={memory}", spec.tag());
            let (outside, oracle, checked) = (&probe.outside, &probe.oracle, &probe.checked);
            assert_eq!(outside.calls.get(), 0, "{at}: the engine walked the order");
            assert_eq!(outside.yields.get(), 0, "{at}: the engine walked the order");
            assert!(checked.yields.get() > 0, "{at}: no standing backlog");
            // debug builds walk the whole queue once per tick, after `plan`
            let (calls, yields) = match cfg!(debug_assertions) {
                true => (probe.ticks.get(), checked.yields.get()),
                false => (0, 0),
            };
            assert_eq!(oracle.calls.get(), calls, "{at}: oracle walks");
            assert_eq!(oracle.yields.get(), yields, "{at}: oracle entries");
            assert_eq!(probe.parked_ticks.get() > 0, memory, "{at}: parked ticks");
            // dispatch asks for a task only while the queue holds one
            assert_eq!(probe.empty_pops.get(), 0, "{at}: pops of an empty queue");
        }
    }
}
