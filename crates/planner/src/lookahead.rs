//! The online workflow simulation of §III-B2.
//!
//! Each MAPE iteration, WIRE simulates the arrived workflows' execution over
//! the next interval (length = the lag time `t`) on the *current* allotment,
//! using the predictor's conservative minimum occupancy estimates. The output
//! is the *upcoming load* `Q_task` — the tasks expected to be active at the
//! start of the target interval, each with its predicted minimum remaining
//! occupancy — plus, per current instance, the *restart cost* (maximum sunk
//! occupancy of any task projected to be running on it at that time,
//! Algorithm 2's `c_j`).
//!
//! The projection assumes the framework's own dispatch order (priority FIFO;
//! §III-D notes the controller's predicted assignment may drift from the true
//! schedule with minor effect). Draining instances are projected to keep
//! their running tasks but accept no new ones.
//!
//! The projection runs every MAPE tick, so it is engineered allocation-free
//! in steady state: callers hold a [`LookaheadScratch`] and use
//! [`lookahead_into`], which reuses every working buffer (event heap, backlog,
//! dependency counters) and the output [`Upcoming`] across ticks. The
//! [`lookahead`] wrapper allocates a fresh scratch per call for one-shot use.
//!
//! Its per-tick work is windowed at the snapshot's done-prefix watermark
//! ([`MonitorSnapshot::done_prefix`]): the per-task columns hold rows only
//! for the tasks at and above it, indexed by `task − done_prefix`, and the
//! dependency count skips every workflow slot wholly below it. In a stream of
//! many small workflows, where nearly every arrived task is finished, a tick
//! then costs O(live tasks + live slots + live instances) rather than
//! O(arrived tasks). A snapshot reporting `done_prefix = 0` projects exactly
//! the same load over the full window.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use wire_dag::{Millis, TaskId};
use wire_simcloud::{InstanceId, InstanceStateView, MonitorSnapshot, TaskView};

/// Sentinel for "not projected running" in `LookaheadScratch::running_slot`.
const NONE: u32 = u32::MAX;

/// The upcoming load at the start of the next interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Upcoming {
    /// `Q_task`: (task, predicted minimum remaining occupancy), in projected
    /// dispatch order — projected-running tasks first, then the queued
    /// backlog.
    pub q_task: Vec<(TaskId, Millis)>,
    /// `c_j` per current instance: the restart cost if the instance were
    /// released at the start of the next interval. Rows are in
    /// `snapshot.instances` order, which is id order.
    pub restart_cost: Vec<(InstanceId, Millis)>,
    /// Per current instance: predicted occupancy *beyond* the horizon from
    /// the tasks running on it now — the steering policy's "confidence that
    /// the workflow can continue to use it efficiently" (§III-B3). An
    /// instance whose tasks are predicted to keep it busy past the next
    /// interval is not released even when its restart cost is low. Rows are
    /// in `snapshot.instances` order, which is id order.
    pub projected_busy: Vec<(InstanceId, Millis)>,
    /// The occupancy column of `q_task`, maintained alongside it so
    /// [`Upcoming::occupancies`] is a borrow, not a per-tick clone.
    occ: Vec<Millis>,
}

impl Upcoming {
    /// The occupancy column of `Q_task` (what Algorithm 3 consumes).
    pub fn occupancies(&self) -> &[Millis] {
        &self.occ
    }
}

/// A projected running task. (Completion times live in the event queue; the
/// struct tracks what the horizon harvest needs.)
#[derive(Debug, Clone, Copy)]
struct SimRunning {
    task: TaskId,
    /// The instance's row in `snapshot.instances`.
    row: u32,
    started_at: Millis,
    /// Sunk occupancy the task already had at projection time 0.
    sunk_at_0: Millis,
}

/// Projection events are heap keys `(time, kind, id)`: a slot opening at τ
/// (`id` = instance row) is offered to the backlog before completions at the
/// same τ (`id` = task) are processed — both orders are defensible; this one
/// is deterministic. Rows follow instance ids, so the order is the same as
/// keying by id.
const SLOT_OPENS: u8 = 0;
const COMPLETES: u8 = 1;

/// Reusable working state for [`lookahead_into`]: every buffer the projection
/// touches, plus the output [`Upcoming`]. Hold one per control loop and the
/// per-tick projection allocates nothing once the buffers have grown to the
/// live window's size.
#[derive(Debug, Clone, Default)]
pub struct LookaheadScratch {
    /// Per window task (`task − done_prefix`): already completed (real or
    /// projected). Tasks below the watermark read as done.
    done: Vec<bool>,
    /// Per window task: count of unmet dependencies.
    unmet: Vec<u32>,
    /// Queued tasks in the framework's dispatch order.
    backlog: VecDeque<TaskId>,
    /// Projected-running tasks (unordered; see `running_slot`).
    running: Vec<SimRunning>,
    /// Per window task: its index in `running`, or [`NONE`] — completions
    /// resolve in O(1) instead of a per-event linear scan of the running set.
    running_slot: Vec<u32>,
    /// Pending projection events, `(time, kind, id)`.
    events: BinaryHeap<Reverse<(Millis, u8, u32)>>,
    /// Free slots available now, as accepting instance rows (FIFO).
    free_now: VecDeque<u32>,
    /// Per snapshot-instance row: max projected sunk occupancy at the horizon.
    projected_max: Vec<Millis>,
    /// The output, rebuilt in place each call.
    out: Upcoming,
}

/// Simulate the next `horizon` of execution and return the upcoming load.
///
/// One-shot convenience over [`lookahead_into`]: allocates a fresh
/// [`LookaheadScratch`] per call. Control loops should hold a scratch and
/// call [`lookahead_into`] instead.
pub fn lookahead(
    snapshot: &MonitorSnapshot<'_>,
    remaining: &[Millis],
    values: &[Millis],
    horizon: Millis,
) -> Upcoming {
    let mut scratch = LookaheadScratch::default();
    lookahead_into(&mut scratch, snapshot, remaining, values, horizon);
    scratch.out
}

/// Is global task `g` done, given window columns that start at `dp`?
#[inline]
fn done_at(done: &[bool], dp: usize, g: usize) -> bool {
    g < dp || done[g - dp]
}

/// Simulate the next `horizon` of execution into `scratch`, returning the
/// upcoming load borrowed from it.
///
/// Two per-task arrays, indexed by global task id, drive the projection:
///
/// * `remaining[t]` — the predicted minimum *remaining* occupancy (estimate
///   minus observed age for running tasks). This decides *which* tasks
///   complete within the horizon, i.e. the membership of `Q_task`.
/// * `values[t]` — the occupancy each still-active task contributes to
///   `Q_task`: its full current estimate `t_i`. The paper's §III-E arithmetic
///   requires this ("after U/N time units the algorithm predicts that the N
///   tasks of the stage will consume an entire instance-unit": all N tasks are
///   valued at the full estimate, progress is not credited) — valuing active
///   tasks at `t_i − age` instead makes Algorithm 3 treat busy instances as
///   imminently reusable capacity and stalls pool growth at ~N/2.
///
/// Entries for done tasks, and every entry below the done-prefix watermark,
/// are ignored.
pub fn lookahead_into<'s>(
    scratch: &'s mut LookaheadScratch,
    snapshot: &MonitorSnapshot<'_>,
    remaining: &[Millis],
    values: &[Millis],
    horizon: Millis,
) -> &'s Upcoming {
    let n = snapshot.tasks.len();
    assert_eq!(remaining.len(), n, "estimate per task required");
    assert_eq!(values.len(), n, "value per task required");

    // Disjoint borrows of every buffer, so the dispatch macro and closures
    // below can mix them freely.
    let LookaheadScratch {
        done,
        unmet,
        backlog,
        running,
        running_slot,
        events,
        free_now,
        projected_max,
        out,
    } = scratch;

    // Every task below the engine's done-prefix watermark is permanently
    // Done: the per-task columns cover only the window above it.
    let dp = snapshot.done_prefix.min(n);
    let window = &snapshot.tasks[dp..];
    done.clear();
    done.extend(window.iter().map(TaskView::is_done));
    // Dependency edges are workflow-local; walk each slot's tasks through its
    // global offsets. Slots tile the task space in order, so the slots wholly
    // below the watermark are a prefix: one search over the slot bases finds
    // the last slot starting at or below it. That slot skips its rows below
    // `dp` (all of them, when it ends at `dp`), and predecessors below the
    // watermark count as done.
    unmet.clear();
    unmet.resize(window.len(), 0);
    let first = snapshot
        .workflows
        .partition_point(|s| s.task_base as usize <= dp)
        .saturating_sub(1);
    let live_slots = &snapshot.workflows[first..];
    for slot in live_slots {
        let base = slot.task_base as usize;
        for local in dp.saturating_sub(base)..slot.num_tasks() {
            let preds = slot.workflow.preds(TaskId(local as u32));
            unmet[base + local - dp] = preds
                .iter()
                .filter(|p| !done_at(done, dp, base + p.index()))
                .count() as u32;
        }
    }
    running.clear();
    running_slot.clear();
    running_slot.resize(window.len(), NONE);
    events.clear();
    free_now.clear();

    // queued backlog in the framework's dispatch order, copied in one walk
    // of the lent order: `for_each`, because `extend` would step the chained
    // iterator one `next` at a time; an empty order is not walked at all,
    // since walking a scheduler allocates its iterator
    backlog.clear();
    let order = snapshot.ready_in_dispatch_order;
    if !order.is_empty() {
        order.iter().for_each(|t| backlog.push_back(t));
    }

    // One pass over the instance rows: free and opening slots, the tasks
    // running now, and the seeds of both per-instance tables. Every row
    // pushes one seed to each table and, on a pool of busy single-slot
    // instances, one running task: reserve for that once up front.
    let rows = snapshot.instances.len();
    projected_max.clear();
    projected_max.reserve(rows);
    out.projected_busy.clear();
    out.projected_busy.reserve(rows);
    running.reserve(rows);
    for (row, iv) in snapshot.instances.iter().enumerate() {
        let row = row as u32;
        match iv.state {
            InstanceStateView::Running { .. } => {
                if iv.free_slots > 0 {
                    free_now.extend(std::iter::repeat_n(row, iv.free_slots as usize));
                }
            }
            InstanceStateView::Launching { ready_at } => {
                let at = ready_at.saturating_sub(snapshot.now);
                if at.is_zero() {
                    free_now.extend(std::iter::repeat_n(row, iv.free_slots as usize));
                } else if at < horizon {
                    for _ in 0..iv.free_slots {
                        events.push(Reverse((at, SLOT_OPENS, row)));
                    }
                }
            }
            InstanceStateView::Draining { .. } => {
                // keeps its running tasks, accepts nothing new
            }
        }

        // `still_running` assumes every task running now is still on its slot
        // at the horizon (the pessimistic half of `c_j`, see the harvest);
        // `busy` is the predicted occupancy beyond the horizon (overdue tasks
        // contribute zero here; their protection comes from the restart cost).
        let mut still_running = Millis::ZERO;
        let mut busy = Millis::ZERO;
        for &task in &iv.tasks {
            let i = task.index();
            busy = busy.max(remaining[i].saturating_sub(horizon));
            let TaskView::Running { occupied_for, .. } = snapshot.tasks[i] else {
                continue;
            };
            still_running = still_running.max(occupied_for + horizon);
            // An *overdue* running task (conservative minimum remaining
            // already elapsed) is "about to complete" but has not been
            // observed to — it stays active through the horizon, holding its
            // slot. Without this pin, the oldest half of a stage melts out of
            // Q_task and its slots absorb the backlog, stalling pool growth
            // at ~N/2 (the §III-E arithmetic requires all N active tasks to
            // keep contributing to the predicted load).
            let finish_at = if remaining[i].is_zero() {
                Millis::MAX
            } else {
                remaining[i]
            };
            running_slot[i - dp] = running.len() as u32;
            running.push(SimRunning {
                task,
                row,
                started_at: Millis::ZERO,
                sunk_at_0: occupied_for,
            });
            if finish_at < horizon {
                events.push(Reverse((finish_at, COMPLETES, task.0)));
            }
        }
        projected_max.push(still_running);
        out.projected_busy.push((iv.id, busy));
    }

    // dispatch helper: fill currently free slots from the backlog
    macro_rules! dispatch {
        ($now:expr) => {
            while !backlog.is_empty() && !free_now.is_empty() {
                let row = free_now.pop_front().expect("non-empty");
                let task = backlog.pop_front().expect("non-empty");
                running_slot[task.index() - dp] = running.len() as u32;
                running.push(SimRunning {
                    task,
                    row,
                    started_at: $now,
                    sunk_at_0: Millis::ZERO,
                });
                let finish_at = $now + remaining[task.index()];
                events.push(Reverse((finish_at, COMPLETES, task.0)));
            }
        };
    }

    dispatch!(Millis::ZERO);

    while let Some(&Reverse((at, kind, id))) = events.peek() {
        if at >= horizon {
            break;
        }
        events.pop();
        if kind == SLOT_OPENS {
            free_now.push_back(id);
            dispatch!(at);
            continue;
        }
        let task = TaskId(id);
        let w = task.index() - dp;
        let slot = running_slot[w];
        if slot == NONE {
            continue; // stale
        }
        let pos = slot as usize;
        let fin = running.swap_remove(pos);
        running_slot[w] = NONE;
        if let Some(moved) = running.get(pos) {
            running_slot[moved.task.index() - dp] = pos as u32;
        }
        done[w] = true;
        // a draining instance keeps its running tasks but accepts nothing new
        if !matches!(
            snapshot.instances[fin.row as usize].state,
            InstanceStateView::Draining { .. }
        ) {
            free_now.push_back(fin.row);
        }
        let slot = &live_slots[live_slots.partition_point(|s| s.task_base <= id) - 1];
        for &s in slot.workflow.succs(slot.local_task(task)) {
            let g = slot.global_task(s).index();
            if done_at(done, dp, g) {
                continue;
            }
            let u = &mut unmet[g - dp];
            if *u > 0 {
                *u -= 1;
                if *u == 0 {
                    backlog.push_back(TaskId(g as u32));
                }
            }
        }
        dispatch!(at);
    }

    // --- harvest the state at the horizon ----------------------------------
    // task ids are unique, so the unstable sort is deterministic (and does
    // not allocate the merge buffer a stable sort would)
    running.sort_unstable_by_key(|r| r.task);
    out.q_task.clear();
    out.occ.clear();
    out.q_task.reserve(running.len() + backlog.len());
    for r in running.iter() {
        out.q_task.push((r.task, values[r.task.index()]));
    }
    for &t in backlog.iter() {
        out.q_task.push((t, values[t.index()]));
    }
    out.occ.extend(out.q_task.iter().map(|&(_, t)| t));

    // Restart cost `c_j`: the sunk occupancy that would be lost by releasing
    // the instance at the interval start. The projection uses conservative
    // *minimum* remaining occupancies, so a task projected to complete within
    // the horizon may in reality still be running — releasing its instance
    // would throw away its entire sunk cost. The load estimate must stay
    // conservative-low (never over-provision), but the release decision must
    // stay conservative-high: take the max over (a) tasks running *now*
    // assumed to still be occupying their slot at the horizon (the
    // `projected_max` seed above), and (b) tasks the projection newly placed
    // on the instance.
    //
    // Both per-instance tables are built in single passes over dense row
    // columns: a nested instances × tasks scan makes wide pools (Figure 2's
    // N = 1000 sweeps) quadratic per tick.
    for r in running.iter() {
        let c = r.sunk_at_0 + (horizon - r.started_at);
        let m = &mut projected_max[r.row as usize];
        *m = (*m).max(c);
    }
    out.restart_cost.clear();
    out.restart_cost.extend(
        snapshot
            .instances
            .iter()
            .zip(projected_max.iter())
            .map(|(iv, &c)| (iv.id, c)),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::{Workflow, WorkflowBuilder};
    use wire_simcloud::{CloudConfig, InstanceView, SnapshotBuffers, WorkflowSlot};

    fn mins(m: u64) -> Millis {
        Millis::from_mins(m)
    }

    impl Upcoming {
        /// `c_j` of one instance, if it was in the snapshot (binary search
        /// over the id-ordered rows).
        fn restart_cost_of(&self, id: InstanceId) -> Option<Millis> {
            row_lookup(&self.restart_cost, id)
        }

        /// Projected busy time of one instance, if it was in the snapshot.
        fn projected_busy_of(&self, id: InstanceId) -> Option<Millis> {
            row_lookup(&self.projected_busy, id)
        }
    }

    fn row_lookup(rows: &[(InstanceId, Millis)], id: InstanceId) -> Option<Millis> {
        rows.binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|r| rows[r].1)
    }

    /// chain of `n` tasks in one stage
    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.add_stage("s");
        let ts: Vec<TaskId> = (0..n).map(|_| b.add_task(s, 0, 0)).collect();
        for w in ts.windows(2) {
            b.add_dep(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn config(l: u32) -> CloudConfig {
        CloudConfig {
            slots_per_instance: l,
            ..CloudConfig::default()
        }
    }

    fn inst(id: u32, state: InstanceStateView, tasks: Vec<TaskId>, l: u32) -> InstanceView {
        let free = l - tasks.len() as u32;
        InstanceView {
            id: InstanceId(id),
            state,
            tasks,
            free_slots: free,
            family: 0,
        }
    }

    fn snapshot<'a>(
        wf: &'a Workflow,
        cfg: &'a CloudConfig,
        tasks: Vec<TaskView>,
        instances: Vec<InstanceView>,
        ready: Vec<TaskId>,
    ) -> MonitorSnapshot<'a> {
        // Snapshots borrow their backing store; leaking the buffers keeps
        // this fixture a one-liner at call sites (test-only, bounded).
        let bufs: &'a SnapshotBuffers = Box::leak(Box::new(SnapshotBuffers {
            tasks,
            instances,
            new_completions: vec![],
            interval_transfers: vec![],
            interval_ooms: 0,
            ready_in_dispatch_order: ready,
            spent_milli: 0,
        }));
        let slots: &'a [WorkflowSlot<'a>] = Box::leak(Box::new([WorkflowSlot::solo(wf)]));
        bufs.snapshot(Millis::ZERO, slots, cfg)
    }

    /// A snapshot over several workflow slots, numbered back to back as the
    /// engine numbers arrivals (leaked, like [`snapshot`]).
    fn multi_snapshot(
        wfs: Vec<Workflow>,
        l: u32,
        tasks: Vec<TaskView>,
        instances: Vec<InstanceView>,
        ready: Vec<TaskId>,
    ) -> MonitorSnapshot<'static> {
        let wfs: &'static [Workflow] = Box::leak(wfs.into_boxed_slice());
        let (mut task_base, mut stage_base) = (0u32, 0u32);
        let slots: Vec<WorkflowSlot<'static>> = wfs
            .iter()
            .enumerate()
            .map(|(k, wf)| {
                let slot = WorkflowSlot {
                    id: wire_dag::WorkflowId(k as u32),
                    workflow: wf,
                    submitted_at: Millis::ZERO,
                    task_base,
                    stage_base,
                };
                task_base += wf.num_tasks() as u32;
                stage_base += wf.num_stages() as u32;
                slot
            })
            .collect();
        assert_eq!(task_base as usize, tasks.len());
        let slots: &'static [WorkflowSlot<'static>] = Box::leak(slots.into_boxed_slice());
        let cfg: &'static CloudConfig = Box::leak(Box::new(config(l)));
        let bufs: &'static SnapshotBuffers = Box::leak(Box::new(SnapshotBuffers {
            tasks,
            instances,
            ready_in_dispatch_order: ready,
            ..SnapshotBuffers::default()
        }));
        bufs.snapshot(Millis::ZERO, slots, cfg)
    }

    /// Project `snap` with every sound watermark `0..=max_prefix` and assert
    /// each windowed projection equals the full one (`done_prefix = 0`),
    /// with per-task columns of exactly `n − done_prefix` rows. Returns the
    /// full projection.
    fn windowed_equals_full(
        snap: &MonitorSnapshot<'_>,
        max_prefix: usize,
        remaining: &[Millis],
        values: &[Millis],
        horizon: Millis,
    ) -> Upcoming {
        let full = lookahead(snap, remaining, values, horizon);
        let mut scratch = LookaheadScratch::default();
        for dp in (0..=max_prefix).rev() {
            let windowed = MonitorSnapshot {
                done_prefix: dp,
                ..*snap
            };
            let got = lookahead_into(&mut scratch, &windowed, remaining, values, horizon);
            assert_eq!(got, &full, "done_prefix {dp}");
            let rows = snap.tasks.len() - dp;
            assert_eq!(scratch.done.len(), rows, "done_prefix {dp}");
            assert_eq!(scratch.unmet.len(), rows, "done_prefix {dp}");
            assert_eq!(scratch.running_slot.len(), rows, "done_prefix {dp}");
        }
        full
    }

    /// t0 → {t1, t2} → t3
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_stage("s");
        let t: Vec<TaskId> = (0..4).map(|_| b.add_task(s, 0, 0)).collect();
        for (a, z) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_dep(t[a], t[z]).unwrap();
        }
        b.build().unwrap()
    }

    fn done() -> TaskView {
        TaskView::Done {
            exec_time: mins(1),
            transfer_time: Millis::ZERO,
        }
    }

    fn running_on(id: u32, occupied: Millis) -> TaskView {
        TaskView::Running {
            instance: InstanceId(id),
            exec_age: occupied,
            occupied_for: occupied,
        }
    }

    #[test]
    fn prefix_ending_mid_workflow_projects_as_the_full_window() {
        // slots: chain(3) = 0..3, diamond = 3..7, chain(2) = 7..9. The
        // watermark at 5 ends inside the diamond: its root and one branch
        // (global 3, 4) are done, the other branch (5) runs, and the join
        // (6) waits on 4 (below the prefix) and 5 (live).
        let mut tasks = vec![done(); 5];
        tasks.extend([
            running_on(0, mins(2)),
            TaskView::Unready,
            TaskView::Ready,
            TaskView::Unready,
        ]);
        let snap = multi_snapshot(
            vec![chain(3), diamond(), chain(2)],
            2,
            tasks,
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(5)],
                2,
            )],
            vec![TaskId(7)],
        );
        let remaining: Vec<Millis> = (0..9)
            .map(|i| if i == 5 { mins(1) } else { mins(2) })
            .collect();
        let values: Vec<Millis> = (0..9).map(|i| mins(10 + i)).collect();
        let up = windowed_equals_full(&snap, 5, &remaining, &values, mins(3));
        // 7 takes the free slot at 0 and finishes at 2; 5 finishes at 1 and
        // releases the join (its other predecessor lies below the prefix),
        // which runs from 1; 7's successor 8 runs from 2
        assert_eq!(
            up.q_task,
            vec![(TaskId(6), mins(16)), (TaskId(8), mins(18))]
        );
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(5)));
    }

    #[test]
    fn live_successor_of_a_predecessor_below_the_prefix_is_ready() {
        // slots: chain(2) = 0..2, chain(3) = 2..5. The prefix ends at 3:
        // task 3's only predecessor (2) lies below it, so 3 is dispatched
        // from the ready queue and its own successor (4) follows it within
        // the horizon.
        let mut tasks = vec![done(); 3];
        tasks.extend([TaskView::Ready, TaskView::Unready]);
        let snap = multi_snapshot(
            vec![chain(2), chain(3)],
            1,
            tasks,
            vec![inst(
                7,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                1,
            )],
            vec![TaskId(3)],
        );
        let remaining = vec![mins(1), mins(1), mins(1), mins(1), mins(5)];
        let values = vec![mins(4); 5];
        let up = windowed_equals_full(&snap, 3, &remaining, &values, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(4), mins(4))]);
    }

    #[test]
    fn draining_instance_above_the_prefix_takes_no_new_work() {
        // slots: chain(2) = 0..2, three independent tasks = 2..5, chain(2) =
        // 5..7; prefix 3. Task 3 finishes at 1 on a draining instance, which
        // must not take the queued 5; task 4 frees the running instance at
        // 2, and 5 runs there from 2.
        let mut b = WorkflowBuilder::new("fan");
        let s = b.add_stage("s");
        for _ in 0..3 {
            b.add_task(s, 0, 0);
        }
        let fan = b.build().unwrap();
        let mut tasks = vec![done(); 3];
        tasks.extend([
            running_on(0, mins(1)),
            running_on(1, mins(2)),
            TaskView::Ready,
            TaskView::Unready,
        ]);
        let snap = multi_snapshot(
            vec![chain(2), fan, chain(2)],
            1,
            tasks,
            vec![
                inst(
                    0,
                    InstanceStateView::Draining {
                        terminate_at: mins(10),
                    },
                    vec![TaskId(3)],
                    1,
                ),
                inst(
                    1,
                    InstanceStateView::Running {
                        charge_start: Millis::ZERO,
                    },
                    vec![TaskId(4)],
                    1,
                ),
            ],
            vec![TaskId(5)],
        );
        let remaining: Vec<Millis> = vec![
            mins(1),
            mins(1),
            mins(1),
            mins(1),
            mins(2),
            mins(5),
            mins(5),
        ];
        let values = vec![mins(6); 7];
        let up = windowed_equals_full(&snap, 3, &remaining, &values, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(5), mins(6))]);
        // both stay pessimistic: each current task assumed still running
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(4)));
        assert_eq!(up.restart_cost_of(InstanceId(1)), Some(mins(5)));
        assert_eq!(up.projected_busy_of(InstanceId(1)), Some(Millis::ZERO));
    }

    #[test]
    fn running_task_past_horizon_stays_in_q() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(2),
                    occupied_for: mins(2),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        // task 0 predicted to need 10 more minutes (12 total); horizon 3 min
        let remaining = vec![mins(10), mins(5)];
        let values = vec![mins(12), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        // still active at the horizon, valued at its full estimate
        assert_eq!(up.q_task, vec![(TaskId(0), mins(12))]);
        assert_eq!(up.occupancies(), &[mins(12)]);
        // restart cost: already sunk 2 min + 3 min of the interval
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(5)));
        assert_eq!(up.restart_cost_of(InstanceId(9)), None);
    }

    #[test]
    fn completion_within_horizon_cascades_to_successor() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(9),
                    occupied_for: mins(9),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        // task 0 finishes in 1 min; successor predicted at 5 min
        let remaining = vec![mins(1), mins(5)];
        let values = vec![mins(10), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        // successor started at minute 1, still active, full estimate
        assert_eq!(up.q_task, vec![(TaskId(1), mins(5))]);
        // restart cost stays pessimistic: the predicted completion of task 0
        // (a conservative *minimum*) may not have happened, in which case the
        // instance still holds 9 + 3 = 12 minutes of sunk occupancy
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(12)));
    }

    #[test]
    fn backlog_remains_when_no_capacity() {
        // 4 ready tasks, one 1-slot instance
        let mut b = WorkflowBuilder::new("fan");
        let s = b.add_stage("s");
        for _ in 0..4 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let ready: Vec<TaskId> = wf.task_ids().collect();
        let snap = snapshot(
            &wf,
            &cfg,
            vec![TaskView::Ready; 4],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                1,
            )],
            ready,
        );
        let estimates = vec![mins(10); 4];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        // t0 runs; t1..t3 queued; all at full occupancy estimates
        assert_eq!(
            up.q_task,
            vec![
                (TaskId(0), mins(10)),
                (TaskId(1), mins(10)),
                (TaskId(2), mins(10)),
                (TaskId(3), mins(10)),
            ]
        );
    }

    #[test]
    fn launching_instance_opens_mid_horizon() {
        let mut b = WorkflowBuilder::new("fan2");
        let s = b.add_stage("s");
        for _ in 0..2 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![TaskView::Ready; 2],
            vec![
                inst(
                    0,
                    InstanceStateView::Running {
                        charge_start: Millis::ZERO,
                    },
                    vec![],
                    1,
                ),
                inst(
                    1,
                    InstanceStateView::Launching { ready_at: mins(1) },
                    vec![],
                    1,
                ),
            ],
            wf.task_ids().collect(),
        );
        let estimates = vec![mins(10), mins(10)];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        // t0 on i0 from 0, t1 on i1 from minute 1; both active, full values
        assert_eq!(
            up.q_task,
            vec![(TaskId(0), mins(10)), (TaskId(1), mins(10))]
        );
        assert_eq!(up.restart_cost_of(InstanceId(1)), Some(mins(2)));
    }

    #[test]
    fn draining_instance_keeps_task_but_takes_no_new_work() {
        let mut b = WorkflowBuilder::new("fan3");
        let s = b.add_stage("s");
        for _ in 0..2 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: Millis::ZERO,
                    occupied_for: Millis::ZERO,
                },
                TaskView::Ready,
            ],
            vec![inst(
                0,
                InstanceStateView::Draining {
                    terminate_at: mins(10),
                },
                vec![TaskId(0)],
                1,
            )],
            vec![TaskId(1)],
        );
        // t0 completes in 1 min, but the freed draining slot must not take t1
        let estimates = vec![mins(1), mins(1)];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(1), mins(1))]);
    }

    #[test]
    fn zero_estimates_cascade_instantly() {
        // A whole chain of zero-estimate tasks (Policy 1) collapses within the
        // horizon and contributes nothing to the load.
        let wf = chain(5);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            {
                let mut v = vec![TaskView::Unready; 5];
                v[0] = TaskView::Ready;
                v
            },
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                1,
            )],
            vec![TaskId(0)],
        );
        let estimates = vec![Millis::ZERO; 5];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        assert!(up.q_task.is_empty(), "{:?}", up.q_task);
    }

    #[test]
    fn overdue_running_task_stays_active_and_holds_its_slot() {
        // t0 overdue (remaining 0) on the only slot; t1 queued. The overdue
        // task must stay in Q at its full value and its slot must NOT free
        // for t1 — so t1 remains queued, justifying a new instance.
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(12),
                    occupied_for: mins(12),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        let remaining = vec![Millis::ZERO, mins(5)];
        let values = vec![mins(10), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(0), mins(10))]);
        // pinned task keeps its sunk cost growing through the horizon
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(15)));
    }

    #[test]
    fn estimates_length_is_checked() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(&wf, &cfg, vec![TaskView::Ready; 2], vec![], vec![]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lookahead(&snap, &[Millis::ZERO], &[Millis::ZERO], mins(3))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scratch_reuse_matches_one_shot_results() {
        // The same scratch driven through dissimilar snapshots (different
        // workflow sizes, pool shapes, drain states) must produce exactly what
        // a fresh per-call projection does — stale buffer contents must not
        // leak across ticks.
        let wf_a = chain(4);
        let wf_b = chain(2);
        let cfg = config(2);
        let snap_a = snapshot(
            &wf_a,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(3),
                    exec_age: mins(1),
                    occupied_for: mins(1),
                },
                TaskView::Unready,
                TaskView::Unready,
                TaskView::Unready,
            ],
            vec![
                inst(
                    3,
                    InstanceStateView::Running {
                        charge_start: Millis::ZERO,
                    },
                    vec![TaskId(0)],
                    2,
                ),
                inst(
                    5,
                    InstanceStateView::Draining {
                        terminate_at: mins(9),
                    },
                    vec![],
                    2,
                ),
            ],
            vec![],
        );
        let snap_b = snapshot(
            &wf_b,
            &cfg,
            vec![TaskView::Ready, TaskView::Unready],
            vec![inst(
                1,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                2,
            )],
            vec![TaskId(0)],
        );
        let rem_a = vec![mins(2), mins(4), mins(4), mins(4)];
        let val_a = vec![mins(3), mins(4), mins(4), mins(4)];
        let rem_b = vec![mins(7), mins(7)];

        let mut scratch = LookaheadScratch::default();
        for _ in 0..3 {
            let got = lookahead_into(&mut scratch, &snap_a, &rem_a, &val_a, mins(3)).clone();
            assert_eq!(got, lookahead(&snap_a, &rem_a, &val_a, mins(3)));
            let got = lookahead_into(&mut scratch, &snap_b, &rem_b, &rem_b, mins(3)).clone();
            assert_eq!(got, lookahead(&snap_b, &rem_b, &rem_b, mins(3)));
        }
    }
}
