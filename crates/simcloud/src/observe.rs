//! The monitor snapshot: everything a scaling policy may observe.
//!
//! This is the sanitized boundary between the simulator (which knows ground
//! truth) and the controller (which must predict). It mirrors what a real
//! framework exposes (§II-C property 1): task lifecycles, ages, completed
//! execution/transfer times, input sizes, instance pool state and charging
//! clocks — and *not* the remaining time of running tasks or the execution
//! times of future tasks.

use crate::config::CloudConfig;
use crate::family::FamilyId;
use crate::instance::{InstanceId, InstanceStateView};
use crate::scheduler::Scheduler;
use serde::{Deserialize, Serialize};
use wire_dag::{Millis, StageId, TaskId, TaskSpec, Workflow, WorkflowId};

/// A policy's view of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskView {
    /// Predecessors incomplete.
    Unready,
    /// All inputs available, waiting for a slot.
    Ready,
    /// Occupying a slot.
    Running {
        instance: InstanceId,
        /// Time since execution began (0 while the input transfer runs).
        exec_age: Millis,
        /// Time since the slot was occupied — the task's *sunk cost* so far.
        occupied_for: Millis,
    },
    /// Finished; observed times are now known.
    Done {
        exec_time: Millis,
        transfer_time: Millis,
    },
}

impl TaskView {
    pub fn is_done(&self) -> bool {
        matches!(self, TaskView::Done { .. })
    }

    pub fn is_running(&self) -> bool {
        matches!(self, TaskView::Running { .. })
    }
}

/// A policy's view of one pool instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceView {
    pub id: InstanceId,
    pub state: InstanceStateView,
    /// Tasks currently occupying slots.
    pub tasks: Vec<TaskId>,
    pub free_slots: u32,
    /// Index into [`CloudConfig::families`]; 0 on the legacy homogeneous
    /// cloud (empty table).
    #[serde(default)]
    pub family: FamilyId,
}

impl InstanceView {
    /// `r_j` — time until this instance's current charging unit expires.
    pub fn time_to_next_charge(&self, now: Millis, unit: Millis) -> Millis {
        let charge_start = match self.state {
            InstanceStateView::Running { charge_start } => charge_start,
            InstanceStateView::Draining { .. } => return Millis::ZERO,
            InstanceStateView::Launching { .. } => return unit,
        };
        let elapsed = now.saturating_sub(charge_start);
        let rem = elapsed % unit;
        if rem.is_zero() && !elapsed.is_zero() {
            Millis::ZERO
        } else {
            unit - rem
        }
    }

    pub fn is_running(&self) -> bool {
        matches!(self.state, InstanceStateView::Running { .. })
    }
}

/// A completion observed during the last MAPE interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionView {
    pub task: TaskId,
    pub input_bytes: u64,
    pub exec_time: Millis,
    pub transfer_time: Millis,
    /// Observed peak resident memory (MB), as a real framework reports
    /// maxrss after task exit. Zero when the session declares no memory
    /// profile.
    #[serde(default)]
    pub peak_mb: i64,
}

/// One workflow's place in a session: its DAG plus the contiguous slice of
/// the session-global task/stage index space assigned at submission.
///
/// The engine numbers workflows in submission-time order and hands every
/// workflow a base offset for its tasks and stages; global ids are
/// `local + base`. A single-workflow run is one slot with both bases at 0,
/// so global and local ids coincide.
#[derive(Debug, Clone, Copy)]
pub struct WorkflowSlot<'a> {
    pub id: WorkflowId,
    pub workflow: &'a Workflow,
    /// Simulated time the workflow entered the session.
    pub submitted_at: Millis,
    /// First global task id of this workflow.
    pub task_base: u32,
    /// First global stage id of this workflow.
    pub stage_base: u32,
}

impl<'a> WorkflowSlot<'a> {
    /// The slot a lone workflow occupies (bases 0, submitted at time 0).
    pub fn solo(workflow: &'a Workflow) -> Self {
        WorkflowSlot {
            id: WorkflowId(0),
            workflow,
            submitted_at: Millis::ZERO,
            task_base: 0,
            stage_base: 0,
        }
    }

    pub fn num_tasks(&self) -> usize {
        self.workflow.num_tasks()
    }

    /// Does the global task id fall inside this workflow's slice?
    pub fn contains(&self, task: TaskId) -> bool {
        let i = task.0.wrapping_sub(self.task_base);
        (i as usize) < self.workflow.num_tasks()
    }

    /// Global id of one of this workflow's local tasks.
    pub fn global_task(&self, local: TaskId) -> TaskId {
        TaskId(self.task_base + local.0)
    }

    /// Local id of a global task belonging to this workflow.
    pub fn local_task(&self, global: TaskId) -> TaskId {
        TaskId(global.0 - self.task_base)
    }

    /// Global id of one of this workflow's local stages.
    pub fn global_stage(&self, local: StageId) -> StageId {
        StageId(self.stage_base + local.0)
    }
}

/// Full monitoring snapshot handed to [`crate::ScalingPolicy::plan`] each tick.
///
/// All collection fields are borrowed slices: the engine writes them into a
/// persistent scratch buffer once per tick and lends them out, so building a
/// snapshot allocates nothing in steady state. Policies that need to keep
/// data across ticks must copy it out (the snapshot is valid only for the
/// duration of one `plan` call).
#[derive(Debug, Clone, Copy)]
pub struct MonitorSnapshot<'a> {
    pub now: Millis,
    /// Arrived workflows in submission order; task/stage views below are
    /// indexed by the session-global ids these slots define. Workflows
    /// submitted for later arrival are invisible until their arrival time.
    pub workflows: &'a [WorkflowSlot<'a>],
    /// The run's cloud. In a snapshot the engine builds, `families` is the
    /// resolved table and never empty (an empty configured table becomes
    /// the single legacy row); a hand-built snapshot may carry any config.
    pub config: &'a CloudConfig,
    /// Watermark: every task with index `< done_prefix` is
    /// [`TaskView::Done`]. Always sound to ignore (0 is valid for any
    /// snapshot, and a consumer must decide the same with 0 as with the
    /// engine's value); consumers may use it to skip the completed prefix
    /// when scanning `tasks`, which keeps per-tick work proportional to
    /// *live* tasks in long streaming sessions. WIRE's controller windows
    /// its per-task columns here: [`live_tasks`](Self::live_tasks) walks the
    /// tasks above it, and the lookahead sizes its columns `tasks.len() −
    /// done_prefix`.
    pub done_prefix: usize,
    /// Compatibility stub: always `false`, the engine has one core. It is
    /// deleted together with its last reader, listed under wirebench in
    /// ROADMAP item 2.
    #[doc(hidden)]
    pub naive: bool,
    /// Per-task view, indexed by `TaskId`.
    pub tasks: &'a [TaskView],
    /// All non-terminated instances, in id order.
    pub instances: &'a [InstanceView],
    /// Completions since the previous tick.
    pub new_completions: &'a [CompletionView],
    /// Transfer durations (in + out, per completed task) observed since the
    /// previous tick — the predictor's `t̃_data` feed.
    pub interval_transfers: &'a [Millis],
    /// Tasks the kernel OOM-killed since the previous tick (a framework
    /// observes these as exit-137 restarts). Always zero when the session
    /// declares no memory profile.
    pub interval_ooms: u32,
    /// Ready tasks in the order the framework would dispatch them, lent
    /// lazily: a policy that never walks it costs the engine nothing.
    pub ready_in_dispatch_order: DispatchOrder<'a>,
    /// Committed spend so far in milli-dollars: units already billed at
    /// termination plus the units every live instance has started (Launching
    /// owes its first unit; Draining owes through its drain boundary), each
    /// at its family's price. Computed only when [`CloudConfig::budget`] is
    /// set; always 0 on the unconstrained cloud.
    pub spent_milli: u64,
}

/// The ready tasks in dispatch order, borrowed rather than copied: a head
/// slice, then the queue of a live [`Scheduler`] walked through
/// [`Scheduler::iter_in_order`]. The engine lends its memory-parked tasks
/// (which retry ahead of the scheduler) as the head and its scheduler as the
/// tail, so a tick whose policy never reads the order never walks the
/// backlog. A hand-built snapshot lends its whole order as the head.
#[derive(Clone, Copy)]
pub struct DispatchOrder<'a> {
    head: &'a [TaskId],
    scheduler: Option<&'a dyn Scheduler>,
}

impl<'a> DispatchOrder<'a> {
    /// An order given in full as a slice.
    pub(crate) fn from_slice(order: &'a [TaskId]) -> Self {
        DispatchOrder {
            head: order,
            scheduler: None,
        }
    }

    /// `parked`, then the queue of `scheduler` in its pop order.
    pub fn scheduled(parked: &'a [TaskId], scheduler: &'a dyn Scheduler) -> Self {
        DispatchOrder {
            head: parked,
            scheduler: Some(scheduler),
        }
    }

    /// The tasks in dispatch order; walks the scheduler's queue only as far
    /// as the caller pulls.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + 'a {
        let queued = self.scheduler.into_iter().flat_map(|s| s.iter_in_order());
        self.head.iter().copied().chain(queued)
    }

    /// Number of ready tasks, in O(1); exactly as many as
    /// [`iter`](Self::iter) yields (the [`Scheduler`] contract).
    pub fn len(&self) -> usize {
        self.head.len() + self.scheduler.map_or(0, |s| s.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for DispatchOrder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Owned backing storage for a [`MonitorSnapshot`] — the caller-side
/// counterpart of the engine's internal scratch, for tests, benches and any
/// host that assembles snapshots by hand.
#[derive(Debug, Clone, Default)]
pub struct SnapshotBuffers {
    pub tasks: Vec<TaskView>,
    pub instances: Vec<InstanceView>,
    pub new_completions: Vec<CompletionView>,
    pub interval_transfers: Vec<Millis>,
    pub interval_ooms: u32,
    pub ready_in_dispatch_order: Vec<TaskId>,
    pub spent_milli: u64,
}

impl SnapshotBuffers {
    /// Lend the buffers out as a snapshot over the given workflow slots.
    ///
    /// For a single workflow, bind a slot first:
    /// `let slots = [WorkflowSlot::solo(&wf)];` then
    /// `bufs.snapshot(now, &slots, &cfg)`.
    pub fn snapshot<'a>(
        &'a self,
        now: Millis,
        workflows: &'a [WorkflowSlot<'a>],
        config: &'a CloudConfig,
    ) -> MonitorSnapshot<'a> {
        MonitorSnapshot {
            now,
            workflows,
            config,
            done_prefix: 0,
            naive: false,
            tasks: &self.tasks,
            instances: &self.instances,
            new_completions: &self.new_completions,
            interval_transfers: &self.interval_transfers,
            interval_ooms: self.interval_ooms,
            ready_in_dispatch_order: DispatchOrder::from_slice(&self.ready_in_dispatch_order),
            spent_milli: self.spent_milli,
        }
    }
}

impl<'a> MonitorSnapshot<'a> {
    /// Pool size `m` as Algorithm 2 sees it: running + launching (instances
    /// that are or will shortly be paid for), excluding draining ones.
    pub fn pool_size(&self) -> u32 {
        self.instances
            .iter()
            .filter(|i| {
                matches!(
                    i.state,
                    InstanceStateView::Running { .. } | InstanceStateView::Launching { .. }
                )
            })
            .count() as u32
    }

    /// Number of active tasks (ready or running) — the pure-reactive signal.
    pub fn active_tasks(&self) -> usize {
        self.tasks[self.done_prefix..]
            .iter()
            .filter(|t| matches!(t, TaskView::Ready | TaskView::Running { .. }))
            .count()
    }

    /// Are all arrived workflows finished?
    pub fn workflow_done(&self) -> bool {
        self.tasks[self.done_prefix..].iter().all(TaskView::is_done)
    }

    /// Total stages across arrived workflows (the global stage-space size).
    pub fn total_stages(&self) -> usize {
        self.workflows
            .last()
            .map(|s| s.stage_base as usize + s.workflow.num_stages())
            .unwrap_or(0)
    }

    /// The slot owning a global task id.
    pub fn slot_of_task(&self, task: TaskId) -> &WorkflowSlot<'a> {
        debug_assert!(!self.workflows.is_empty());
        let i = self.workflows.partition_point(|s| s.task_base <= task.0);
        &self.workflows[i - 1]
    }

    /// The static spec of a global task (note: the spec's own `id`/`stage`
    /// fields are workflow-local; use [`stage_of`](Self::stage_of) for the
    /// global stage).
    pub fn spec(&self, task: TaskId) -> &'a TaskSpec {
        let slot = self.slot_of_task(task);
        slot.workflow.task(slot.local_task(task))
    }

    /// Global stage id of a global task.
    pub fn stage_of(&self, task: TaskId) -> StageId {
        let slot = self.slot_of_task(task);
        slot.global_stage(slot.workflow.task(slot.local_task(task)).stage)
    }

    /// The tasks from `done_prefix` on, in task order, each with the slot
    /// that owns it. One cursor walks the slots beside the tasks, so a step
    /// costs O(1) amortized instead of the search over every arrived slot
    /// that [`slot_of_task`](Self::slot_of_task) makes.
    pub fn live_tasks(&self) -> impl Iterator<Item = (TaskId, TaskView, &'a WorkflowSlot<'a>)> {
        let dp = self.done_prefix.min(self.tasks.len());
        let slots = self.workflows;
        // the last slot starting at or below the watermark (slots tile the
        // task space in order); the cursor steps past it if it ends there
        let mut s = slots
            .partition_point(|w| w.task_base as usize <= dp)
            .saturating_sub(1);
        self.tasks[dp..].iter().zip(dp..).map(move |(&tv, g)| {
            while slots[s].task_base as usize + slots[s].num_tasks() <= g {
                s += 1;
            }
            (TaskId(g as u32), tv, &slots[s])
        })
    }

    /// The workflow of a single-workflow session, if this is one.
    pub fn solo_workflow(&self) -> Option<&'a Workflow> {
        match self.workflows {
            [slot] => Some(slot.workflow),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_view_charge_clock() {
        let u = Millis::from_mins(15);
        let iv = InstanceView {
            id: InstanceId(0),
            state: InstanceStateView::Running {
                charge_start: Millis::from_mins(2),
            },
            tasks: vec![],
            free_slots: 4,
            family: 0,
        };
        assert_eq!(
            iv.time_to_next_charge(Millis::from_mins(2), u),
            Millis::from_mins(15)
        );
        assert_eq!(
            iv.time_to_next_charge(Millis::from_mins(10), u),
            Millis::from_mins(7)
        );
        assert_eq!(
            iv.time_to_next_charge(Millis::from_mins(17), u),
            Millis::ZERO
        );
    }

    #[test]
    fn launching_and_draining_clock_conventions() {
        let u = Millis::from_mins(15);
        let launching = InstanceView {
            id: InstanceId(1),
            state: InstanceStateView::Launching {
                ready_at: Millis::from_mins(3),
            },
            tasks: vec![],
            free_slots: 4,
            family: 0,
        };
        assert_eq!(launching.time_to_next_charge(Millis::ZERO, u), u);
        assert!(!launching.is_running());

        let draining = InstanceView {
            id: InstanceId(2),
            state: InstanceStateView::Draining {
                terminate_at: Millis::from_mins(20),
            },
            tasks: vec![],
            free_slots: 4,
            family: 0,
        };
        assert_eq!(
            draining.time_to_next_charge(Millis::from_mins(5), u),
            Millis::ZERO
        );
    }

    #[test]
    fn slot_addressing_maps_global_ids() {
        use wire_dag::WorkflowBuilder;
        let mut b = WorkflowBuilder::new("a");
        let s0 = b.add_stage("s0");
        let s1 = b.add_stage("s1");
        b.add_task(s0, 10, 0);
        b.add_task(s0, 11, 0);
        b.add_task(s1, 12, 0);
        let wa = b.build().unwrap();
        let mut b = WorkflowBuilder::new("b");
        let s = b.add_stage("s");
        b.add_task(s, 20, 0);
        b.add_task(s, 21, 0);
        let wb = b.build().unwrap();

        let slots = [
            WorkflowSlot::solo(&wa),
            WorkflowSlot {
                id: WorkflowId(1),
                workflow: &wb,
                submitted_at: Millis::from_mins(5),
                task_base: 3,
                stage_base: 2,
            },
        ];
        let bufs = SnapshotBuffers {
            tasks: vec![TaskView::Ready; 5],
            ..Default::default()
        };
        let cfg = CloudConfig::default();
        let snap = bufs.snapshot(Millis::ZERO, &slots, &cfg);
        assert_eq!(snap.total_stages(), 3);
        assert_eq!(snap.slot_of_task(TaskId(2)).id, WorkflowId(0));
        assert_eq!(snap.slot_of_task(TaskId(3)).id, WorkflowId(1));
        assert_eq!(snap.stage_of(TaskId(2)), StageId(1));
        assert_eq!(snap.stage_of(TaskId(4)), StageId(2));
        assert_eq!(snap.spec(TaskId(4)).input_bytes, 21);
        assert!(snap.solo_workflow().is_none());
        assert!(slots[0].contains(TaskId(0)));
        assert!(!slots[0].contains(TaskId(3)));
        assert_eq!(slots[1].global_task(TaskId(1)), TaskId(4));
        assert_eq!(slots[1].local_task(TaskId(4)), TaskId(1));
        // the cursor agrees with the per-task search from any watermark
        for dp in 0..=5 {
            let windowed = MonitorSnapshot {
                done_prefix: dp,
                ..snap
            };
            let live: Vec<(TaskId, WorkflowId)> =
                windowed.live_tasks().map(|(t, _, s)| (t, s.id)).collect();
            let searched: Vec<(TaskId, WorkflowId)> = (dp as u32..5)
                .map(|t| (TaskId(t), snap.slot_of_task(TaskId(t)).id))
                .collect();
            assert_eq!(live, searched, "done_prefix {dp}");
        }
    }

    #[test]
    fn task_view_predicates() {
        assert!(TaskView::Done {
            exec_time: Millis::ZERO,
            transfer_time: Millis::ZERO
        }
        .is_done());
        assert!(TaskView::Running {
            instance: InstanceId(0),
            exec_age: Millis::ZERO,
            occupied_for: Millis::ZERO
        }
        .is_running());
        assert!(!TaskView::Ready.is_done());
    }
}
