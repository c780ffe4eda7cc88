//! The dispatch seam: a [`Scheduler`] trait over the session-global task
//! index space, plus the scheduler portfolio built on it.
//!
//! Historically the engine hard-coded WIRE's framework behaviour as a
//! concrete two-class FIFO queue ([`ReadyQueue`], §III-C: "WIRE dispatches
//! the first five ready-to-run tasks to fire in a stage with high priority
//! [...] This approach works well for online prediction"). That queue is now
//! one implementation behind the trait — and the default, byte-identical to
//! the historical engine — next to rank/list schedulers in the HEFT family
//! ([`RankScheduler`]) and a per-workflow [`SchedulerSpec::Portfolio`] that
//! races the rank members in cheap forward simulation at submission time.
//!
//! The trait is part of the *observable* control surface: every MAPE tick
//! the engine lends the scheduler to the policy through
//! [`crate::MonitorSnapshot::ready_in_dispatch_order`], whose iterator walks
//! [`Scheduler::iter_in_order`], so the lookahead planner's dispatch-order
//! projection follows whatever scheduler is installed without knowing which
//! one it is.

use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::config::CloudConfig;
use crate::observe::WorkflowSlot;
use wire_dag::{ExecProfile, Millis, StageId, TaskId, Workflow};

/// How many ready tasks per stage receive the FIFO scheduler's priority
/// boost (§III-C).
pub const BOOSTED_PER_STAGE: u32 = 5;

/// The framework master's ready-task scheduler, over the session-global task
/// and stage index spaces.
///
/// Contract (what the engine guarantees and expects):
///
/// * [`prepare`](Scheduler::prepare) is called once per submission, in
///   submission order, before any event fires — the only point where a
///   scheduler sees the DAG and the ground-truth profile. Everything it
///   precomputes from them (ranks, portfolio choices) must be a pure
///   function of its inputs so runs stay deterministic.
/// * [`push_ready`](Scheduler::push_ready) announces a task whose
///   dependencies just cleared; [`push_resubmit`](Scheduler::push_resubmit)
///   returns a previously dispatched task after its instance died. A task is
///   never queued twice concurrently.
/// * [`pop`](Scheduler::pop) yields the next task to place on a free slot.
/// * [`iter_in_order`](Scheduler::iter_in_order) must visit exactly the
///   queued tasks in the order `pop` would drain them *without* consuming
///   the queue. The engine lends it, uncopied, as
///   [`crate::MonitorSnapshot::ready_in_dispatch_order`], which the lookahead
///   planner replays to project dispatch — a scheduler whose iteration order
///   diverges from its pop order silently degrades lookahead quality. Debug
///   builds check every pop against the order the last tick advertised.
pub trait Scheduler {
    /// Rank-precompute hook: observe one submitted workflow (with its slice
    /// of the global index space) and its ground-truth profile. Called in
    /// submission order at engine construction; the default does nothing.
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        let _ = (slot, profile);
    }

    /// A task became ready for the first time (global task and stage ids).
    fn push_ready(&mut self, task: TaskId, stage: StageId);

    /// A task returns to the queue after its instance was released mid-run.
    fn push_resubmit(&mut self, task: TaskId);

    /// Next task to dispatch onto a free slot.
    fn pop(&mut self) -> Option<TaskId>;

    /// Dispatch order without consuming the queue; must match the order a
    /// sequence of `pop` calls would produce. A policy reading the
    /// snapshot's dispatch order pulls from this iterator, as far as it
    /// reads, so it must be a lazy in-order walk of the queue's own
    /// structure, not a copy-and-sort per call.
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_>;

    /// Number of queued tasks.
    fn len(&self) -> usize;

    /// True when no task is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which [`Scheduler`] a session runs — the serializable, cache-hashable
/// selector carried by [`CloudConfig::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// The historical two-class FIFO ([`ReadyQueue`]); `first_five` enables
    /// WIRE's first-five-per-stage priority boost (§III-C). The default
    /// (`first_five: true`) reproduces every pre-trait run byte for byte.
    Fifo {
        /// Boost the first five ready tasks of every stage (§III-C).
        first_five: bool,
    },
    /// HEFT-style list scheduling: tasks pop in decreasing *upward rank*
    /// (own execution time plus the longest downstream path).
    Heft,
    /// Min-min completion-time greedy. On this simulator's homogeneous
    /// slots the task finishing earliest is the shortest ready task, so
    /// min-min degenerates to shortest-task-first.
    MinMin,
    /// Critical-path-first adapted to the slot/charging-unit model: tasks
    /// are classed by their downstream critical path quantized to whole
    /// charging units, FIFO within a class — coarse enough that billing
    /// boundaries, not milliseconds, decide priority.
    CriticalPath,
    /// Per-workflow portfolio: at submission, race [`Heft`](Self::Heft),
    /// [`MinMin`](Self::MinMin) and [`CriticalPath`](Self::CriticalPath) in
    /// a cheap forward list-scheduling simulation of the workflow alone and
    /// install the member with the smallest projected makespan (ties go to
    /// the first member in that order).
    Portfolio,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec::first_five()
    }
}

impl SchedulerSpec {
    /// Every selectable scheduler, in sweep/display order.
    pub const ALL: [SchedulerSpec; 6] = [
        SchedulerSpec::Fifo { first_five: true },
        SchedulerSpec::Fifo { first_five: false },
        SchedulerSpec::Heft,
        SchedulerSpec::MinMin,
        SchedulerSpec::CriticalPath,
        SchedulerSpec::Portfolio,
    ];

    /// The default WIRE scheduler: FIFO with the first-five boost.
    pub const fn first_five() -> Self {
        SchedulerSpec::Fifo { first_five: true }
    }

    /// Plain FIFO without the boost (unpatched-framework baselines).
    pub const fn plain_fifo() -> Self {
        SchedulerSpec::Fifo { first_five: false }
    }

    /// Stable short name: cache keys, CSV columns, CLI values.
    pub fn tag(self) -> &'static str {
        match self {
            SchedulerSpec::Fifo { first_five: true } => "fifo-ff",
            SchedulerSpec::Fifo { first_five: false } => "fifo",
            SchedulerSpec::Heft => "heft",
            SchedulerSpec::MinMin => "minmin",
            SchedulerSpec::CriticalPath => "cpath",
            SchedulerSpec::Portfolio => "portfolio",
        }
    }

    /// Parse a [`tag`](Self::tag) back into a spec (CLI `--scheduler`).
    pub fn parse(s: &str) -> Option<Self> {
        SchedulerSpec::ALL.into_iter().find(|spec| spec.tag() == s)
    }

    /// Build the scheduler for a session with `num_tasks` global tasks and
    /// `num_stages` global stages under `cfg`.
    pub fn build(self, num_tasks: usize, num_stages: usize, cfg: &CloudConfig) -> AnyScheduler {
        match self {
            SchedulerSpec::Fifo { first_five } => {
                AnyScheduler::Fifo(ReadyQueue::with_sizes(num_tasks, num_stages, first_five))
            }
            SchedulerSpec::Heft => {
                AnyScheduler::Rank(RankScheduler::new(RankKind::Heft, num_tasks, cfg))
            }
            SchedulerSpec::MinMin => {
                AnyScheduler::Rank(RankScheduler::new(RankKind::MinMin, num_tasks, cfg))
            }
            SchedulerSpec::CriticalPath => {
                AnyScheduler::Rank(RankScheduler::new(RankKind::CriticalPath, num_tasks, cfg))
            }
            SchedulerSpec::Portfolio => {
                AnyScheduler::Rank(RankScheduler::new(RankKind::Portfolio, num_tasks, cfg))
            }
        }
    }
}

/// Runtime-selected [`Scheduler`]: the engine's default type parameter, so
/// one monomorphized engine serves every [`SchedulerSpec`].
#[derive(Debug, Clone)]
pub enum AnyScheduler {
    /// The two-class FIFO (the default).
    Fifo(ReadyQueue),
    /// A rank/list scheduler (HEFT, min-min, critical-path, portfolio).
    Rank(RankScheduler),
}

impl Scheduler for AnyScheduler {
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        match self {
            AnyScheduler::Fifo(q) => Scheduler::prepare(q, slot, profile),
            AnyScheduler::Rank(r) => Scheduler::prepare(r, slot, profile),
        }
    }

    fn push_ready(&mut self, task: TaskId, stage: StageId) {
        match self {
            AnyScheduler::Fifo(q) => q.push_ready(task, stage),
            AnyScheduler::Rank(r) => Scheduler::push_ready(r, task, stage),
        }
    }

    fn push_resubmit(&mut self, task: TaskId) {
        match self {
            AnyScheduler::Fifo(q) => q.push_resubmit(task),
            AnyScheduler::Rank(r) => Scheduler::push_resubmit(r, task),
        }
    }

    fn pop(&mut self) -> Option<TaskId> {
        match self {
            AnyScheduler::Fifo(q) => q.pop(),
            AnyScheduler::Rank(r) => Scheduler::pop(r),
        }
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        match self {
            AnyScheduler::Fifo(q) => Box::new(q.iter_in_order()),
            AnyScheduler::Rank(r) => Scheduler::iter_in_order(r),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyScheduler::Fifo(q) => q.len(),
            AnyScheduler::Rank(r) => Scheduler::len(r),
        }
    }
}

// ---- two-class FIFO (the historical scheduler) ----------------------------

/// Two-class FIFO ready queue with WIRE's first-five-per-stage priority
/// boost (§III-C): the first five ready tasks of every stage jump the
/// backlog so the predictor gets completions for new stages early.
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    high: VecDeque<TaskId>,
    normal: VecDeque<TaskId>,
    /// Per-stage count of boost grants so far.
    boosted: Vec<u32>,
    /// Remembers each task's class for fair resubmission after a termination.
    was_high: Vec<bool>,
    first_five: bool,
}

impl ReadyQueue {
    /// Queue sized for a single workflow.
    pub fn new(wf: &Workflow, first_five: bool) -> Self {
        ReadyQueue::with_sizes(wf.num_tasks(), wf.num_stages(), first_five)
    }

    /// Queue over a session-global (task, stage) index space. In a
    /// multi-workflow session every workflow's stages occupy their own slice
    /// of the global stage range, so the first-five boost applies per
    /// workflow-stage with no extra bookkeeping.
    pub fn with_sizes(num_tasks: usize, num_stages: usize, first_five: bool) -> Self {
        ReadyQueue {
            high: VecDeque::new(),
            normal: VecDeque::new(),
            boosted: vec![0; num_stages],
            was_high: vec![false; num_tasks],
            first_five,
        }
    }

    /// A task became ready for the first time.
    pub fn push_ready(&mut self, task: TaskId, stage: StageId) {
        if self.first_five && self.boosted[stage.index()] < BOOSTED_PER_STAGE {
            self.boosted[stage.index()] += 1;
            self.was_high[task.index()] = true;
            self.high.push_back(task);
        } else {
            self.normal.push_back(task);
        }
    }

    /// A task returns to the queue after its instance was released. It keeps
    /// its original class and jumps the class's queue: the framework resubmits
    /// preempted work ahead of never-started peers.
    pub fn push_resubmit(&mut self, task: TaskId) {
        if self.was_high[task.index()] {
            self.high.push_front(task);
        } else {
            self.normal.push_front(task);
        }
    }

    /// Next task to dispatch: high class first, FIFO within a class.
    pub fn pop(&mut self) -> Option<TaskId> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }

    /// Dispatch order without consuming the queue (used by the lookahead
    /// planner through the monitor snapshot).
    pub fn iter_in_order(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.high.iter().chain(self.normal.iter()).copied()
    }

    /// Number of queued tasks across both classes.
    pub fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// True when both classes are empty.
    pub fn is_empty(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }
}

impl Scheduler for ReadyQueue {
    fn push_ready(&mut self, task: TaskId, stage: StageId) {
        ReadyQueue::push_ready(self, task, stage);
    }

    fn push_resubmit(&mut self, task: TaskId) {
        ReadyQueue::push_resubmit(self, task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        ReadyQueue::pop(self)
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        Box::new(ReadyQueue::iter_in_order(self))
    }

    fn len(&self) -> usize {
        ReadyQueue::len(self)
    }
}

// ---- rank/list schedulers --------------------------------------------------

/// Which static rank a [`RankScheduler`] assigns at `prepare` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankKind {
    /// Upward rank (HEFT): execution time plus longest downstream path, ms.
    Heft,
    /// Shortest expected execution first (min-min on homogeneous slots).
    MinMin,
    /// Downstream critical path quantized to charging units.
    CriticalPath,
    /// Race the three members above per workflow in forward simulation.
    Portfolio,
}

impl RankKind {
    /// The rank members a portfolio races, in tie-breaking order.
    const PORTFOLIO_MEMBERS: [RankKind; 3] =
        [RankKind::Heft, RankKind::MinMin, RankKind::CriticalPath];

    /// Stable short name (mirrors [`SchedulerSpec::tag`]).
    pub fn tag(self) -> &'static str {
        match self {
            RankKind::Heft => "heft",
            RankKind::MinMin => "minmin",
            RankKind::CriticalPath => "cpath",
            RankKind::Portfolio => "portfolio",
        }
    }
}

/// Arrival sequence numbers start here; resubmissions count *down* from the
/// same base so a resubmitted task beats every equal-rank queued task (the
/// rank analogue of [`ReadyQueue::push_resubmit`]'s `push_front`), and the
/// latest resubmission pops first.
const SEQ_BASE: u64 = 1 << 32;

/// One queued task, ordered by `(key, older-first, task id)`; the queue pops
/// its maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    seq: u64,
    task: TaskId,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// List scheduler over a static per-task priority key precomputed at
/// submission ([`Scheduler::prepare`]); ready tasks pop highest-key first,
/// FIFO among equal keys, resubmissions ahead of equal-key peers.
#[derive(Debug, Clone)]
pub struct RankScheduler {
    kind: RankKind,
    /// Per-global-task priority key, filled by `prepare`.
    key: Vec<u64>,
    /// Queued tasks; the last (maximum) entry pops first. An ordered set
    /// rather than a heap so the per-tick dispatch-order walk is an in-order
    /// iteration instead of a copy and sort of the whole backlog.
    queue: BTreeSet<Entry>,
    next_seq: u64,
    next_resubmit: u64,
    charging_unit: Millis,
    /// Slot-pool width for the portfolio's forward simulation.
    sim_width: usize,
    /// Portfolio bookkeeping: the member tag chosen per prepared workflow
    /// (in submission order). Non-portfolio kinds record their own tag.
    chosen: Vec<&'static str>,
}

impl RankScheduler {
    /// Scheduler over `num_tasks` global tasks; `cfg` supplies the charging
    /// unit (critical-path quantization) and the site shape (portfolio
    /// forward-simulation width).
    pub fn new(kind: RankKind, num_tasks: usize, cfg: &CloudConfig) -> Self {
        let width = (cfg.slots_per_instance as u64).saturating_mul(cfg.site_capacity as u64);
        RankScheduler {
            kind,
            key: vec![0; num_tasks],
            queue: BTreeSet::new(),
            next_seq: SEQ_BASE,
            next_resubmit: SEQ_BASE,
            charging_unit: cfg.charging_unit,
            sim_width: width.clamp(1, 256) as usize,
            chosen: Vec::new(),
        }
    }

    /// The rank flavour this scheduler runs.
    pub fn kind(&self) -> RankKind {
        self.kind
    }

    /// Member tags installed per prepared workflow, in submission order —
    /// for a portfolio, which member won each race.
    pub fn chosen_members(&self) -> &[&'static str] {
        &self.chosen
    }

    fn install_keys(&mut self, base: usize, keys: &[u64]) {
        self.key[base..base + keys.len()].copy_from_slice(keys);
    }
}

impl Scheduler for RankScheduler {
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        let base = slot.task_base as usize;
        match self.kind {
            RankKind::Portfolio => {
                let mut best: Option<(Millis, RankKind, Vec<u64>)> = None;
                for member in RankKind::PORTFOLIO_MEMBERS {
                    let keys = rank_keys(member, slot.workflow, profile, self.charging_unit);
                    let makespan = list_sim_makespan(slot.workflow, profile, &keys, self.sim_width);
                    // strict <: ties keep the earliest member in PORTFOLIO_MEMBERS
                    if best.as_ref().is_none_or(|(m, _, _)| makespan < *m) {
                        best = Some((makespan, member, keys));
                    }
                }
                let (_, winner, keys) = best.expect("portfolio has members");
                self.chosen.push(winner.tag());
                self.install_keys(base, &keys);
            }
            kind => {
                let keys = rank_keys(kind, slot.workflow, profile, self.charging_unit);
                self.chosen.push(kind.tag());
                self.install_keys(base, &keys);
            }
        }
    }

    fn push_ready(&mut self, task: TaskId, _stage: StageId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert(Entry {
            key: self.key[task.index()],
            seq,
            task,
        });
    }

    fn push_resubmit(&mut self, task: TaskId) {
        self.next_resubmit -= 1;
        self.queue.insert(Entry {
            key: self.key[task.index()],
            seq: self.next_resubmit,
            task,
        });
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.queue.pop_last().map(|e| e.task)
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        Box::new(self.queue.iter().rev().map(|e| e.task))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The static priority keys one rank flavour assigns to a workflow's tasks
/// (local index space; higher pops first).
fn rank_keys(kind: RankKind, wf: &Workflow, prof: &ExecProfile, unit: Millis) -> Vec<u64> {
    match kind {
        RankKind::Heft => upward_rank_ms(wf, prof),
        // shortest first: invert so the smallest execution time pops
        // first (homogeneous slots make min-min completion-time greedy
        // equivalent to shortest-task-first among ready tasks)
        RankKind::MinMin => wf
            .task_ids()
            .map(|t| u64::MAX - prof.exec_time(t).as_ms())
            .collect(),
        // whole charging units of downstream critical path: a coarse class
        // so only billing-boundary-sized differences reorder dispatch
        RankKind::CriticalPath => upward_rank_ms(wf, prof)
            .into_iter()
            .map(|ms| ms.div_ceil(unit.as_ms().max(1)))
            .collect(),
        RankKind::Portfolio => unreachable!("portfolio installs member keys"),
    }
}

/// HEFT upward rank per task, in milliseconds: own execution time plus the
/// longest path to a sink. Computed in reverse topological order; transfer
/// times are not modelled (the simulator's slots are homogeneous, so the
/// classical communication term has no between-slot variance to capture).
fn upward_rank_ms(wf: &Workflow, prof: &ExecProfile) -> Vec<u64> {
    let mut rank = vec![0u64; wf.num_tasks()];
    for &t in wf.topo_order().iter().rev() {
        let down = wf
            .succs(t)
            .iter()
            .map(|&s| rank[s.index()])
            .max()
            .unwrap_or(0);
        rank[t.index()] = prof.exec_time(t).as_ms().saturating_add(down);
    }
    rank
}

/// Project the makespan of running `wf` alone on `width` homogeneous slots
/// under list scheduling with the given priority keys: free slots always take
/// the highest-key ready task (FIFO by task id among equals). This is the
/// portfolio's cheap forward race — O(V log V + E), no instances, no billing.
fn list_sim_makespan(wf: &Workflow, prof: &ExecProfile, key: &[u64], width: usize) -> Millis {
    use std::cmp::Reverse;
    let n = wf.num_tasks();
    let mut unmet: Vec<u32> = wf.task_ids().map(|t| wf.preds(t).len() as u32).collect();
    // ready: max-heap on (key, lowest task id first)
    let mut ready: BinaryHeap<(u64, Reverse<u32>)> =
        wf.roots().map(|t| (key[t.index()], Reverse(t.0))).collect();
    // finish events: min-heap on (time, task id)
    let mut events: BinaryHeap<Reverse<(Millis, u32)>> = BinaryHeap::new();
    let mut free = width.max(1);
    let mut now = Millis::ZERO;
    let mut done = 0usize;
    while done < n {
        while free > 0 {
            let Some((_, Reverse(tid))) = ready.pop() else {
                break;
            };
            let t = TaskId(tid);
            events.push(Reverse((now + prof.exec_time(t), tid)));
            free -= 1;
        }
        let Some(Reverse((at, tid))) = events.pop() else {
            debug_assert!(done == n, "list sim stalled with tasks outstanding");
            break;
        };
        now = at;
        free += 1;
        done += 1;
        let t = TaskId(tid);
        for &succ in wf.succs(t) {
            let u = &mut unmet[succ.index()];
            *u -= 1;
            if *u == 0 {
                ready.push((key[succ.index()], Reverse(succ.0)));
            }
        }
        // drain every completion at this instant before refilling slots, so
        // the refill sees the full ready set (matches the engine's behaviour
        // of dispatching after processing the event)
        while let Some(&Reverse((at2, _))) = events.peek() {
            if at2 != now {
                break;
            }
            let Reverse((_, tid2)) = events.pop().expect("peeked");
            free += 1;
            done += 1;
            let t2 = TaskId(tid2);
            for &succ in wf.succs(t2) {
                let u = &mut unmet[succ.index()];
                *u -= 1;
                if *u == 0 {
                    ready.push((key[succ.index()], Reverse(succ.0)));
                }
            }
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::WorkflowBuilder;

    fn wf(tasks_per_stage: &[usize]) -> Workflow {
        let mut b = WorkflowBuilder::new("q");
        for (i, &n) in tasks_per_stage.iter().enumerate() {
            let s = b.add_stage(format!("s{i}"));
            for _ in 0..n {
                b.add_task(s, 1, 1);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn first_five_of_a_stage_are_boosted() {
        let w = wf(&[8]);
        let mut q = ReadyQueue::new(&w, true);
        for t in w.task_ids() {
            q.push_ready(t, StageId(0));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|t| t.0).collect();
        // first five keep FIFO, then the rest keep FIFO
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn boost_lets_new_stage_jump_old_stage_backlog() {
        let w = wf(&[8, 8]);
        let mut q = ReadyQueue::new(&w, true);
        // stage 0: all eight ready (five boosted, three normal)
        for &t in &w.stage(StageId(0)).tasks.clone() {
            q.push_ready(t, StageId(0));
        }
        // drain the five boosted stage-0 tasks
        for _ in 0..5 {
            q.pop();
        }
        // two stage-1 tasks become ready → boosted, jump stage 0's backlog
        let s1 = w.stage(StageId(1)).tasks.clone();
        q.push_ready(s1[0], StageId(1));
        q.push_ready(s1[1], StageId(1));
        assert_eq!(q.pop(), Some(s1[0]));
        assert_eq!(q.pop(), Some(s1[1]));
        // then stage 0's normal-class tasks
        assert_eq!(q.pop().map(|t| t.0), Some(5));
    }

    #[test]
    fn disabled_boost_is_pure_fifo() {
        let w = wf(&[3, 3]);
        let mut q = ReadyQueue::new(&w, false);
        for &t in &w.stage(StageId(0)).tasks.clone() {
            q.push_ready(t, StageId(0));
        }
        for &t in &w.stage(StageId(1)).tasks.clone() {
            q.push_ready(t, StageId(1));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|t| t.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn resubmission_jumps_its_class() {
        let w = wf(&[8]);
        let mut q = ReadyQueue::new(&w, true);
        for t in w.task_ids() {
            q.push_ready(t, StageId(0));
        }
        let first = q.pop().unwrap(); // t0, boosted
                                      // t0's instance dies; it resubmits at the head of the high class
        q.push_resubmit(first);
        assert_eq!(q.pop(), Some(first));

        // drain to a normal-class task and resubmit it
        let mut last_normal = None;
        while let Some(t) = q.pop() {
            last_normal = Some(t);
        }
        let t = last_normal.unwrap();
        q.push_resubmit(t);
        assert_eq!(q.pop(), Some(t));
        assert!(q.is_empty());
    }

    #[test]
    fn iter_in_order_matches_pop_order() {
        let w = wf(&[7]);
        let mut q = ReadyQueue::new(&w, true);
        for t in w.task_ids() {
            q.push_ready(t, StageId(0));
        }
        let via_iter: Vec<TaskId> = q.iter_in_order().collect();
        let via_pop: Vec<TaskId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(via_iter, via_pop);
    }

    #[test]
    fn len_tracks_both_classes() {
        let w = wf(&[8]);
        let mut q = ReadyQueue::new(&w, true);
        assert!(q.is_empty());
        for t in w.task_ids() {
            q.push_ready(t, StageId(0));
        }
        assert_eq!(q.len(), 8);
    }

    // ---- rank schedulers ---------------------------------------------------

    /// A two-stage diamond with one long chain: roots {0 (long), 1, 2},
    /// stage 1 {3 depends on 0, 4 depends on 1 and 2}.
    fn diamond() -> (Workflow, ExecProfile) {
        let mut b = WorkflowBuilder::new("d");
        let s0 = b.add_stage("s0");
        let s1 = b.add_stage("s1");
        let t0 = b.add_task(s0, 0, 0);
        let t1 = b.add_task(s0, 0, 0);
        let t2 = b.add_task(s0, 0, 0);
        let t3 = b.add_task(s1, 0, 0);
        let t4 = b.add_task(s1, 0, 0);
        b.add_dep(t0, t3).unwrap();
        b.add_dep(t1, t4).unwrap();
        b.add_dep(t2, t4).unwrap();
        let wf = b.build().unwrap();
        let prof = ExecProfile::new(vec![
            Millis::from_mins(30), // t0: the long chain head
            Millis::from_mins(1),
            Millis::from_mins(2),
            Millis::from_mins(10),
            Millis::from_mins(1),
        ]);
        (wf, prof)
    }

    fn prepared(spec: SchedulerSpec, wf: &Workflow, prof: &ExecProfile) -> AnyScheduler {
        let cfg = CloudConfig::default();
        let mut s = spec.build(wf.num_tasks(), wf.num_stages(), &cfg);
        s.prepare(&WorkflowSlot::solo(wf), prof);
        s
    }

    #[test]
    fn heft_pops_longest_chain_first() {
        let (wf, prof) = diamond();
        let mut s = prepared(SchedulerSpec::Heft, &wf, &prof);
        for t in wf.roots() {
            s.push_ready(t, StageId(0));
        }
        // upward ranks: t0 = 40 min, t2 = 3 min, t1 = 2 min
        assert_eq!(s.pop(), Some(TaskId(0)));
        assert_eq!(s.pop(), Some(TaskId(2)));
        assert_eq!(s.pop(), Some(TaskId(1)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn minmin_pops_shortest_first() {
        let (wf, prof) = diamond();
        let mut s = prepared(SchedulerSpec::MinMin, &wf, &prof);
        for t in wf.roots() {
            s.push_ready(t, StageId(0));
        }
        assert_eq!(s.pop(), Some(TaskId(1))); // 1 min
        assert_eq!(s.pop(), Some(TaskId(2))); // 2 min
        assert_eq!(s.pop(), Some(TaskId(0))); // 30 min
    }

    #[test]
    fn critical_path_classes_are_charging_unit_coarse() {
        let (wf, prof) = diamond();
        // u = 15 min: t0's 40-min downstream path → class 3; t1 (2 min) and
        // t2 (3 min) both land in class 1 and keep FIFO order between them
        let mut s = prepared(SchedulerSpec::CriticalPath, &wf, &prof);
        for t in wf.roots() {
            s.push_ready(t, StageId(0));
        }
        assert_eq!(s.pop(), Some(TaskId(0)));
        assert_eq!(s.pop(), Some(TaskId(1)));
        assert_eq!(s.pop(), Some(TaskId(2)));
    }

    #[test]
    fn rank_iter_in_order_matches_pop_order() {
        let (wf, prof) = diamond();
        for spec in [
            SchedulerSpec::Heft,
            SchedulerSpec::MinMin,
            SchedulerSpec::CriticalPath,
            SchedulerSpec::Portfolio,
        ] {
            let mut s = prepared(spec, &wf, &prof);
            for t in wf.roots() {
                s.push_ready(t, StageId(0));
            }
            s.push_resubmit(TaskId(3));
            let via_iter: Vec<TaskId> = s.iter_in_order().collect();
            let via_pop: Vec<TaskId> = std::iter::from_fn(|| s.pop()).collect();
            assert_eq!(via_iter, via_pop, "{:?}", spec);
        }
    }

    #[test]
    fn rank_resubmit_beats_equal_rank_peers() {
        let (wf, prof) = diamond();
        let mut s = prepared(SchedulerSpec::CriticalPath, &wf, &prof);
        // t1 and t2 share class 1; a resubmitted t2 must pop before queued t1
        s.push_ready(TaskId(1), StageId(0));
        s.push_resubmit(TaskId(2));
        assert_eq!(s.pop(), Some(TaskId(2)));
        assert_eq!(s.pop(), Some(TaskId(1)));
    }

    #[test]
    fn portfolio_picks_a_member_and_installs_its_keys() {
        let (wf, prof) = diamond();
        let cfg = CloudConfig::default();
        let mut s = RankScheduler::new(RankKind::Portfolio, wf.num_tasks(), &cfg);
        Scheduler::prepare(&mut s, &WorkflowSlot::solo(&wf), &prof);
        assert_eq!(s.chosen_members().len(), 1);
        let chosen = s.chosen_members()[0];
        assert!(
            ["heft", "minmin", "cpath"].contains(&chosen),
            "unexpected member {chosen}"
        );
        // the winner must match an explicit race over the members
        let width = s.sim_width;
        let best = RankKind::PORTFOLIO_MEMBERS
            .into_iter()
            .map(|m| {
                let keys = rank_keys(m, &wf, &prof, cfg.charging_unit);
                (list_sim_makespan(&wf, &prof, &keys, width), m.tag())
            })
            .min_by_key(|&(m, _)| m)
            .unwrap();
        assert_eq!(chosen, best.1);
    }

    #[test]
    fn list_sim_serializes_on_one_slot() {
        let (wf, prof) = diamond();
        let keys = rank_keys(RankKind::Heft, &wf, &prof, Millis::from_mins(15));
        // one slot: makespan = total work = 44 min
        assert_eq!(
            list_sim_makespan(&wf, &prof, &keys, 1),
            Millis::from_mins(44)
        );
        // plenty of slots: critical path = 40 min
        assert_eq!(
            list_sim_makespan(&wf, &prof, &keys, 64),
            Millis::from_mins(40)
        );
    }

    #[test]
    fn spec_tags_round_trip() {
        for spec in SchedulerSpec::ALL {
            assert_eq!(SchedulerSpec::parse(spec.tag()), Some(spec));
        }
        assert_eq!(SchedulerSpec::parse("nope"), None);
        assert_eq!(SchedulerSpec::default(), SchedulerSpec::first_five());
    }

    #[test]
    fn fifo_behind_the_trait_matches_legacy_queue() {
        // the differential heart of the seam: drive the same op sequence
        // through the legacy inherent API and through the trait object
        let w = wf(&[8, 8]);
        let mut legacy = ReadyQueue::new(&w, true);
        let mut traited = SchedulerSpec::first_five().build(
            w.num_tasks(),
            w.num_stages(),
            &CloudConfig::default(),
        );
        for (i, t) in w.task_ids().enumerate() {
            let stage = if i < 8 { StageId(0) } else { StageId(1) };
            legacy.push_ready(t, stage);
            traited.push_ready(t, stage);
        }
        let a = legacy.pop().unwrap();
        let b = traited.pop().unwrap();
        assert_eq!(a, b);
        legacy.push_resubmit(a);
        traited.push_resubmit(b);
        let via_legacy: Vec<TaskId> = std::iter::from_fn(|| legacy.pop()).collect();
        let via_trait: Vec<TaskId> = std::iter::from_fn(|| traited.pop()).collect();
        assert_eq!(via_legacy, via_trait);
    }
}
