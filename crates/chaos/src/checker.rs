//! Tick-level invariant checking over the engine's telemetry stream.
//!
//! The checker is a second, independent implementation of the simulator's
//! bookkeeping: it rebuilds pool and task state purely from
//! [`TelemetryEvent`]s and cross-checks every transition. It shares no code
//! with the engine's own `debug_check_invariants`, so a bug in the engine's
//! accounting cannot hide itself in the checker.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use wire_dag::Millis;
use wire_simcloud::{CloudConfig, FamilySpec, MemoryProfile};
use wire_telemetry::{DecisionRecord, Recorder, TelemetryEvent, TickStats};

/// Cap on stored violation messages; further ones are only counted.
const MAX_VIOLATIONS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum InstPhase {
    /// Never mentioned by any event.
    Absent,
    Launching,
    Running {
        charge_start: Millis,
    },
    Draining {
        charge_start: Millis,
        until: Millis,
    },
    Terminated,
}

#[derive(Debug, Clone)]
struct InstTrack {
    phase: InstPhase,
    /// Family index; 0 unless an `InstanceFamilyAssigned` event said otherwise.
    family: u32,
    /// Slot-milliseconds consumed on this instance (completed + sunk).
    occupied: Millis,
    /// Declared memory (MB) claimed by resident tasks (memory mode only).
    mem_claimed: i64,
    /// `Some((task, dispatched_at))` while a slot is held.
    slots: Vec<Option<(u32, Millis)>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaskTrack {
    completed: bool,
    resubmits: u32,
    running_on: Option<(u32, u32)>,
}

/// A task whose instance was terminated; its `TaskResubmitted` event is
/// emitted right after the `InstanceTerminated` and must match exactly.
#[derive(Debug, Clone, Copy)]
struct PendingResubmit {
    task: u32,
    instance: u32,
    slot: u32,
    at: Millis,
    sunk: Millis,
}

/// Task/stage id ranges of one workflow in a multi-workflow session.
#[derive(Debug, Clone, Copy)]
struct WorkflowRange {
    task_base: u32,
    task_count: u32,
    stage_base: u32,
    stage_count: u32,
}

#[derive(Debug, Default)]
struct CheckerState {
    unit: Millis,
    slots_per_instance: u32,
    site_capacity: u32,
    /// Resolved instance family table (always non-empty; family 0 first).
    families: Vec<FamilySpec>,
    /// Per-task declared memory demand (MB); empty = memory checks off.
    /// Raised in place when a `TaskOom` reports a higher observed peak,
    /// mirroring the engine's retry-with-more-memory rule.
    mem_demand: Vec<i64>,
    /// Instances whose next `InstanceTerminated` must be floor-billed (the
    /// provider forgives the charging unit a spot eviction interrupts).
    evicted_pending: Vec<u32>,
    /// Total bill re-derived from terminations, in milli-dollars.
    billed_milli: u64,
    last_at: Millis,
    events: u64,
    ticks: u64,
    completions: u64,
    instances: Vec<InstTrack>,
    tasks: Vec<TaskTrack>,
    pending_resubmits: Vec<PendingResubmit>,
    /// Optional per-workflow id-range layout (slot-index consistency).
    layout: Vec<WorkflowRange>,
    /// Per-workflow lifecycle order: 0 = submitted, 1 = ready, 2 = completed.
    wf_stage: BTreeMap<u32, u8>,
    violations: Vec<String>,
    suppressed: u64,
}

impl CheckerState {
    fn violate(&mut self, at: Millis, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("[{at}] {msg}"));
        } else {
            self.suppressed += 1;
        }
    }

    fn inst(&mut self, id: u32) -> &mut InstTrack {
        let idx = id as usize;
        if idx >= self.instances.len() {
            let slots = self.slots_per_instance as usize;
            self.instances.resize_with(idx + 1, || InstTrack {
                phase: InstPhase::Absent,
                family: 0,
                occupied: Millis::ZERO,
                mem_claimed: 0,
                slots: vec![None; slots],
            });
        }
        &mut self.instances[idx]
    }

    /// Memory capacity (MB) of `instance`'s family.
    fn mem_capacity(&mut self, instance: u32) -> i64 {
        let fam = self.inst(instance).family as usize;
        self.families[fam].mem_mb
    }

    fn task(&mut self, id: u32) -> &mut TaskTrack {
        let idx = id as usize;
        if idx >= self.tasks.len() {
            self.tasks.resize_with(idx + 1, TaskTrack::default);
        }
        &mut self.tasks[idx]
    }

    fn active_instances(&self) -> u32 {
        self.instances
            .iter()
            .filter(|i| !matches!(i.phase, InstPhase::Absent | InstPhase::Terminated))
            .count() as u32
    }

    /// The workflow range owning `task`, when a layout was declared.
    fn range_of(&self, task: u32) -> Option<WorkflowRange> {
        self.layout
            .iter()
            .copied()
            .find(|r| task >= r.task_base && task < r.task_base + r.task_count)
    }

    fn check_ids(&mut self, at: Millis, what: &str, task: u32, stage: u32) {
        if self.layout.is_empty() {
            return;
        }
        match self.range_of(task) {
            None => self.violate(
                at,
                format!("{what}: task {task} outside every workflow range"),
            ),
            Some(r) => {
                if stage < r.stage_base || stage >= r.stage_base + r.stage_count {
                    self.violate(
                        at,
                        format!(
                            "{what}: task {task} (workflow tasks {}..{}) paired with stage {stage} \
                             outside its workflow's stages {}..{}",
                            r.task_base,
                            r.task_base + r.task_count,
                            r.stage_base,
                            r.stage_base + r.stage_count
                        ),
                    );
                }
            }
        }
    }

    fn apply(&mut self, at: Millis, event: TelemetryEvent) {
        self.events += 1;
        if at < self.last_at {
            self.violate(
                at,
                format!("event time went backwards (previous {})", self.last_at),
            );
        }
        self.last_at = self.last_at.max(at);

        match event {
            TelemetryEvent::RunSetupDone
            | TelemetryEvent::WorkflowDone
            | TelemetryEvent::ChaosFault { .. } => {}

            TelemetryEvent::WorkflowSubmitted { workflow, .. } => {
                if self.wf_stage.insert(workflow, 0).is_some() {
                    self.violate(at, format!("workflow {workflow} submitted twice"));
                }
            }
            TelemetryEvent::WorkflowReady { workflow } => match self.wf_stage.get(&workflow) {
                Some(0) => {
                    self.wf_stage.insert(workflow, 1);
                }
                other => self.violate(
                    at,
                    format!("workflow {workflow} ready out of order (stage {other:?})"),
                ),
            },
            TelemetryEvent::WorkflowCompleted { workflow, .. } => {
                match self.wf_stage.get(&workflow) {
                    Some(1) => {
                        self.wf_stage.insert(workflow, 2);
                    }
                    other => self.violate(
                        at,
                        format!("workflow {workflow} completed out of order (stage {other:?})"),
                    ),
                }
            }

            TelemetryEvent::InstanceRequested { instance } => {
                let t = self.inst(instance);
                if t.phase != InstPhase::Absent {
                    let phase = t.phase;
                    self.violate(
                        at,
                        format!(
                            "instance {instance} requested while {phase:?} (ids are never reused)"
                        ),
                    );
                } else {
                    t.phase = InstPhase::Launching;
                }
                let (active, cap) = (self.active_instances(), self.site_capacity);
                if active > cap {
                    self.violate(at, format!("pool {active} exceeds site capacity {cap}"));
                }
            }
            TelemetryEvent::InstanceReady { instance } => {
                let t = self.inst(instance);
                match t.phase {
                    InstPhase::Launching => t.phase = InstPhase::Running { charge_start: at },
                    // Initial instances are born Running at t = 0 without a
                    // preceding request.
                    InstPhase::Absent if at.is_zero() => {
                        t.phase = InstPhase::Running { charge_start: at }
                    }
                    phase => self.violate(
                        at,
                        format!("instance {instance} became ready while {phase:?}"),
                    ),
                }
                let (active, cap) = (self.active_instances(), self.site_capacity);
                if active > cap {
                    self.violate(at, format!("pool {active} exceeds site capacity {cap}"));
                }
            }
            TelemetryEvent::InstanceDraining { instance, until } => {
                let unit = self.unit;
                let t = self.inst(instance);
                match t.phase {
                    InstPhase::Running { charge_start } => {
                        if until <= at {
                            self.violate(
                                at,
                                format!("instance {instance} drains to {until}, not in the future"),
                            );
                        } else if (until - charge_start).as_ms() % unit.as_ms() != 0 {
                            self.violate(
                                at,
                                format!(
                                    "instance {instance} drain boundary {until} is not a charge \
                                     boundary (charged from {charge_start}, unit {unit})"
                                ),
                            );
                        } else {
                            t.phase = InstPhase::Draining {
                                charge_start,
                                until,
                            };
                        }
                    }
                    phase => {
                        self.violate(at, format!("instance {instance} drained while {phase:?}"))
                    }
                }
            }
            TelemetryEvent::InstanceFailed { instance } => {
                let t = self.inst(instance);
                if !matches!(t.phase, InstPhase::Running { .. }) {
                    let phase = t.phase;
                    self.violate(
                        at,
                        format!("instance {instance} failed while {phase:?} (failures strike Running only)"),
                    );
                }
            }
            TelemetryEvent::InstanceTerminated { instance, units } => {
                self.on_terminated(at, instance, units);
            }
            TelemetryEvent::InstanceFamilyAssigned { instance, family } => {
                match self.families.get(family as usize).map(|f| f.slots) {
                    None => self.violate(
                        at,
                        format!("instance {instance} assigned unknown family {family}"),
                    ),
                    Some(slots) => {
                        let t = self.inst(instance);
                        t.family = family;
                        t.slots.resize(slots as usize, None);
                    }
                }
            }
            TelemetryEvent::SpotEvicted { instance } => {
                let t = self.inst(instance);
                let (phase, fam) = (t.phase, t.family);
                if !matches!(phase, InstPhase::Running { .. }) {
                    self.violate(
                        at,
                        format!(
                            "instance {instance} spot-evicted while {phase:?} \
                             (evictions strike Running only)"
                        ),
                    );
                }
                if !self.families[fam as usize].is_spot() {
                    self.violate(
                        at,
                        format!("on-demand instance {instance} (family {fam}) spot-evicted"),
                    );
                }
                self.evicted_pending.push(instance);
            }
            TelemetryEvent::TaskOom {
                task,
                instance,
                demand_mb,
                peak_mb,
            } => self.on_oom(at, task, instance, demand_mb, peak_mb),

            TelemetryEvent::TaskDispatched {
                task,
                stage,
                instance,
                slot,
            } => {
                self.check_ids(at, "dispatch", task, stage);
                let width = self.inst(instance).slots.len() as u32;
                if slot >= width {
                    self.violate(
                        at,
                        format!(
                            "task {task} dispatched to slot {slot} ≥ instance {instance}'s \
                             width {width}"
                        ),
                    );
                    return;
                }
                let tt = *self.task(task);
                if tt.completed {
                    self.violate(at, format!("completed task {task} dispatched again"));
                }
                if let Some((i, s)) = tt.running_on {
                    self.violate(
                        at,
                        format!("task {task} dispatched while already running on {i}/{s}"),
                    );
                }
                let it = self.inst(instance);
                let phase = it.phase;
                let occupant = it.slots[slot as usize];
                it.slots[slot as usize] = Some((task, at));
                if !matches!(phase, InstPhase::Running { .. }) {
                    self.violate(
                        at,
                        format!("task {task} dispatched to instance {instance} in {phase:?}"),
                    );
                }
                if let Some((other, _)) = occupant {
                    self.violate(
                        at,
                        format!(
                            "task {task} dispatched to occupied slot {instance}/{slot} (task {other})"
                        ),
                    );
                }
                if let Some(&demand) = self.mem_demand.get(task as usize) {
                    let cap = self.mem_capacity(instance);
                    let free = cap - self.inst(instance).mem_claimed;
                    if demand > free {
                        self.violate(
                            at,
                            format!(
                                "task {task} (demand {demand} MB) placed on instance {instance} \
                                 with only {free} MB free"
                            ),
                        );
                    }
                    self.inst(instance).mem_claimed += demand;
                }
                self.task(task).running_on = Some((instance, slot));
            }
            TelemetryEvent::TaskCompleted {
                task,
                stage,
                instance,
                slot,
                exec,
                transfer,
                restarts,
            } => {
                self.check_ids(at, "completion", task, stage);
                let open = self
                    .inst(instance)
                    .slots
                    .get(slot as usize)
                    .copied()
                    .flatten();
                match open {
                    Some((t, start)) if t == task => {
                        // ground truth: slot occupancy is exactly exec + transfer
                        if start + exec + transfer != at {
                            self.violate(
                                at,
                                format!(
                                    "task {task} occupancy mismatch: dispatched {start}, \
                                     exec {exec} + transfer {transfer} ≠ elapsed {}",
                                    at - start
                                ),
                            );
                        }
                        let demand = self.mem_demand.get(task as usize).copied().unwrap_or(0);
                        let it = self.inst(instance);
                        it.slots[slot as usize] = None;
                        it.occupied += at - start;
                        it.mem_claimed -= demand;
                    }
                    other => self.violate(
                        at,
                        format!(
                            "task {task} completed on {instance}/{slot} but slot holds {other:?}"
                        ),
                    ),
                }
                let tt = self.task(task);
                let (was_completed, seen_resubmits) = (tt.completed, tt.resubmits);
                tt.completed = true;
                tt.running_on = None;
                if was_completed {
                    self.violate(at, format!("task {task} completed twice"));
                } else {
                    self.completions += 1;
                }
                if restarts != seen_resubmits {
                    self.violate(
                        at,
                        format!(
                            "task {task} reports {restarts} restarts; checker saw {seen_resubmits} \
                             resubmissions"
                        ),
                    );
                }
            }
            TelemetryEvent::TaskResubmitted {
                task,
                instance,
                slot,
                sunk,
            } => {
                match self.pending_resubmits.iter().position(|p| p.task == task) {
                    Some(i) => {
                        let p = self.pending_resubmits.swap_remove(i);
                        if p.instance != instance || p.slot != slot || p.at != at || p.sunk != sunk
                        {
                            self.violate(
                                at,
                                format!(
                                    "task {task} resubmission ({instance}/{slot}, sunk {sunk}) \
                                     disagrees with its instance's termination \
                                     ({}/{} at {}, sunk {})",
                                    p.instance, p.slot, p.at, p.sunk
                                ),
                            );
                        }
                    }
                    None => self.violate(
                        at,
                        format!(
                            "task {task} resubmitted from {instance}/{slot} with no preceding \
                             instance termination"
                        ),
                    ),
                }
                let tt = self.task(task);
                tt.resubmits += 1;
                if tt.completed {
                    self.violate(at, format!("completed task {task} resubmitted"));
                }
            }

            TelemetryEvent::MapeTick {
                pool,
                launching,
                draining,
                running,
                done,
                ..
            } => {
                let (mut p, mut l, mut d, mut r) = (0u32, 0u32, 0u32, 0u32);
                for i in &self.instances {
                    match i.phase {
                        InstPhase::Running { .. } => p += 1,
                        InstPhase::Launching => l += 1,
                        InstPhase::Draining { .. } => d += 1,
                        InstPhase::Absent | InstPhase::Terminated => {}
                    }
                    r += i.slots.iter().flatten().count() as u32;
                }
                let expected = [
                    ("pool", pool, p),
                    ("launching", launching, l),
                    ("draining", draining, d),
                    ("running tasks", running, r),
                    ("done tasks", done, self.completions as u32),
                ];
                for (what, reported, tracked) in expected {
                    if reported != tracked {
                        self.violate(
                            at,
                            format!(
                                "tick reports {what} = {reported}, event stream implies {tracked}"
                            ),
                        );
                    }
                }
            }

            TelemetryEvent::BudgetVerdict {
                spent_milli,
                ceiling_milli,
                launch,
                committed_milli,
            } => self.on_budget_verdict(at, spent_milli, ceiling_milli, launch, committed_milli),
        }
    }

    /// The engine's committed spend at `at`, re-derived from the event
    /// stream alone: everything billed by past terminations plus the bill
    /// each live instance is already committed to (a launching instance
    /// commits one started unit, a running one bills through `at`, a
    /// draining one through its scheduled termination).
    fn committed_spend(&self, at: Millis) -> u64 {
        let unit = self.unit;
        let mut spent = self.billed_milli;
        for it in &self.instances {
            let units = match it.phase {
                InstPhase::Launching => 1,
                InstPhase::Running { charge_start } => units_billed(charge_start, at, unit),
                InstPhase::Draining {
                    charge_start,
                    until,
                } => units_billed(charge_start, until, unit),
                InstPhase::Absent | InstPhase::Terminated => continue,
            };
            spent += units * self.families[it.family as usize].unit_price_milli();
        }
        spent
    }

    /// `BudgetVerdict` carries the committed spend the steering saw and the
    /// grow it approved this tick. Cross-check the spend against this
    /// checker's independent ledger, then hold the verdict to the budget
    /// contract: no launches once the ceiling is reached (hard veto), and
    /// no grow whose own commitment overshoots the ceiling.
    fn on_budget_verdict(
        &mut self,
        at: Millis,
        spent_milli: u64,
        ceiling_milli: u64,
        launch: u32,
        committed_milli: u64,
    ) {
        let derived = self.committed_spend(at);
        if derived != spent_milli {
            self.violate(
                at,
                format!(
                    "budget verdict reports spend {spent_milli} milli; event stream implies \
                     {derived}"
                ),
            );
        }
        let price0 = self.families[0].unit_price_milli();
        let expected = spent_milli.saturating_add(launch as u64 * price0);
        if committed_milli != expected {
            self.violate(
                at,
                format!(
                    "budget verdict commits {committed_milli} milli; spend {spent_milli} + \
                     {launch} launch(es) at {price0} implies {expected}"
                ),
            );
        }
        if launch > 0 && spent_milli >= ceiling_milli {
            self.violate(
                at,
                format!(
                    "budget hard veto violated: {launch} launch(es) approved with spend \
                     {spent_milli} at or past ceiling {ceiling_milli}"
                ),
            );
        }
        if launch > 0 && committed_milli > ceiling_milli {
            self.violate(
                at,
                format!(
                    "budget commit bound violated: grow commits {committed_milli} milli over \
                     ceiling {ceiling_milli}"
                ),
            );
        }
    }

    /// The kernel killed `task` for blowing past its family's memory: its
    /// slot and claim free up and a matching `TaskResubmitted` must follow,
    /// carrying a claim raised to at least the observed peak so the same
    /// placement cannot OOM twice.
    fn on_oom(&mut self, at: Millis, task: u32, instance: u32, demand_mb: i64, peak_mb: i64) {
        if demand_mb < peak_mb {
            self.violate(
                at,
                format!(
                    "task {task} OOM leaves claim {demand_mb} MB below observed peak \
                     {peak_mb} MB (the retry would OOM again)"
                ),
            );
        }
        let old_demand = self.mem_demand.get(task as usize).copied();
        if let Some(old) = old_demand {
            if demand_mb < old {
                self.violate(
                    at,
                    format!("task {task} OOM lowered its claim {old} → {demand_mb} MB"),
                );
            }
            self.mem_demand[task as usize] = demand_mb;
        } else if !self.mem_demand.is_empty() {
            self.violate(
                at,
                format!("task {task} OOMed but is outside the declared memory profile"),
            );
        }
        let t = self.inst(instance);
        let pos = t
            .slots
            .iter()
            .position(|s| matches!(s, Some((tt, _)) if *tt == task));
        match pos {
            Some(slot) => {
                let (_, start) = t.slots[slot].take().expect("position() found an occupant");
                t.occupied += at - start;
                t.mem_claimed -= old_demand.unwrap_or(0);
                self.pending_resubmits.push(PendingResubmit {
                    task,
                    instance,
                    slot: slot as u32,
                    at,
                    sunk: at - start,
                });
            }
            None => self.violate(
                at,
                format!("task {task} OOMed on instance {instance} but holds no slot there"),
            ),
        }
        self.task(task).running_on = None;
    }

    /// `InstanceTerminated` carries the bill; re-derive it. Tasks still in
    /// slots lose their work: fold it into `occupied` and demand a matching
    /// `TaskResubmitted` (the engine emits them right after this event).
    fn on_terminated(&mut self, at: Millis, instance: u32, units: u64) {
        let unit = self.unit;
        // A spot eviction announced itself just before this event: the
        // provider forgives the charging unit in progress (floor, may be 0).
        let forgiven = match self.evicted_pending.iter().position(|&i| i == instance) {
            Some(i) => {
                self.evicted_pending.swap_remove(i);
                true
            }
            None => false,
        };
        let t = self.inst(instance);
        let slots = t.slots.len() as u64;
        let family = t.family;
        let expected = match t.phase {
            InstPhase::Running { charge_start } if forgiven => {
                Some(units_forgiven(charge_start, at, unit))
            }
            InstPhase::Running { charge_start } => Some(units_billed(charge_start, at, unit)),
            InstPhase::Draining {
                charge_start,
                until,
            } => Some(units_billed(charge_start, at.min(until), unit)),
            // Killed before boot: one started (and wasted) unit.
            InstPhase::Launching => Some(1),
            InstPhase::Absent | InstPhase::Terminated => None,
        };
        let phase = t.phase;
        t.phase = InstPhase::Terminated;
        t.mem_claimed = 0;
        let mut evicted = Vec::new();
        for (slot, held) in t.slots.iter_mut().enumerate() {
            if let Some((task, start)) = held.take() {
                t.occupied += at - start;
                evicted.push(PendingResubmit {
                    task,
                    instance,
                    slot: slot as u32,
                    at,
                    sunk: at - start,
                });
            }
        }
        let occupied = t.occupied;
        match expected {
            None => self.violate(
                at,
                format!("instance {instance} terminated while {phase:?}"),
            ),
            Some(e) if e != units => self.violate(
                at,
                format!(
                    "instance {instance} billed {units} units; {phase:?} ending at {at} \
                     implies {e}{}",
                    if forgiven {
                        " (spot eviction forgives the open unit)"
                    } else {
                        ""
                    }
                ),
            ),
            Some(_) => {}
        }
        if units == 0 && !forgiven {
            self.violate(at, format!("instance {instance} billed zero units"));
        }
        // conservation: paid slot time covers everything that ran there — a
        // forgiven eviction gets exactly one free (partial) unit on top
        let paid_windows = units + forgiven as u64;
        if Millis::from_ms(paid_windows * unit.as_ms() * slots) < occupied {
            self.violate(
                at,
                format!(
                    "instance {instance} occupied {occupied} slot-ms but was billed only \
                     {units} × {unit} × {slots} slots"
                ),
            );
        }
        // per-family billing ledger (conservation against RunResult::cost_milli)
        self.billed_milli += units * self.families[family as usize].unit_price_milli();
        for p in evicted {
            self.task(p.task).running_on = None;
            self.pending_resubmits.push(p);
        }
    }

    fn finalize(&self) -> InvariantReport {
        let mut violations = self.violations.clone();
        let mut push = |msg: String| {
            if violations.len() < MAX_VIOLATIONS {
                violations.push(msg);
            }
        };
        for p in &self.pending_resubmits {
            push(format!(
                "task {} lost its slot at {} but was never resubmitted",
                p.task, p.at
            ));
        }
        for i in &self.evicted_pending {
            push(format!("instance {i} spot-evicted but never terminated"));
        }
        for (i, inst) in self.instances.iter().enumerate() {
            if !matches!(inst.phase, InstPhase::Terminated | InstPhase::Absent) {
                push(format!(
                    "instance {i} never terminated (left {:?})",
                    inst.phase
                ));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.running_on.is_some() && !t.completed {
                push(format!("task {i} still running at end of stream"));
            }
        }
        if !self.layout.is_empty() {
            let total: u64 = self.layout.iter().map(|r| r.task_count as u64).sum();
            if self.completions != total {
                push(format!(
                    "{} completions recorded; declared workflows total {total} tasks",
                    self.completions
                ));
            }
        }
        InvariantReport {
            events: self.events,
            ticks: self.ticks,
            completions: self.completions,
            suppressed: self.suppressed,
            violations,
        }
    }
}

#[inline]
fn units_billed(charge_start: Millis, end: Millis, unit: Millis) -> u64 {
    // mirrors Instance::units_billed: started units, minimum one
    end.saturating_sub(charge_start).ceil_div(unit).max(1)
}

#[inline]
fn units_forgiven(charge_start: Millis, end: Millis, unit: Millis) -> u64 {
    // mirrors Instance::units_billed_forgiven: completed units only, no floor
    end.saturating_sub(charge_start).as_ms() / unit.as_ms()
}

/// Everything the checker concluded about one run.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    pub events: u64,
    pub ticks: u64,
    pub completions: u64,
    /// Violations beyond the storage cap, counted but not rendered.
    pub suppressed: u64,
    pub violations: Vec<String>,
}

impl InvariantReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Human-readable multi-line summary (the CI artifact body).
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariant checker: {} events, {} ticks, {} completions, {} violation(s)\n",
            self.events,
            self.ticks,
            self.completions,
            self.violations.len() as u64 + self.suppressed,
        );
        for v in &self.violations {
            out.push_str("  ✗ ");
            out.push_str(v);
            out.push('\n');
        }
        if self.suppressed > 0 {
            out.push_str(&format!("  … and {} more suppressed\n", self.suppressed));
        }
        out
    }
}

/// Cloneable tick-level invariant checker; attach a clone as the engine's
/// [`Recorder`] (e.g. via [`wire_simcloud::Session::recording`]) and call
/// [`report`](InvariantChecker::report) after the run.
#[derive(Debug, Clone)]
pub struct InvariantChecker(Arc<Mutex<CheckerState>>);

impl InvariantChecker {
    /// Checker for runs under `cfg`. The config supplies the charging unit,
    /// slot count and site capacity the invariants are phrased in.
    pub fn new(cfg: &CloudConfig) -> Self {
        let families = cfg.resolved_families();
        let state = CheckerState {
            unit: cfg.charging_unit,
            // family 0 is the default; its slot count equals
            // cfg.slots_per_instance when no family table is configured
            slots_per_instance: families[0].slots,
            site_capacity: cfg.site_capacity,
            families,
            ..CheckerState::default()
        };
        Self(Arc::new(Mutex::new(state)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CheckerState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Declare the next workflow's size, in submission order. With a layout
    /// declared, the checker also verifies task/stage ids stay inside their
    /// workflow's ranges (slot-index consistency in multi-workflow sessions)
    /// and that the final completion count covers every declared task.
    pub fn expect_workflow(self, tasks: u32, stages: u32) -> Self {
        {
            let mut s = self.lock();
            let (task_base, stage_base) = s
                .layout
                .last()
                .map(|r| (r.task_base + r.task_count, r.stage_base + r.stage_count))
                .unwrap_or((0, 0));
            s.layout.push(WorkflowRange {
                task_base,
                task_count: tasks,
                stage_base,
                stage_count: stages,
            });
        }
        self
    }

    /// Mirror the session's declared memory demands, enabling the placement
    /// invariant: no dispatch may land on an instance whose free family
    /// memory is below the task's current claim, and every `TaskOom` must
    /// raise the claim to at least the observed peak.
    pub fn expect_memory(self, profile: &MemoryProfile) -> Self {
        self.lock().mem_demand = profile.demands().to_vec();
        self
    }

    /// Total bill re-derived from `InstanceTerminated` events and the family
    /// price table, in milli-dollars. Compare against
    /// [`wire_simcloud::RunResult`]'s `cost_milli` for end-to-end billing
    /// conservation.
    pub fn billed_milli(&self) -> u64 {
        self.lock().billed_milli
    }

    /// Apply the planner's release postconditions to a recorded decision
    /// journal; failures land in the report like event-stream violations.
    pub fn absorb_decisions(&self, decisions: &[DecisionRecord]) {
        let mut s = self.lock();
        for msg in check_decision_journal(decisions) {
            let at = s.last_at;
            s.violate(at, msg);
        }
    }

    /// Snapshot the verdict, including end-of-stream checks.
    pub fn report(&self) -> InvariantReport {
        self.lock().finalize()
    }

    /// Panic with the rendered report unless the run was clean.
    pub fn assert_clean(&self) {
        let r = self.report();
        assert!(r.is_clean(), "{}", r.render());
    }
}

impl Recorder for InvariantChecker {
    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        self.lock().apply(at, event);
    }

    fn tick(&mut self, at: Millis, _stats: TickStats) {
        let mut s = self.lock();
        s.ticks += 1;
        if at < s.last_at {
            let prev = s.last_at;
            s.violate(at, format!("tick time went backwards (previous {prev})"));
        }
        s.last_at = s.last_at.max(at);
    }
}

/// Check a MAPE decision journal against Algorithm 2/3's release guards
/// (`r_j ≤ t`, `projected_busy ≤ 0.2u`, `c_j ≤ 0.2u`, header consistency).
/// Returns one message per violating decision.
pub fn check_decision_journal(decisions: &[DecisionRecord]) -> Vec<String> {
    decisions
        .iter()
        .enumerate()
        .filter_map(|(i, d)| {
            wire_planner::check_decision_postconditions(d)
                .err()
                .map(|e| format!("decision #{i} at {}: {e}", d.at))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CloudConfig {
        CloudConfig::default() // u = 15 min, 4 slots, capacity 12
    }

    fn rec(c: &InvariantChecker, at_mins: u64, ev: TelemetryEvent) {
        let mut h = c.clone();
        h.record(Millis::from_mins(at_mins), ev);
    }

    #[test]
    fn clean_hand_built_stream_passes() {
        let c = InvariantChecker::new(&cfg());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        rec(&c, 0, TelemetryEvent::RunSetupDone);
        rec(
            &c,
            3,
            TelemetryEvent::TaskDispatched {
                task: 0,
                stage: 0,
                instance: 0,
                slot: 0,
            },
        );
        rec(
            &c,
            10,
            TelemetryEvent::TaskCompleted {
                task: 0,
                stage: 0,
                instance: 0,
                slot: 0,
                exec: Millis::from_mins(6),
                transfer: Millis::from_mins(1),
                restarts: 0,
            },
        );
        rec(&c, 10, TelemetryEvent::WorkflowDone);
        rec(
            &c,
            12,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 1,
            },
        );
        let r = c.report();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.completions, 1);
    }

    #[test]
    fn duplicate_completion_is_caught() {
        let c = InvariantChecker::new(&cfg());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        for _ in 0..2 {
            rec(
                &c,
                1,
                TelemetryEvent::TaskDispatched {
                    task: 7,
                    stage: 0,
                    instance: 0,
                    slot: 0,
                },
            );
            rec(
                &c,
                2,
                TelemetryEvent::TaskCompleted {
                    task: 7,
                    stage: 0,
                    instance: 0,
                    slot: 0,
                    exec: Millis::from_mins(1),
                    transfer: Millis::ZERO,
                    restarts: 0,
                },
            );
        }
        let r = c.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("dispatched again") || v.contains("completed twice")));
    }

    #[test]
    fn underbilling_and_drain_off_boundary_are_caught() {
        let c = InvariantChecker::new(&cfg());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        // drain boundary not a multiple of the 15-min unit
        rec(
            &c,
            10,
            TelemetryEvent::InstanceDraining {
                instance: 0,
                until: Millis::from_mins(20),
            },
        );
        // ran 40 min but billed a single unit
        rec(
            &c,
            40,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 1,
            },
        );
        let r = c.report();
        assert!(r.violations.iter().any(|v| v.contains("charge boundary")));
        assert!(r.violations.iter().any(|v| v.contains("implies 3")));
    }

    #[test]
    fn time_reversal_and_capacity_breach_are_caught() {
        let c = InvariantChecker::new(&cfg());
        for i in 0..13 {
            rec(&c, 1, TelemetryEvent::InstanceRequested { instance: i });
        }
        rec(&c, 0, TelemetryEvent::RunSetupDone); // backwards
        let r = c.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("exceeds site capacity")));
        assert!(r.violations.iter().any(|v| v.contains("went backwards")));
    }

    #[test]
    fn layout_flags_cross_workflow_stage_pairing() {
        let c = InvariantChecker::new(&cfg())
            .expect_workflow(10, 3)
            .expect_workflow(10, 3);
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        // task 12 belongs to workflow 1 (stages 3..6); stage 0 does not
        rec(
            &c,
            1,
            TelemetryEvent::TaskDispatched {
                task: 12,
                stage: 0,
                instance: 0,
                slot: 0,
            },
        );
        let r = c.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("outside its workflow")));
    }

    fn spot_cfg() -> CloudConfig {
        CloudConfig {
            families: vec![FamilySpec::new("spot", 4, 1000).spot(Millis::from_mins(600), 400)],
            ..CloudConfig::default()
        }
    }

    fn mem_cfg() -> CloudConfig {
        CloudConfig {
            families: vec![FamilySpec::new("m", 4, 1000).memory_mb(1000)],
            ..CloudConfig::default()
        }
    }

    #[test]
    fn spot_eviction_is_floor_billed_and_zero_units_is_legal() {
        let c = InvariantChecker::new(&spot_cfg());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        // evicted 10 min in: the open 15-min unit is forgiven, bill is zero
        rec(&c, 10, TelemetryEvent::SpotEvicted { instance: 0 });
        rec(
            &c,
            10,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 0,
            },
        );
        let r = c.report();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(c.billed_milli(), 0);
    }

    #[test]
    fn billing_the_eviction_grace_unit_is_caught() {
        // the mutation knob's signature: ceil-billing a forgiven eviction
        let c = InvariantChecker::new(&spot_cfg());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        rec(&c, 40, TelemetryEvent::SpotEvicted { instance: 0 });
        rec(
            &c,
            40,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 3, // floor(40/15) = 2 complete units; 3 charges the grace
            },
        );
        let r = c.report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("forgives the open unit")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn an_unknown_family_is_reported_and_still_billed() {
        let c = InvariantChecker::new(&cfg()); // one legacy row: family 0
        rec(&c, 0, TelemetryEvent::InstanceRequested { instance: 0 });
        rec(
            &c,
            0,
            TelemetryEvent::InstanceFamilyAssigned {
                instance: 0,
                family: 7,
            },
        );
        rec(&c, 3, TelemetryEvent::InstanceReady { instance: 0 });
        // the instance stays on family 0, so its bill prices at that row
        rec(
            &c,
            20,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 2,
            },
        );
        let r = c.report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("instance 0 assigned unknown family 7")),
            "{}",
            r.render()
        );
        assert_eq!(r.violations.len(), 1, "{}", r.render());
        assert_eq!(
            c.billed_milli(),
            2 * cfg().resolved_families()[0].price_milli
        );
    }

    #[test]
    fn evicting_an_on_demand_instance_is_caught() {
        let c = InvariantChecker::new(&cfg()); // legacy table: no spot family
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        rec(&c, 5, TelemetryEvent::SpotEvicted { instance: 0 });
        rec(
            &c,
            5,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 0,
            },
        );
        let r = c.report();
        assert!(
            r.violations.iter().any(|v| v.contains("on-demand")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn memory_oversubscription_is_caught() {
        let c = InvariantChecker::new(&mem_cfg())
            .expect_memory(&MemoryProfile::uniform(2, 600, 600).unwrap());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        for task in 0..2 {
            // second placement claims 1200 MB on a 1000 MB family
            rec(
                &c,
                1,
                TelemetryEvent::TaskDispatched {
                    task,
                    stage: 0,
                    instance: 0,
                    slot: task,
                },
            );
        }
        let r = c.report();
        assert!(
            r.violations.iter().any(|v| v.contains("MB free")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn oom_resubmit_roundtrip_is_clean_and_a_lowered_claim_is_caught() {
        let c = InvariantChecker::new(&mem_cfg())
            .expect_memory(&MemoryProfile::uniform(1, 200, 1200).unwrap());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        rec(
            &c,
            1,
            TelemetryEvent::TaskDispatched {
                task: 0,
                stage: 0,
                instance: 0,
                slot: 0,
            },
        );
        rec(
            &c,
            3,
            TelemetryEvent::TaskOom {
                task: 0,
                instance: 0,
                demand_mb: 1200,
                peak_mb: 1200,
            },
        );
        rec(
            &c,
            3,
            TelemetryEvent::TaskResubmitted {
                task: 0,
                instance: 0,
                slot: 0,
                sunk: Millis::from_mins(2),
            },
        );
        rec(
            &c,
            15,
            TelemetryEvent::InstanceTerminated {
                instance: 0,
                units: 1,
            },
        );
        let r = c.report();
        assert!(r.is_clean(), "{}", r.render());

        // same stream, but the OOM fails to raise the claim to the peak
        let c = InvariantChecker::new(&mem_cfg())
            .expect_memory(&MemoryProfile::uniform(1, 200, 1200).unwrap());
        rec(&c, 0, TelemetryEvent::InstanceReady { instance: 0 });
        rec(
            &c,
            1,
            TelemetryEvent::TaskDispatched {
                task: 0,
                stage: 0,
                instance: 0,
                slot: 0,
            },
        );
        rec(
            &c,
            3,
            TelemetryEvent::TaskOom {
                task: 0,
                instance: 0,
                demand_mb: 200,
                peak_mb: 1200,
            },
        );
        let r = c.report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("below observed peak")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn tee_feeds_both_checkers() {
        use wire_telemetry::Tee;
        let a = InvariantChecker::new(&cfg());
        let b = InvariantChecker::new(&cfg());
        let mut tee = Tee(a.clone(), b.clone());
        assert!(tee.enabled());
        tee.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        tee.tick(Millis::ZERO, TickStats::default());
        assert_eq!(a.report().events, 1);
        assert_eq!(b.report().ticks, 1);
    }
}
