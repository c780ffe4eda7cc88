//! The bounded-memory streaming aggregation state behind
//! [`StreamingRecorder`](crate::StreamingRecorder).
//!
//! Memory bound: everything here is either fixed-size (counters, sketches,
//! the tenant array, the window ring) or proportional to *concurrently
//! in-flight* work (active workflows awaiting completion, outstanding
//! predictions awaiting their actuals) — never to the number of workflows
//! or tasks the run has processed. The state tracks its own high-water
//! marks so the overhead bench can assert exactly that.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use wire_dag::Millis;
use wire_telemetry::{Histogram, TelemetryEvent, TickStats};

use crate::snapshot::{HealthAgg, ObsSnapshot, TenantAgg, WindowAgg, WindowRollup};

/// Tuning knobs for the streaming recorder. Every knob bounds memory or
/// controls reporting cadence; none affects simulation behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Number of synthetic tenants (workflow slot modulo this).
    pub tenants: usize,
    /// Virtual-time width of one rollup window, in milliseconds.
    pub window_ms: u64,
    /// Live windows retained before the oldest folds into the coarse
    /// evicted total.
    pub window_capacity: usize,
    /// Emit a progress line to stderr every this-many workflow
    /// completions; 0 disables progress output.
    pub progress_every: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tenants: 8,
            window_ms: 600_000, // 10 virtual minutes
            window_capacity: 64,
            progress_every: 0,
        }
    }
}

impl ObsConfig {
    /// One window per `interval` (a run's MAPE interval) and no eviction, so
    /// every window of one run survives into the snapshot.
    pub fn per_interval(interval: Millis) -> Self {
        ObsConfig {
            window_ms: interval.as_ms(),
            window_capacity: usize::MAX,
            ..ObsConfig::default()
        }
    }
}

/// Hash for dense `u32` task ids: one multiply by the 64-bit golden ratio.
/// An odd multiplier permutes the low bits the table indexes by and mixes
/// the high bits it tags with; SipHash's DoS resistance buys nothing for
/// keys the simulator assigns itself.
#[derive(Debug, Default, Clone, Copy)]
struct TaskIdHasher(u64);

const GOLDEN_RATIO_64: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for TaskIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN_RATIO_64);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(GOLDEN_RATIO_64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An in-flight workflow: retained only between its submission and
/// completion events, keyed by the global index of its first task so task
/// completions can be attributed by range lookup.
#[derive(Debug, Clone, Copy)]
struct ActiveWorkflow {
    slot: u32,
    tasks: u32,
}

/// Every [`TelemetryEvent::kind`] in a fixed order, so the per-event
/// counter is one array add instead of a string-keyed map lookup. The
/// snapshot re-keys by name, keeping the exported format unchanged.
const KIND_NAMES: [&str; 19] = [
    "run_setup_done",
    "instance_requested",
    "instance_ready",
    "instance_draining",
    "instance_terminated",
    "instance_failed",
    "task_dispatched",
    "task_completed",
    "task_resubmitted",
    "mape_tick",
    "workflow_done",
    "workflow_submitted",
    "workflow_ready",
    "workflow_completed",
    "chaos_fault",
    "instance_family",
    "spot_evicted",
    "task_oom",
    "budget_verdict",
];
const IDX_TASK_COMPLETED: usize = 7;
const IDX_WORKFLOW_SUBMITTED: usize = 11;
const IDX_WORKFLOW_COMPLETED: usize = 13;

fn kind_index(ev: &TelemetryEvent) -> usize {
    match ev {
        TelemetryEvent::RunSetupDone => 0,
        TelemetryEvent::InstanceRequested { .. } => 1,
        TelemetryEvent::InstanceReady { .. } => 2,
        TelemetryEvent::InstanceDraining { .. } => 3,
        TelemetryEvent::InstanceTerminated { .. } => 4,
        TelemetryEvent::InstanceFailed { .. } => 5,
        TelemetryEvent::TaskDispatched { .. } => 6,
        TelemetryEvent::TaskCompleted { .. } => IDX_TASK_COMPLETED,
        TelemetryEvent::TaskResubmitted { .. } => 8,
        TelemetryEvent::MapeTick { .. } => 9,
        TelemetryEvent::WorkflowDone => 10,
        TelemetryEvent::WorkflowSubmitted { .. } => IDX_WORKFLOW_SUBMITTED,
        TelemetryEvent::WorkflowReady { .. } => 12,
        TelemetryEvent::WorkflowCompleted { .. } => IDX_WORKFLOW_COMPLETED,
        TelemetryEvent::ChaosFault { .. } => 14,
        TelemetryEvent::InstanceFamilyAssigned { .. } => 15,
        TelemetryEvent::SpotEvicted { .. } => 16,
        TelemetryEvent::TaskOom { .. } => 17,
        TelemetryEvent::BudgetVerdict { .. } => 18,
    }
}

/// The fixed set of global sketches, as plain fields so the per-event path
/// never does a string-keyed lookup. [`ObsState::snapshot`] re-keys them by
/// name (only the non-empty ones, matching the lazily-created map the
/// exported format started with).
#[derive(Debug, Default)]
struct Sketches {
    task_exec_ms: Histogram,
    task_transfer_ms: Histogram,
    task_sunk_ms: Histogram,
    pool_at_plan: Histogram,
    ready_at_plan: Histogram,
    workflow_makespan_ms: Histogram,
    workflow_slowdown_milli: Histogram,
    /// True peak memory of OOM-killed tasks (MB). Empty — and therefore
    /// absent from snapshots — on memory-blind runs.
    task_oom_peak_mb: Histogram,
}

impl Sketches {
    fn named(&self) -> [(&'static str, &Histogram); 8] {
        [
            ("task_exec_ms", &self.task_exec_ms),
            ("task_transfer_ms", &self.task_transfer_ms),
            ("task_sunk_ms", &self.task_sunk_ms),
            ("pool_at_plan", &self.pool_at_plan),
            ("ready_at_plan", &self.ready_at_plan),
            ("workflow_makespan_ms", &self.workflow_makespan_ms),
            ("workflow_slowdown_milli", &self.workflow_slowdown_milli),
            ("task_oom_peak_mb", &self.task_oom_peak_mb),
        ]
    }
}

/// Wall-clock run-health facts (kept out of [`ObsSnapshot`] so snapshots
/// stay deterministic).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Telemetry events absorbed.
    pub events_total: u64,
    /// Wall seconds between recorder creation and this report.
    pub wall_secs: f64,
    /// `events_total / wall_secs`.
    pub events_per_wall_sec: f64,
    /// Sketch of controller Analyze+Plan latency per tick (µs, wall).
    pub tick_latency_us: Histogram,
    /// Estimated retained bytes right now.
    pub state_bytes: usize,
    /// High-water mark of estimated retained bytes.
    pub peak_state_bytes: usize,
}

/// The streaming aggregation state. Use through
/// [`StreamingRecorder`](crate::StreamingRecorder); exposed for the few
/// call sites (bench, tests) that inspect internals directly.
#[derive(Debug)]
pub struct ObsState {
    cfg: ObsConfig,
    kind_counts: [u64; KIND_NAMES.len()],
    units_billed_total: u64,
    sketches: Sketches,
    tenants: Vec<TenantAgg>,
    health: HealthAgg,
    /// In-flight workflows keyed by first global task index.
    active: BTreeMap<u64, ActiveWorkflow>,
    /// Workflow slot → first global task index, for completion-time removal.
    by_slot: BTreeMap<u32, u64>,
    next_first_task: u64,
    /// Outstanding predictions awaiting their task's observed occupancy. Only
    /// inserted into, removed from and counted, never iterated, so the
    /// hasher cannot reach any output.
    pending_pred: HashMap<u32, u64, BuildHasherDefault<TaskIdHasher>>,
    windows: VecDeque<(u64, WindowAgg)>,
    evicted: WindowAgg,
    evicted_windows: u64,
    // wall-clock side (never serialized into the snapshot)
    started: Instant,
    events_total: u64,
    tick_latency_us: Histogram,
    // high-water marks for the memory-bound proof
    peak_active: usize,
    peak_pending: usize,
    peak_windows: usize,
}

impl ObsState {
    /// Fresh state under `cfg`.
    pub fn new(cfg: ObsConfig) -> Self {
        let tenants = vec![TenantAgg::default(); cfg.tenants.max(1)];
        ObsState {
            cfg,
            kind_counts: [0; KIND_NAMES.len()],
            units_billed_total: 0,
            sketches: Sketches::default(),
            tenants,
            health: HealthAgg::default(),
            active: BTreeMap::new(),
            by_slot: BTreeMap::new(),
            next_first_task: 0,
            pending_pred: HashMap::default(),
            windows: VecDeque::new(),
            evicted: WindowAgg::default(),
            evicted_windows: 0,
            started: Instant::now(),
            events_total: 0,
            tick_latency_us: Histogram::new(),
            peak_active: 0,
            peak_pending: 0,
            peak_windows: 0,
        }
    }

    /// The live window covering `at`, evicting the oldest window into the
    /// coarse total when the ring is full. The simulated clock is
    /// monotonic, so windows only ever open forward.
    fn window_mut(&mut self, at: Millis) -> &mut WindowAgg {
        let idx = at.as_ms() / self.cfg.window_ms.max(1);
        let needs_new = match self.windows.back() {
            Some(&(back_idx, _)) => idx > back_idx,
            None => true,
        };
        if needs_new {
            self.windows.push_back((idx, WindowAgg::default()));
            self.peak_windows = self.peak_windows.max(self.windows.len());
            while self.windows.len() > self.cfg.window_capacity.max(1) {
                let (_, old) = self.windows.pop_front().expect("non-empty ring");
                self.evicted.merge(&old);
                self.evicted_windows += 1;
            }
        }
        &mut self.windows.back_mut().expect("window ring non-empty").1
    }

    /// Absorb one telemetry event (the [`Recorder::record`] body).
    ///
    /// [`Recorder::record`]: wire_telemetry::Recorder::record
    pub fn record(&mut self, at: Millis, ev: &TelemetryEvent) {
        self.events_total += 1;
        self.kind_counts[kind_index(ev)] += 1;
        match *ev {
            TelemetryEvent::InstanceTerminated { units, .. } => {
                self.units_billed_total += units;
                self.window_mut(at).units += units;
            }
            TelemetryEvent::TaskCompleted {
                task,
                exec,
                transfer,
                ..
            } => {
                let exec_ms = exec.as_ms();
                self.sketches.task_exec_ms.observe(exec_ms as f64);
                self.sketches
                    .task_transfer_ms
                    .observe(transfer.as_ms() as f64);
                self.attribute_task(task, exec_ms);
                {
                    let w = self.window_mut(at);
                    w.tasks_completed += 1;
                    w.busy_ms += exec_ms;
                }
                if let Some(pred) = self.pending_pred.remove(&task) {
                    // the controller predicts slot occupancy (§III-C:
                    // execution plus transfer), so join against the same
                    let actual = (exec + transfer).as_ms().max(1);
                    let abs = pred.abs_diff(actual);
                    let rel_milli = abs.saturating_mul(1000) / actual;
                    self.health.pred_abs_err_ms.observe(abs as f64);
                    self.health.pred_rel_milli.observe(rel_milli as f64);
                    let w = self.window_mut(at);
                    w.pred_n += 1;
                    w.pred_abs_err_ms_sum += abs;
                    w.pred_rel_milli.observe(rel_milli as f64);
                }
            }
            TelemetryEvent::TaskResubmitted { sunk, .. } => {
                self.sketches.task_sunk_ms.observe(sunk.as_ms() as f64);
            }
            TelemetryEvent::TaskOom { peak_mb, .. } => {
                self.sketches.task_oom_peak_mb.observe(peak_mb as f64);
            }
            TelemetryEvent::MapeTick { pool, ready, .. } => {
                self.sketches.pool_at_plan.observe(pool as f64);
                self.sketches.ready_at_plan.observe(ready as f64);
            }
            TelemetryEvent::WorkflowSubmitted { workflow, tasks } => {
                let first = self.next_first_task;
                self.next_first_task += tasks as u64;
                self.active.insert(
                    first,
                    ActiveWorkflow {
                        slot: workflow,
                        tasks,
                    },
                );
                self.by_slot.insert(workflow, first);
                self.peak_active = self.peak_active.max(self.active.len());
                self.tenant_mut(workflow).submitted += 1;
                self.window_mut(at).arrivals += 1;
            }
            TelemetryEvent::WorkflowCompleted {
                workflow,
                makespan,
                ideal,
            } => {
                let makespan_ms = makespan.as_ms();
                let slowdown_milli = if ideal.is_zero() {
                    1000
                } else {
                    makespan_ms.saturating_mul(1000) / ideal.as_ms()
                };
                self.sketches
                    .workflow_makespan_ms
                    .observe(makespan_ms as f64);
                self.sketches
                    .workflow_slowdown_milli
                    .observe(slowdown_milli as f64);
                let t = self.tenant_mut(workflow);
                t.completed += 1;
                t.makespan_ms.observe(makespan_ms as f64);
                t.slowdown_milli.observe(slowdown_milli as f64);
                self.window_mut(at).completions += 1;
                if let Some(first) = self.by_slot.remove(&workflow) {
                    self.active.remove(&first);
                }
                self.maybe_progress(at);
            }
            _ => {}
        }
    }

    /// Absorb one MAPE tick (the [`Recorder::tick`] body): the queue depth
    /// is virtual-time state and lands in the snapshot; controller latency
    /// is wall-clock and stays in the health side-channel.
    ///
    /// [`Recorder::tick`]: wire_telemetry::Recorder::tick
    pub fn tick(&mut self, _at: Millis, stats: TickStats) {
        self.health.queue_depth.observe(stats.queue_depth as f64);
        self.tick_latency_us.observe(stats.controller_micros as f64);
    }

    fn tenant_mut(&mut self, slot: u32) -> &mut TenantAgg {
        let i = (slot as usize) % self.tenants.len();
        &mut self.tenants[i]
    }

    /// Attribute a completed task to its workflow's tenant via range lookup
    /// on the active-workflow map. Single-workflow runs emit no lifecycle
    /// events, so their tasks fall through to tenant 0.
    fn attribute_task(&mut self, task: u32, exec_ms: u64) {
        let tenant = match self.active.range(..=task as u64).next_back() {
            Some((&first, wf)) if (task as u64) < first + wf.tasks as u64 => {
                (wf.slot as usize) % self.tenants.len()
            }
            _ => 0,
        };
        let t = &mut self.tenants[tenant];
        t.tasks_completed += 1;
        t.busy_ms += exec_ms;
    }

    /// Record this planning tick's outstanding predictions (latest estimate
    /// wins until the task completes) and memoization counter deltas.
    pub fn note_plan_tick(
        &mut self,
        predictions: &[(u32, u64)],
        memo_hits: u64,
        memo_lookups: u64,
    ) {
        for &(task, predicted_ms) in predictions {
            self.pending_pred.insert(task, predicted_ms);
        }
        self.peak_pending = self.peak_pending.max(self.pending_pred.len());
        self.health.memo_hits += memo_hits;
        self.health.memo_lookups += memo_lookups;
    }

    /// Add completed-task observations ingested by the online predictor.
    pub fn note_predictor_observations(&mut self, n: u64) {
        self.health.predictor_observations += n;
    }

    /// Fold a whole session's authoritative outcome in (campaign cells run
    /// single workflows, which emit no lifecycle events; billing from the
    /// run result also covers end-of-run drains that never produced a
    /// termination event).
    pub fn note_session(&mut self, makespan_ms: u64, units: u64) {
        self.health.sessions += 1;
        self.health.session_units += units;
        self.health.session_makespan_ms.observe(makespan_ms as f64);
    }

    fn maybe_progress(&mut self, at: Millis) {
        if self.cfg.progress_every == 0 {
            return;
        }
        let completed = self.kind_counts[IDX_WORKFLOW_COMPLETED];
        if !completed.is_multiple_of(self.cfg.progress_every) {
            return;
        }
        let submitted = self.kind_counts[IDX_WORKFLOW_SUBMITTED];
        let tasks = self.kind_counts[IDX_TASK_COMPLETED];
        let units = self.units_billed_total;
        let wall = self.started.elapsed().as_secs_f64();
        eprintln!(
            "[wire-obs] t=+{}s workflows {completed}/{submitted} tasks {tasks} units {units} active {} ({:.0} ev/s wall)",
            at.as_ms() / 1000,
            self.active.len(),
            self.events_total as f64 / wall.max(1e-9),
        );
    }

    /// Export the deterministic snapshot. Trailing all-zero tenants are
    /// trimmed so runs that never exercised high slots stay tidy (the trim
    /// is itself a deterministic function of the aggregates).
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut tenants = self.tenants.clone();
        while tenants
            .last()
            .is_some_and(|t| t.submitted == 0 && t.completed == 0 && t.tasks_completed == 0)
        {
            tenants.pop();
        }
        let mut counters: BTreeMap<String, u64> = KIND_NAMES
            .iter()
            .zip(self.kind_counts.iter())
            .filter(|&(_, &n)| n > 0)
            .map(|(&k, &n)| (k.to_string(), n))
            .collect();
        if self.kind_counts[4] > 0 {
            // key present exactly when a termination was observed, like the
            // rest of the lazily-created counters
            counters.insert("units_billed_total".to_string(), self.units_billed_total);
        }
        ObsSnapshot {
            counters,
            sketches: self
                .sketches
                .named()
                .iter()
                .filter(|(_, h)| h.count > 0)
                .map(|&(k, h)| (k.to_string(), h.clone()))
                .collect(),
            tenants,
            windows: WindowRollup {
                width_ms: self.cfg.window_ms.max(1),
                evicted_windows: self.evicted_windows,
                evicted: self.evicted.clone(),
                live: self.windows.iter().cloned().collect(),
            },
            health: self.health.clone(),
        }
    }

    /// Wall-clock health report (nondeterministic; not part of the snapshot).
    pub fn health_report(&self) -> HealthReport {
        let wall = self.started.elapsed().as_secs_f64();
        HealthReport {
            events_total: self.events_total,
            wall_secs: wall,
            events_per_wall_sec: self.events_total as f64 / wall.max(1e-9),
            tick_latency_us: self.tick_latency_us.clone(),
            state_bytes: self.state_bytes(),
            peak_state_bytes: self.peak_state_bytes(),
        }
    }

    /// Estimated retained bytes right now. An estimate (container overhead
    /// is approximated per entry), but one that scales exactly like the
    /// real footprint, which is what the bounded-memory bench asserts on.
    pub fn state_bytes(&self) -> usize {
        self.footprint(
            self.active.len(),
            self.pending_pred.len(),
            self.windows.len(),
        )
    }

    /// High-water mark of [`Self::state_bytes`] across the run.
    pub fn peak_state_bytes(&self) -> usize {
        self.footprint(self.peak_active, self.peak_pending, self.peak_windows)
    }

    fn footprint(&self, active: usize, pending: usize, windows: usize) -> usize {
        use std::mem::size_of;
        const MAP_ENTRY_OVERHEAD: usize = 32;
        // counters and sketches are inline fixed-size fields, covered by
        // size_of::<ObsState>() itself
        size_of::<ObsState>()
            + self.tenants.len() * size_of::<TenantAgg>()
            + active * (2 * (size_of::<(u64, ActiveWorkflow)>() + MAP_ENTRY_OVERHEAD))
            + pending * (size_of::<(u32, u64)>() + MAP_ENTRY_OVERHEAD)
            + windows * size_of::<(u64, WindowAgg)>()
    }

    /// The active configuration.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf_events() -> Vec<(u64, TelemetryEvent)> {
        vec![
            (
                0,
                TelemetryEvent::WorkflowSubmitted {
                    workflow: 0,
                    tasks: 2,
                },
            ),
            (
                100,
                TelemetryEvent::WorkflowSubmitted {
                    workflow: 1,
                    tasks: 3,
                },
            ),
            (
                500,
                TelemetryEvent::TaskCompleted {
                    task: 1,
                    stage: 0,
                    instance: 0,
                    slot: 0,
                    exec: Millis::from_ms(400),
                    transfer: Millis::from_ms(10),
                    restarts: 0,
                },
            ),
            (
                700,
                TelemetryEvent::TaskCompleted {
                    task: 3,
                    stage: 0,
                    instance: 0,
                    slot: 1,
                    exec: Millis::from_ms(600),
                    transfer: Millis::from_ms(0),
                    restarts: 0,
                },
            ),
            (
                900,
                TelemetryEvent::WorkflowCompleted {
                    workflow: 0,
                    makespan: Millis::from_ms(900),
                    ideal: Millis::from_ms(450),
                },
            ),
        ]
    }

    #[test]
    fn tasks_attribute_to_their_workflows_tenant() {
        let mut st = ObsState::new(ObsConfig {
            tenants: 2,
            ..ObsConfig::default()
        });
        for (at, ev) in wf_events() {
            st.record(Millis::from_ms(at), &ev);
        }
        let snap = st.snapshot();
        // task 1 belongs to workflow 0 (tenant 0), task 3 to workflow 1
        // (tenant 1)
        assert_eq!(snap.tenants[0].tasks_completed, 1);
        assert_eq!(snap.tenants[0].busy_ms, 400);
        assert_eq!(snap.tenants[1].tasks_completed, 1);
        assert_eq!(snap.tenants[1].busy_ms, 600);
        // workflow 0 completed with slowdown 900/450 = 2.000
        assert_eq!(snap.tenants[0].completed, 1);
        assert_eq!(snap.counter("workflow_completed"), 1);
        assert_eq!(snap.sketches["workflow_slowdown_milli"].max, 2000.0);
        // completion pruned the active entry
        assert_eq!(st.active.len(), 1);
        assert_eq!(st.peak_active, 2);
    }

    #[test]
    fn window_ring_evicts_losslessly() {
        let cfg = ObsConfig {
            window_ms: 1_000,
            window_capacity: 4,
            ..ObsConfig::default()
        };
        let mut st = ObsState::new(cfg);
        for i in 0..10u64 {
            st.record(
                Millis::from_ms(i * 1_000),
                &TelemetryEvent::WorkflowSubmitted {
                    workflow: i as u32,
                    tasks: 1,
                },
            );
        }
        let snap = st.snapshot();
        assert_eq!(snap.windows.live.len(), 4);
        assert_eq!(snap.windows.evicted_windows, 6);
        let live: u64 = snap.windows.live.iter().map(|(_, w)| w.arrivals).sum();
        assert_eq!(live + snap.windows.evicted.arrivals, 10);
    }

    #[test]
    fn prediction_joins_feed_error_sketches() {
        let mut st = ObsState::new(ObsConfig::default());
        st.note_plan_tick(&[(7, 1_000)], 3, 4);
        st.note_plan_tick(&[(7, 800)], 1, 1); // re-estimate: latest wins
        st.record(
            Millis::from_ms(10),
            &TelemetryEvent::TaskCompleted {
                task: 7,
                stage: 0,
                instance: 0,
                slot: 0,
                exec: Millis::from_ms(400),
                transfer: Millis::ZERO,
                restarts: 0,
            },
        );
        let snap = st.snapshot();
        assert_eq!(snap.health.memo_hits, 4);
        assert_eq!(snap.health.memo_lookups, 5);
        assert_eq!(snap.health.pred_abs_err_ms.count, 1);
        // |800-400| = 400 abs; 400*1000/400 = 1000 milli rel
        assert_eq!(snap.health.pred_abs_err_ms.max, 400.0);
        assert_eq!(snap.health.pred_rel_milli.max, 1000.0);
        assert!(st.pending_pred.is_empty());
        assert_eq!(st.peak_pending, 1);

        // the prediction is of occupancy, so the transfer counts: 600 ms
        // predicted against 400 exec + 200 transfer is a perfect estimate
        st.note_plan_tick(&[(8, 600)], 0, 0);
        st.record(
            Millis::from_ms(20),
            &TelemetryEvent::TaskCompleted {
                task: 8,
                stage: 0,
                instance: 0,
                slot: 1,
                exec: Millis::from_ms(400),
                transfer: Millis::from_ms(200),
                restarts: 0,
            },
        );
        let snap = st.snapshot();
        assert_eq!(snap.health.pred_abs_err_ms.count, 2);
        assert_eq!(snap.health.pred_abs_err_ms.min, 0.0);
        assert_eq!(snap.health.pred_rel_milli.min, 0.0);
        assert_eq!(snap.windows.live[0].1.pred_abs_err_ms_sum, 400);
    }

    fn completed(task: u32, exec_ms: u64) -> TelemetryEvent {
        TelemetryEvent::TaskCompleted {
            task,
            stage: 0,
            instance: 0,
            slot: 0,
            exec: Millis::from_ms(exec_ms),
            transfer: Millis::ZERO,
            restarts: 0,
        }
    }

    #[test]
    fn completions_without_a_prediction_are_not_joined() {
        let mut st = ObsState::new(ObsConfig::default());
        // completed before any planning tick predicted it
        st.record(Millis::from_ms(5), &completed(3, 100));
        st.note_plan_tick(&[(4, 100)], 0, 0);
        let snap = st.snapshot();
        assert_eq!(snap.health.pred_abs_err_ms.count, 0);
        assert_eq!(snap.windows.live[0].1.pred_n, 0);
        assert_eq!(snap.windows.live[0].1.tasks_completed, 1);
        // task 4's prediction waits for its completion
        assert_eq!(st.pending_pred.len(), 1);
    }

    #[test]
    fn zero_occupancy_join_stays_finite() {
        let mut st = ObsState::new(ObsConfig::default());
        st.note_plan_tick(&[(0, 5), (1, 0)], 0, 0);
        st.record(Millis::from_ms(1), &completed(0, 0));
        st.record(Millis::from_ms(2), &completed(1, 0));
        let snap = st.snapshot();
        // a zero occupancy counts as 1 ms: |5-1| = 4 abs, 4000 milli rel;
        // a zero prediction of it is 1 ms off, 1000 milli rel
        assert_eq!(snap.health.pred_abs_err_ms.max, 4.0);
        assert_eq!(snap.health.pred_rel_milli.max, 4000.0);
        assert_eq!(snap.health.pred_rel_milli.min, 1000.0);
    }

    #[test]
    fn footprint_tracks_in_flight_not_lifetime() {
        let mut st = ObsState::new(ObsConfig::default());
        let base = st.state_bytes();
        // a long run: 1000 workflows, each completing before the next
        for i in 0..1000u32 {
            st.record(
                Millis::from_ms(i as u64 * 10),
                &TelemetryEvent::WorkflowSubmitted {
                    workflow: i,
                    tasks: 1,
                },
            );
            st.record(
                Millis::from_ms(i as u64 * 10 + 5),
                &TelemetryEvent::WorkflowCompleted {
                    workflow: i,
                    makespan: Millis::from_ms(5),
                    ideal: Millis::from_ms(5),
                },
            );
        }
        // retained state grew by a bounded amount (sketch names + window
        // ring), not by O(workflows)
        assert_eq!(st.peak_active, 1);
        assert!(st.state_bytes() < base + 64 * 1024);
    }
}
