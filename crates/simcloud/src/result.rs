//! Run outcomes: billing, makespan, utilization, per-task records.

use serde::{Deserialize, Serialize};
use wire_dag::{Millis, StageId, TaskId, WorkflowId};

/// Observed lifecycle of one completed task (ground truth, for evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Workflow the task belongs to (always `w0` in a single-workflow run).
    pub workflow: WorkflowId,
    /// Session-global task id.
    pub task: TaskId,
    /// Session-global stage id.
    pub stage: StageId,
    /// When the task last became ready.
    pub ready_at: Millis,
    /// When its final (successful) slot occupancy began.
    pub started_at: Millis,
    /// When it completed.
    pub finished_at: Millis,
    /// Execution time of the successful attempt.
    pub exec_time: Millis,
    /// Input + output transfer time of the successful attempt.
    pub transfer_time: Millis,
    /// Number of times the task was resubmitted after instance release.
    pub restarts: u32,
}

/// Billing record of one instance over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceBill {
    pub instance: crate::InstanceId,
    /// When the instance's charging clock started (readiness), if it ever ran.
    pub charged_from: Option<Millis>,
    /// When it was released.
    pub released_at: Millis,
    /// Charging units billed.
    pub units: u64,
}

/// Outcome of one workflow within a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowOutcome {
    pub id: WorkflowId,
    /// Workflow name.
    pub workflow: String,
    /// When the workflow entered the session.
    pub submitted_at: Millis,
    /// When it completed (including its teardown epilogue).
    pub finished_at: Millis,
    /// `finished_at − submitted_at`: the workflow's own response time.
    pub makespan: Millis,
    /// Makespan over the workflow's critical path (its ideal single-tenant
    /// lower bound, ignoring transfers and scheduling); ≥ 1 whenever the
    /// critical path is non-degenerate, and exactly the ensemble-scheduling
    /// *slowdown* metric of Ilyushkin et al.
    pub slowdown: f64,
}

/// Aggregate outcome of one simulated session (shared pool and billing
/// totals, plus per-workflow records).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Policy that governed the run.
    pub policy: String,
    /// Workflow name (or `ensemble[N]` for multi-workflow sessions).
    pub workflow: String,
    /// End-to-end completion time of the whole session.
    pub makespan: Millis,
    /// Total charging units billed across all instances (the paper's
    /// *resource cost*, Figure 5).
    pub charging_units: u64,
    /// Total bill in milli-dollars: Σ over instances of `units × family unit
    /// price`. On the legacy homogeneous cloud every unit costs the
    /// reference price (1 $/unit), so this is `charging_units × 1000`.
    #[serde(default)]
    pub cost_milli: u64,
    /// Integral of (instances in Running/Draining state) over time.
    pub instance_time: Millis,
    /// Peak number of simultaneously active (non-terminated) instances.
    pub peak_instances: u32,
    /// Total instances launched over the run.
    pub instances_launched: u32,
    /// Slot time consumed by successful task attempts.
    pub busy_slot_time: Millis,
    /// Slot time consumed by attempts that were later restarted (sunk cost).
    pub wasted_slot_time: Millis,
    /// Task resubmissions caused by instance releases or failures.
    pub restarts: u32,
    /// Injected instance failures that actually struck a running instance.
    pub failures: u32,
    /// Spot-market evictions that actually reclaimed a running instance
    /// (disjoint from `failures`).
    #[serde(default)]
    pub evictions: u32,
    /// Task restarts caused by OOM kills (a subset of `restarts`).
    #[serde(default)]
    pub oom_restarts: u32,
    /// MAPE iterations executed.
    pub mape_iterations: u64,
    /// Wall-clock time spent inside the policy's `plan` calls (§IV-F
    /// controller overhead).
    pub controller_wall: std::time::Duration,
    /// Per-task ground-truth records (evaluation only).
    pub task_records: Vec<TaskRecord>,
    /// Per-instance billing breakdown (sums to `charging_units`).
    pub instance_bills: Vec<InstanceBill>,
    /// (time, active pool size) breakpoints.
    pub pool_timeline: Vec<(Millis, u32)>,
    /// Per-workflow makespan/slowdown records, in submission order. A
    /// single-workflow run has exactly one entry whose makespan equals the
    /// session makespan.
    pub per_workflow: Vec<WorkflowOutcome>,
}

impl RunResult {
    /// Paid-time utilization: slot time actually used (busy + sunk) over the
    /// slot time paid for (`units × u × l`).
    pub fn paid_utilization(&self, charging_unit: Millis, slots_per_instance: u32) -> f64 {
        let paid_ms =
            self.charging_units as f64 * charging_unit.as_ms() as f64 * slots_per_instance as f64;
        if paid_ms == 0.0 {
            return 0.0;
        }
        (self.busy_slot_time.as_ms() + self.wasted_slot_time.as_ms()) as f64 / paid_ms
    }

    /// Utilization against wall instance time rather than billed units.
    pub fn pool_utilization(&self, slots_per_instance: u32) -> f64 {
        let avail = self.instance_time.as_ms() as f64 * slots_per_instance as f64;
        if avail == 0.0 {
            return 0.0;
        }
        (self.busy_slot_time.as_ms() + self.wasted_slot_time.as_ms()) as f64 / avail
    }

    /// Check that the per-instance breakdown sums to the total bill, and
    /// that `instance_time` is the sum of every bill's charged span
    /// (`released_at − charged_from`; a never-booted instance has none).
    pub fn bills_are_consistent(&self) -> bool {
        let bills = &self.instance_bills;
        let charged: Millis = bills
            .iter()
            .filter_map(|b| b.charged_from.map(|from| b.released_at - from))
            .sum();
        bills.iter().map(|b| b.units).sum::<u64>() == self.charging_units
            && charged == self.instance_time
    }

    /// Average pool size over the run.
    pub fn mean_pool_size(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.instance_time.as_ms() as f64 / self.makespan.as_ms() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            policy: "test".into(),
            workflow: "w".into(),
            makespan: Millis::from_mins(10),
            charging_units: 4,
            cost_milli: 4000,
            instance_time: Millis::from_mins(20),
            peak_instances: 3,
            instances_launched: 3,
            busy_slot_time: Millis::from_mins(30),
            wasted_slot_time: Millis::from_mins(10),
            restarts: 2,
            failures: 0,
            evictions: 0,
            oom_restarts: 0,
            mape_iterations: 5,
            controller_wall: std::time::Duration::from_millis(1),
            task_records: vec![],
            instance_bills: vec![],
            pool_timeline: vec![],
            per_workflow: vec![],
        }
    }

    #[test]
    fn utilization_metrics() {
        let r = result();
        let u = Millis::from_mins(10);
        // paid = 4 units × 10 min × 1 slot = 40 min; used = 40 min → 1.0
        assert!((r.paid_utilization(u, 1) - 1.0).abs() < 1e-9);
        // pool: 20 min × 2 slots = 40; used 40 → 1.0
        assert!((r.pool_utilization(2) - 1.0).abs() < 1e-9);
        assert!((r.mean_pool_size() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bills_reconcile_units_and_instance_time() {
        let bill = |from: Option<u64>, to: u64, units: u64| InstanceBill {
            instance: crate::InstanceId(0),
            charged_from: from.map(Millis::from_mins),
            released_at: Millis::from_mins(to),
            units,
        };
        let mut r = result();
        // 12 + 8 charged minutes; the never-booted instance adds none
        r.instance_bills = vec![
            bill(Some(0), 12, 2),
            bill(Some(2), 10, 1),
            bill(None, 10, 1),
        ];
        assert!(r.bills_are_consistent());
        r.instance_time = Millis::from_mins(19);
        assert!(!r.bills_are_consistent());
        r.instance_time = Millis::from_mins(20);
        r.charging_units = 5;
        assert!(!r.bills_are_consistent());
    }

    #[test]
    fn zero_denominators_are_safe() {
        let mut r = result();
        r.charging_units = 0;
        r.instance_time = Millis::ZERO;
        r.makespan = Millis::ZERO;
        assert_eq!(r.paid_utilization(Millis::from_mins(1), 4), 0.0);
        assert_eq!(r.pool_utilization(4), 0.0);
        assert_eq!(r.mean_pool_size(), 0.0);
    }
}
