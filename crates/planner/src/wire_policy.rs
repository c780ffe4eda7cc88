//! The full WIRE controller: Monitor → Analyze (predictor) → Plan (lookahead +
//! steering) wired into a [`ScalingPolicy`] the engine calls every interval.

use crate::lookahead::{lookahead_into, LookaheadScratch};
use crate::steering::{steer, steer_explained, SteeringConfig};
use wire_dag::{Millis, StageId};
use wire_obs::StreamingRecorder;
use wire_predictor::{
    CompletedTaskObs, Estimator, IntervalObservations, MemoryModel, PolicyKind, Prediction,
    Predictor, RunningTaskObs, StageVersions, TaskStatus,
};
use wire_simcloud::{MonitorSnapshot, PoolPlan, ScalingPolicy, TaskView};
use wire_telemetry::TelemetryHandle;

/// A memoized per-task occupancy prediction, valid while the stamps of
/// everything it read are unchanged (see [`StageVersions`] for the
/// per-policy invalidation contract). Running tasks are never cached —
/// their age, and therefore their remaining estimate, moves every tick.
#[derive(Debug, Clone, Copy)]
struct CachedPrediction {
    stage: StageVersions,
    transfer_version: u64,
    /// 0 = UnstartedBlocked, 1 = UnstartedReady.
    status: u8,
    remaining: Millis,
    value: Millis,
    policy: PolicyKind,
}

impl CachedPrediction {
    fn valid_for(&self, stage: StageVersions, transfer_version: u64, status: u8) -> bool {
        if self.status != status
            || self.transfer_version != transfer_version
            || self.stage.completions != stage.completions
        {
            return false;
        }
        match self.policy {
            // Policy 1/2: the choice between them and the Policy-2 value
            // hinge on the running-age estimate.
            PolicyKind::NoObservation | PolicyKind::RunningMedian => {
                self.stage.running == stage.running
            }
            // Policy 3/4 read only completion-derived medians.
            PolicyKind::CompletedMedian | PolicyKind::GroupMedian => true,
            // Policy 5 additionally reads the OGD coefficients.
            PolicyKind::OnlineGradientDescent => self.stage.model == stage.model,
        }
    }
}

/// WIRE's MAPE-loop policy (§III-B). Stateful: owns the per-stage learning
/// models and updates them from each interval's monitoring data.
///
/// ```
/// use wire_dag::{ExecProfile, Millis, WorkflowBuilder};
/// use wire_planner::WirePolicy;
/// use wire_simcloud::{CloudConfig, Session, TransferModel};
///
/// let mut b = WorkflowBuilder::new("doc");
/// let s = b.add_stage("s");
/// for _ in 0..8 {
///     b.add_task(s, 1_000, 1_000);
/// }
/// let wf = b.build().unwrap();
/// let prof = ExecProfile::uniform(8, Millis::from_mins(4));
/// let result = Session::new(CloudConfig::default())
///     .transfer(TransferModel::none())
///     .policy(WirePolicy::default())
///     .seed(1)
///     .submit(&wf, &prof)
///     .run()
///     .unwrap();
/// assert_eq!(result.task_records.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct WirePolicy {
    steering: SteeringConfig,
    predictor: Option<Predictor>,
    /// Per-policy prediction counters, for the §IV-E efficiency analysis.
    policy_uses: [u64; 5],
    /// Optional journal: when attached, every Plan step pushes a
    /// [`wire_telemetry::DecisionRecord`].
    telemetry: Option<TelemetryHandle>,
    /// Reused observation buffers (Monitor phase) — cleared, not
    /// reallocated, each tick.
    obs: Option<IntervalObservations>,
    /// Per-task estimate arrays handed to the lookahead, overwritten in
    /// place every tick.
    remaining: Vec<Millis>,
    values: Vec<Millis>,
    /// Per-task memoized predictions keyed by version stamps.
    memo: Vec<Option<CachedPrediction>>,
    /// How far the engine's done-prefix watermark had advanced when we last
    /// zeroed estimate rows: rows below it hold `Millis::ZERO` / `None` and
    /// the per-task loop starts there. See [`MonitorSnapshot::done_prefix`].
    done_seen: usize,
    /// Workflow slots fully below the done watermark whose stages have been
    /// retired in the predictor (their estimates can never be read again).
    /// Advances with `done_seen`; reset alongside it on policy reuse.
    retired_slots: usize,
    /// Reusable lookahead working state + output (zero projection
    /// allocations in steady state).
    lookahead: LookaheadScratch,
    /// Optional streaming-observability sink: one batched note per tick
    /// (predictions, memoization deltas, predictor intake), so the hot
    /// per-task loop never takes its lock.
    obs_sink: Option<StreamingRecorder>,
    /// Reused buffer of this tick's `(task, predicted_ms)` pairs for the
    /// sink; cleared, not reallocated, each tick.
    pred_buf: Vec<(u32, u64)>,
    /// Lifetime prediction-memoization counters (hits, lookups) over
    /// unstarted-task predictions.
    memo_hits: u64,
    memo_lookups: u64,
    /// Predictor-intake total already forwarded to the sink.
    pred_obs_noted: u64,
    /// Online peak-memory model, fed from completed-task maxrss and OOM
    /// observations; gates heterogeneous growth steering.
    mem_model: MemoryModel,
}

impl Default for WirePolicy {
    fn default() -> Self {
        Self::new(SteeringConfig::default())
    }
}

impl WirePolicy {
    pub fn new(steering: SteeringConfig) -> Self {
        WirePolicy {
            steering,
            predictor: None,
            policy_uses: [0; 5],
            telemetry: None,
            obs: None,
            remaining: Vec::new(),
            values: Vec::new(),
            memo: Vec::new(),
            done_seen: 0,
            retired_slots: 0,
            lookahead: LookaheadScratch::default(),
            obs_sink: None,
            pred_buf: Vec::new(),
            memo_hits: 0,
            memo_lookups: 0,
            pred_obs_noted: 0,
            mem_model: MemoryModel::new(),
        }
    }

    /// Enable heterogeneous growth steering: keep `ceil(on_demand_floor ×
    /// launch)` of every grow decision on the on-demand default family, and
    /// steer the remainder onto the cheapest spot family whose memory fits
    /// the online [`MemoryModel`]'s predicted peak.
    pub fn with_family_steering(mut self, on_demand_floor: f64) -> Self {
        self.steering.spot_on_demand_floor = Some(on_demand_floor);
        self
    }

    /// Attach a telemetry handle (usually a clone of the one given to the
    /// engine as its recorder): every MAPE tick's Plan decision is journaled
    /// into the shared buffer. Predictions go to [`Self::with_obs`].
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attach a streaming-observability sink (usually a clone of the
    /// [`StreamingRecorder`] riding the engine): every MAPE tick pushes the
    /// tick's occupancy predictions, memoization deltas and predictor
    /// intake into the shared bounded-memory state, one lock per tick.
    pub fn with_obs(mut self, sink: StreamingRecorder) -> Self {
        self.obs_sink = Some(sink);
        self
    }

    /// Lifetime prediction-memoization `(hits, lookups)` over
    /// unstarted-task predictions.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_lookups)
    }

    /// Access the trained predictor (after at least one interval).
    pub fn predictor(&self) -> Option<&Predictor> {
        self.predictor.as_ref()
    }

    /// Swap the steering configuration mid-run (the deadline extension flips
    /// the fill target this way); the learned predictor state is kept.
    pub fn set_steering(&mut self, steering: SteeringConfig) {
        self.steering = steering;
    }

    pub fn steering(&self) -> SteeringConfig {
        self.steering
    }

    /// How often each of the five prediction policies fired, indexed by
    /// policy number − 1.
    pub fn policy_uses(&self) -> [u64; 5] {
        self.policy_uses
    }

    /// Controller state size in bytes (§IV-F overhead accounting).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .predictor
                .as_ref()
                .map(Predictor::state_bytes)
                .unwrap_or(0)
            + self.mem_model.state_bytes()
    }

    /// Post-process a grow plan under family steering: launches beyond the
    /// on-demand floor move to the cheapest spot family whose memory holds
    /// the predicted peak (every family qualifies while no peak has been
    /// observed — there is nothing to vouch against yet). With no qualifying
    /// discounted family the plan is returned untouched, so this is a no-op
    /// on the homogeneous legacy cloud.
    fn steer_families(&self, plan: &mut PoolPlan, snapshot: &MonitorSnapshot<'_>) {
        let Some(floor) = self.steering.spot_on_demand_floor else {
            return;
        };
        // fewer than two rows hold no spot family cheaper than family 0
        let families = &snapshot.config.families;
        if plan.launch == 0 || families.len() < 2 {
            return;
        }
        let on_demand_price = families[0].unit_price_milli();
        let predicted = if self.steering.memory_blind_families {
            0 // ablation: chase price, ignore the model
        } else {
            self.mem_model.predicted_peak_mb()
        };
        let best = families
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_spot())
            .filter(|(_, f)| f.mem_mb >= predicted)
            .filter(|(_, f)| f.unit_price_milli() < on_demand_price)
            .min_by_key(|(_, f)| f.unit_price_milli());
        let Some((fam, _)) = best else {
            return;
        };
        let total = plan.launch;
        let keep = ((total as f64) * floor.clamp(0.0, 1.0)).ceil() as u32;
        let steered = total.saturating_sub(keep);
        if steered == 0 {
            return;
        }
        plan.launch = total - steered;
        plan.launch_families = vec![fam as u32; steered as usize];
    }

    /// Translate a monitor snapshot into the predictor's observation format,
    /// reusing `obs`'s buffers (no per-tick allocation in steady state).
    /// Stage indices are the session's global stage space; `obs` grows as
    /// workflows arrive.
    fn fill_observations(obs: &mut IntervalObservations, snapshot: &MonitorSnapshot<'_>) {
        obs.ensure_stages(snapshot.total_stages());
        obs.begin_interval();
        for c in snapshot.new_completions {
            let stage = snapshot.stage_of(c.task);
            obs.push_completed(
                stage.index(),
                CompletedTaskObs {
                    task: c.task,
                    input_bytes: c.input_bytes,
                    exec_time: c.exec_time,
                },
            );
        }
        // tasks below the done-prefix watermark are Done, never Running
        for (task, tv, slot) in snapshot.live_tasks() {
            if let TaskView::Running { exec_age, .. } = tv {
                let spec = slot.workflow.task(slot.local_task(task));
                obs.push_running(
                    slot.global_stage(spec.stage).index(),
                    RunningTaskObs {
                        task,
                        input_bytes: spec.input_bytes,
                        age: exec_age,
                    },
                );
            }
        }
        obs.transfers.extend_from_slice(snapshot.interval_transfers);
    }

    fn policy_index(kind: PolicyKind) -> usize {
        match kind {
            PolicyKind::NoObservation => 0,
            PolicyKind::RunningMedian => 1,
            PolicyKind::CompletedMedian => 2,
            PolicyKind::GroupMedian => 3,
            PolicyKind::OnlineGradientDescent => 4,
        }
    }
}

impl ScalingPolicy for WirePolicy {
    fn name(&self) -> &str {
        "wire"
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        let total_stages = snapshot.total_stages();
        let journal = self.telemetry.clone();
        let predictor = self
            .predictor
            .get_or_insert_with(|| Predictor::with_stage_count(total_stages, Estimator::Median));
        // Workflows arriving mid-session extend the global stage space;
        // learned per-stage state is index-stable across the growth.
        predictor.ensure_stages(total_stages);

        // Monitor → Analyze: ingest the interval and step the models.
        let obs = self.obs.get_or_insert_with(|| {
            let mut obs = IntervalObservations::with_stages(total_stages);
            // touched-stage tracking: clearing and (in the predictor)
            // advancing cost O(stages with data) per tick instead of
            // O(stages ever seen)
            obs.enable_sparse();
            obs
        });
        Self::fill_observations(obs, snapshot);
        predictor.observe_interval(obs);

        // The memory analogue of the Monitor step: completed-task maxrss and
        // OOM kills observed this interval feed the peak predictor.
        for c in snapshot.new_completions {
            self.mem_model.observe_peak(c.peak_mb);
        }
        for _ in 0..snapshot.interval_ooms {
            self.mem_model.note_oom();
        }

        // Per incomplete task: the conservative minimum remaining occupancy
        // (drives the lookahead's completion cascade) and the full occupancy
        // estimate t_i (the task's value in Q_task — progress is not
        // credited, per the §III-E arithmetic). Unstarted tasks memoize
        // against the predictor's version stamps: in steady state only tasks
        // whose stage actually changed are re-predicted.
        let n = snapshot.tasks.len();
        if self.remaining.len() > n {
            // a fresh, smaller run reusing this policy: drop stale state
            self.remaining.clear();
            self.values.clear();
            self.memo.clear();
            self.done_seen = 0;
            self.retired_slots = 0;
            predictor.reset_retirement();
        }
        if self.remaining.len() < n {
            // mid-session arrivals append tasks; existing memo entries stay valid
            self.remaining.resize(n, Millis::ZERO);
            self.values.resize(n, Millis::ZERO);
            self.memo.resize(n, None);
        }
        // Adopt the engine's done-prefix watermark: every task below it is
        // permanently Done, so its rows go to zero once (as the watermark
        // passes) and the per-task loop starts there. A snapshot reporting 0
        // — always sound — degrades to the full scan.
        let dp = snapshot.done_prefix.min(n);
        if dp < self.done_seen {
            self.done_seen = dp; // equal-size policy reuse across runs
            self.retired_slots = 0;
            predictor.reset_retirement();
        }
        for i in self.done_seen..dp {
            self.remaining[i] = Millis::ZERO;
            self.values[i] = Millis::ZERO;
            self.memo[i] = None;
        }
        self.done_seen = dp;
        // Workflows fully below the watermark are finished: no task of
        // theirs will ever be predicted again, so the predictor may stop
        // converging their stages' models (see
        // `Predictor::retire_stages_below` for why this is unobservable).
        while self.retired_slots < snapshot.workflows.len() {
            let slot = &snapshot.workflows[self.retired_slots];
            if slot.task_base as usize + slot.num_tasks() > dp {
                break;
            }
            predictor.retire_stages_below(slot.stage_base as usize + slot.workflow.num_stages());
            self.retired_slots += 1;
        }
        let transfer_version = predictor.transfer_version();
        let transfer = predictor.transfer_estimate();
        // A running task's total estimate is its stage's ready-task estimate
        // (see `Prediction::running_occupancy`), so consecutive running tasks
        // sharing a stage and input size share one `predict_task` call.
        let mut last_running: Option<(StageId, u64, Prediction)> = None;
        let mut uses = [0u64; 5];
        let (memo_hits_before, memo_lookups_before) = (self.memo_hits, self.memo_lookups);
        for (task, tv, slot) in snapshot.live_tasks() {
            let i = task.index();
            let status = match tv {
                TaskView::Done { .. } => {
                    self.remaining[i] = Millis::ZERO;
                    self.values[i] = Millis::ZERO;
                    self.memo[i] = None;
                    continue;
                }
                TaskView::Unready => TaskStatus::UnstartedBlocked,
                TaskView::Ready => TaskStatus::UnstartedReady,
                TaskView::Running { exec_age, .. } => TaskStatus::Running { age: exec_age },
            };
            let spec = slot.workflow.task(slot.local_task(task));
            let (input_bytes, stage) = (spec.input_bytes, slot.global_stage(spec.stage));
            let (remaining, value, policy) = if let TaskStatus::Running { age } = status {
                // age advances every tick — nothing to memoize
                let ready = match last_running {
                    Some((s, b, p)) if (s, b) == (stage, input_bytes) => p,
                    _ => {
                        let p =
                            predictor.predict_task(stage, input_bytes, TaskStatus::UnstartedReady);
                        last_running = Some((stage, input_bytes, p));
                        p
                    }
                };
                let p = ready.running_occupancy(age, transfer);
                if self.memo[i].is_some() {
                    self.memo[i] = None;
                }
                (p.remaining, p.exec_time, p.policy)
            } else {
                let stage_versions = predictor.stage_state(stage).versions();
                let code = matches!(status, TaskStatus::UnstartedReady) as u8;
                self.memo_lookups += 1;
                match self.memo[i].filter(|e| e.valid_for(stage_versions, transfer_version, code)) {
                    Some(e) => {
                        self.memo_hits += 1;
                        (e.remaining, e.value, e.policy)
                    }
                    None => {
                        let p = predictor.predict_occupancy(stage, input_bytes, status);
                        self.memo[i] = Some(CachedPrediction {
                            stage: stage_versions,
                            transfer_version,
                            status: code,
                            remaining: p.remaining,
                            value: p.exec_time,
                            policy: p.policy,
                        });
                        (p.remaining, p.exec_time, p.policy)
                    }
                }
            };
            self.remaining[i] = remaining;
            self.values[i] = value;
            uses[Self::policy_index(policy)] += 1;
            if self.obs_sink.is_some() {
                self.pred_buf.push((task.0, value.as_ms()));
            }
        }
        for (slot, fired) in self.policy_uses.iter_mut().zip(uses) {
            *slot += fired;
        }
        if let Some(sink) = &self.obs_sink {
            let (d_hits, d_lookups) = (
                self.memo_hits - memo_hits_before,
                self.memo_lookups - memo_lookups_before,
            );
            sink.note_plan_tick(&self.pred_buf, d_hits, d_lookups);
            self.pred_buf.clear();
            let ingested = predictor.observations_ingested();
            sink.note_predictor_observations(ingested - self.pred_obs_noted);
            self.pred_obs_noted = ingested;
        }

        // Plan: project one interval ahead, then steer.
        let up = lookahead_into(
            &mut self.lookahead,
            snapshot,
            &self.remaining,
            &self.values,
            snapshot.config.mape_interval,
        );
        let mut plan = if let Some(tel) = &journal {
            let (plan, record) = steer_explained(
                snapshot,
                up.occupancies(),
                &up.restart_cost,
                &up.projected_busy,
                self.steering,
            );
            tel.push_decision(record);
            plan
        } else {
            steer(
                snapshot,
                up.occupancies(),
                &up.restart_cost,
                &up.projected_busy,
                self.steering,
            )
        };
        self.steer_families(&mut plan, snapshot);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::{ExecProfile, WorkflowBuilder};
    use wire_simcloud::{CloudConfig, SchedulerSpec, Session, TransferModel};

    /// End-to-end smoke test: WIRE drives a fan-out workflow to completion on
    /// the simulator and uses less than the full-site cost.
    #[test]
    fn wire_completes_a_fanout_workflow() {
        let mut b = WorkflowBuilder::new("fan");
        let s = b.add_stage("s");
        for _ in 0..40 {
            b.add_task(s, 1_000, 1_000);
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(40, Millis::from_mins(5));

        let cfg = CloudConfig {
            slots_per_instance: 2,
            site_capacity: 12,
            charging_unit: Millis::from_mins(15),
            launch_lag: Millis::from_mins(3),
            mape_interval: Millis::from_mins(3),
            initial_instances: 1,
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            ..CloudConfig::default()
        };
        let r = Session::new(cfg)
            .transfer(TransferModel::none())
            .policy(WirePolicy::default())
            .seed(7)
            .submit(&wf, &prof)
            .run()
            .expect("wire run completes");
        assert_eq!(r.task_records.len(), 40);
        assert!(r.mape_iterations > 0);
        assert!(r.peak_instances >= 2, "wire should have scaled out");
    }

    /// A single linear stage with R = U − ε and P = 1 (single-slot
    /// instances). This is the R ≤ U regime of Figure 3, where the paper says
    /// completion time "may deviate widely from optimal" while cost stays
    /// tight: Algorithm 3 only counts instances it can keep busy for a full
    /// charging unit, so with tasks of length ≈ U it packs them two-deep
    /// rather than one-per-instance. Assert the cost bound (≈ optimal N·R/U
    /// units) and a loose completion bound.
    #[test]
    fn linear_stage_r_just_below_u_is_cost_efficient() {
        let n = 10u32;
        let u = Millis::from_mins(10);
        let r_time = u - Millis::from_secs(30); // R = U − ε
        let mut b = WorkflowBuilder::new("linear");
        let s = b.add_stage("s");
        for _ in 0..n {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(n as usize, r_time);

        let interval = Millis::from_secs(30);
        let cfg = CloudConfig {
            slots_per_instance: 1,
            site_capacity: 1000,
            charging_unit: u,
            launch_lag: interval,
            mape_interval: interval,
            initial_instances: 1,
            scheduler: SchedulerSpec::plain_fifo(),
            exec_jitter: 0.0,
            mean_time_between_failures: None,
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            max_sim_time: Millis::from_hours(100),
            families: Vec::new(),
            budget: None,
            mutation_bill_eviction_grace: false,
        };
        let r = Session::new(cfg)
            .transfer(TransferModel::none())
            .policy(WirePolicy::default())
            .seed(1)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        // cost within ~1.5× of the N-unit optimum; completion far better than
        // fully sequential (N·R) even if well above the parallel optimum R
        assert!(
            r.charging_units <= (3 * n / 2) as u64,
            "units = {}",
            r.charging_units
        );
        assert!(
            r.makespan <= r_time * 6,
            "makespan = {} vs R = {}",
            r.makespan,
            r_time
        );
        assert!(r.makespan < r_time * n as u64 / 2, "barely parallel");
    }

    #[test]
    fn policy_usage_counters_accumulate() {
        let mut b = WorkflowBuilder::new("two-stage");
        let s0 = b.add_stage("a");
        let s1 = b.add_stage("b");
        let mut first = Vec::new();
        for _ in 0..6 {
            first.push(b.add_task(s0, 500, 500));
        }
        for _ in 0..6 {
            let t = b.add_task(s1, 500, 500);
            for &f in &first {
                b.add_dep(f, t).unwrap();
            }
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::uniform(12, Millis::from_mins(4));
        let cfg = CloudConfig {
            slots_per_instance: 1,
            initial_instances: 2,
            charging_unit: Millis::from_mins(15),
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            ..CloudConfig::default()
        };
        let mut policy = WirePolicy::default();
        // run through a reference so we can inspect the counters afterwards
        struct ByRef<'a>(&'a mut WirePolicy);
        impl ScalingPolicy for ByRef<'_> {
            fn name(&self) -> &str {
                "wire"
            }
            fn plan(&mut self, s: &MonitorSnapshot<'_>) -> PoolPlan {
                self.0.plan(s)
            }
        }
        Session::new(cfg)
            .transfer(TransferModel::none())
            .policy(ByRef(&mut policy))
            .seed(3)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        let uses = policy.policy_uses();
        assert!(uses.iter().sum::<u64>() > 0, "{uses:?}");
        assert!(policy.state_bytes() > 0);
        assert!(policy.predictor().is_some());
    }
}
