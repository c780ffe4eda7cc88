//! The day-of-cloud-traffic simulator behind `wire traffic`: many tenant
//! pools, each absorbing a seeded Poisson stream of workflow arrivals,
//! fanned out across the campaign thread pool and merged in tenant order.
//!
//! This is the "workloads of workflows" setting (Ilyushkin et al., see
//! PAPERS.md) at fleet scale: tenants are *independent* pools — one
//! `Session` per tenant, every tenant instantiating the same
//! workflow/profile template — so total arrivals scale through the tenant
//! count while per-tenant state stays fixed. Peak memory is
//! O(largest tenant × worker threads), not O(total arrivals).
//!
//! Determinism contract (same as [`run_campaign`](crate::run_campaign)):
//! tenant *i*'s stream depends only on `(spec, i)`, shards advance tenants
//! in whatever order the pool schedules them, and everything observable —
//! per-tenant outcomes, the merged [`ObsSnapshot`], the FNV digest — is
//! folded back **in tenant order**. `WIRE_THREADS` is unobservable in the
//! output bytes.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use wire_dag::{ExecProfile, Millis, Workflow};
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::WirePolicy;
use wire_simcloud::{CloudConfig, FaultPlan, Session, TransferModel};
use wire_telemetry::{Recorder, Tee};
use wire_workloads::linear_stage;

/// Per-tenant arrival-stream salt ("TRAF" ⊕ golden-ratio mix).
const TENANT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const STREAM_TAG: u64 = 0x5452_4146; // "TRAF"

/// One traffic run, fully resolved: `tenants × per_tenant` workflow
/// arrivals, Poisson inter-arrival gaps, WIRE steering per pool.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Independent tenant pools.
    pub tenants: usize,
    /// Workflow arrivals per tenant.
    pub per_tenant: usize,
    /// Mean Poisson inter-arrival gap within a tenant (1/λ).
    pub mean_gap: Millis,
    /// Tasks per arriving workflow (one parallel stage).
    pub tasks_per_workflow: usize,
    /// Ground-truth runtime of every task.
    pub task_time: Millis,
    /// Billing granularity of every tenant pool.
    pub charging_unit: Millis,
    /// MAPE ticks per tenant session: the control interval is the tenant's
    /// expected arrival span divided by this, floored at 10 s, so the tick
    /// count — and the controller work — stays constant as `per_tenant`
    /// grows.
    pub ticks_per_tenant: u64,
    /// Root seed; tenant `i` derives its stream from `(seed, i)`.
    pub seed: u64,
}

impl TrafficSpec {
    /// The default stream shape at a given total arrival count: tenants of
    /// 1 000 workflows each (minimum one tenant), one 8-task stage of
    /// 10-minute tasks per workflow, a 5-minute charging unit (the paper's
    /// R > U regime, where WIRE scales out per workflow) and a 2 000 s mean
    /// gap — low enough utilization that the pool drains between most
    /// arrivals and the tenant's *live* task window stays small while its
    /// total task count grows without bound. The control interval is pinned
    /// near `U/2` (via `ticks_per_tenant` = span / 150 s): launch lag and
    /// the idle-release cycle then operate at task granularity. Intervals
    /// much longer than a task starve the pool — launches land a whole
    /// interval late and idle instances are released between ticks.
    pub fn with_total(total: usize) -> Self {
        let per_tenant = total.clamp(1, 1_000);
        let mean_gap = Millis::from_secs(2_000);
        let span_ms = mean_gap.as_ms() * per_tenant as u64;
        TrafficSpec {
            tenants: total.div_ceil(per_tenant),
            per_tenant,
            mean_gap,
            tasks_per_workflow: 8,
            task_time: Millis::from_mins(10),
            charging_unit: Millis::from_mins(5),
            ticks_per_tenant: (span_ms / 150_000).max(1),
            seed: 7,
        }
    }

    /// Total workflow arrivals across all tenants.
    pub fn total_arrivals(&self) -> usize {
        self.tenants * self.per_tenant
    }

    /// The shared workflow/profile template every arrival instantiates.
    /// Generated once per run and borrowed by every tenant session — the
    /// submission side holds no per-arrival DAG copies.
    pub fn template(&self) -> (Workflow, ExecProfile) {
        linear_stage(self.tasks_per_workflow, self.task_time)
    }

    /// Every tenant pool's cloud configuration.
    pub fn config(&self) -> CloudConfig {
        let span = self.mean_gap * self.per_tenant as u64;
        let interval_ms = (span.as_ms() / self.ticks_per_tenant.max(1)).max(10_000);
        CloudConfig::linear_analysis(self.charging_unit, Millis::from_ms(interval_ms))
    }

    /// Tenant `t`'s submission times: exponential inter-arrival gaps
    /// (inverse-CDF, same idiom as `EnsembleSpec::arrival_times`), first
    /// arrival at t = 0. Deterministic in `(seed, t)` alone.
    pub fn arrival_times(&self, tenant: usize) -> Vec<Millis> {
        let salt = (tenant as u64).wrapping_mul(TENANT_SALT) ^ STREAM_TAG;
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
        let mut at = Millis::ZERO;
        (0..self.per_tenant)
            .map(|i| {
                if i > 0 {
                    // 1 − u ∈ (0, 1] keeps ln() finite for u = 0
                    let u: f64 = rng.gen::<f64>();
                    at += self.mean_gap.scale(-(1.0 - u).ln());
                }
                at
            })
            .collect()
    }
}

/// What one tenant pool did, in deterministic fields only (no wall times).
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub tenant: usize,
    pub completed_workflows: u64,
    pub charging_units: u64,
    pub makespan: Millis,
    pub restarts: u32,
    pub mape_iterations: u64,
    /// Telemetry events the tenant's streaming recorder observed.
    pub events: u64,
    /// The tenant's deterministic observability aggregate.
    pub obs: ObsSnapshot,
}

/// A completed traffic run: per-tenant outcomes in tenant order plus the
/// spec-order merges. Everything except `wall` is byte-deterministic.
#[derive(Debug)]
pub struct TrafficReport {
    pub spec: TrafficSpec,
    pub per_tenant: Vec<TenantOutcome>,
    pub completed_workflows: u64,
    pub charging_units: u64,
    pub events_total: u64,
    pub restarts: u64,
    /// Every tenant's [`ObsSnapshot`] merged in tenant order.
    pub obs: ObsSnapshot,
    /// FNV-1a over every per-tenant outcome (tenant order) and the merged
    /// snapshot's JSON rendering — the thread-identity witness.
    pub digest: u64,
    pub wall: Duration,
}

impl TrafficReport {
    /// The deterministic summary `wire traffic` prints: identical bytes at
    /// any thread count (wall time goes to stderr, never in here).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "traffic: {} tenants x {} workflows ({} arrivals), mean gap {}",
            self.spec.tenants,
            self.spec.per_tenant,
            self.spec.total_arrivals(),
            self.spec.mean_gap,
        );
        let _ = writeln!(s, "completed_workflows: {}", self.completed_workflows);
        let _ = writeln!(s, "charging_units: {}", self.charging_units);
        let _ = writeln!(s, "events_total: {}", self.events_total);
        let _ = writeln!(s, "restarts: {}", self.restarts);
        let _ = writeln!(s, "digest: {:016x}", self.digest);
        s
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Run one tenant of the spec with an extra recorder teed in next to the
/// streaming recorder (`NoopRecorder` for the plain path; the chaos
/// `InvariantChecker` in tests) and a chaos plan (empty for the plain
/// path — the empty plan is contractually a no-op).
pub fn run_tenant<R: Recorder>(
    spec: &TrafficSpec,
    template: &(Workflow, ExecProfile),
    tenant: usize,
    extra: R,
    chaos: FaultPlan,
) -> TenantOutcome {
    let (wf, prof) = template;
    let obs = StreamingRecorder::new();
    let policy = WirePolicy::default().with_obs(obs.clone());
    let mut session = Session::new(spec.config())
        .transfer(TransferModel::none())
        .policy(policy)
        .seed(spec.seed ^ (tenant as u64).wrapping_mul(TENANT_SALT))
        .chaos(chaos);
    for at in spec.arrival_times(tenant) {
        session = session.submit_at(at, wf, prof);
    }
    let result = session
        .recording(Tee(obs.clone(), extra))
        .run()
        .expect("tenant session completes");
    TenantOutcome {
        tenant,
        completed_workflows: result.per_workflow.len() as u64,
        charging_units: result.charging_units,
        makespan: result.makespan,
        restarts: result.restarts,
        mape_iterations: result.mape_iterations,
        events: obs.health().events_total,
        obs: obs.snapshot(),
    }
}

/// Run the whole traffic spec across the thread pool (`threads = None`
/// defers to `WIRE_THREADS` / available cores) and merge in tenant order.
pub fn run_traffic(spec: &TrafficSpec, threads: Option<usize>) -> TrafficReport {
    let t0 = Instant::now();
    let template = spec.template();
    let threads = threads.unwrap_or_else(rayon::current_num_threads).max(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction is infallible");
    let mut per_tenant: Vec<TenantOutcome> = pool.install(|| {
        (0..spec.tenants)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|t| {
                run_tenant(
                    spec,
                    &template,
                    t,
                    wire_telemetry::NoopRecorder,
                    FaultPlan::new(),
                )
            })
            .collect()
    });
    // shards finish in scheduler order; everything below folds in tenant
    // order so the report bytes are thread-count independent
    per_tenant.sort_by_key(|o| o.tenant);

    let mut obs = ObsSnapshot::default();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut completed, mut units, mut events, mut restarts) = (0u64, 0u64, 0u64, 0u64);
    for o in &per_tenant {
        obs.merge(&o.obs);
        completed += o.completed_workflows;
        units += o.charging_units;
        events += o.events;
        restarts += o.restarts as u64;
        fnv1a(&mut digest, &(o.tenant as u64).to_le_bytes());
        fnv1a(&mut digest, &o.completed_workflows.to_le_bytes());
        fnv1a(&mut digest, &o.charging_units.to_le_bytes());
        fnv1a(&mut digest, &o.makespan.as_ms().to_le_bytes());
        fnv1a(&mut digest, &(o.restarts as u64).to_le_bytes());
        fnv1a(&mut digest, &o.mape_iterations.to_le_bytes());
        fnv1a(&mut digest, &o.events.to_le_bytes());
    }
    fnv1a(&mut digest, obs.to_json_string().as_bytes());

    TrafficReport {
        spec: spec.clone(),
        per_tenant,
        completed_workflows: completed,
        charging_units: units,
        events_total: events,
        restarts,
        obs,
        digest,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TrafficSpec {
        TrafficSpec {
            tenants: 3,
            per_tenant: 40,
            // keep the control interval at the default ≈150 s for this size
            ticks_per_tenant: 40 * 2_000 / 150,
            ..TrafficSpec::with_total(0)
        }
    }

    #[test]
    fn arrival_times_are_deterministic_and_nondecreasing() {
        let spec = small_spec();
        for t in 0..spec.tenants {
            let a = spec.arrival_times(t);
            let b = spec.arrival_times(t);
            assert_eq!(a, b);
            assert_eq!(a.len(), spec.per_tenant);
            assert_eq!(a[0], Millis::ZERO);
            assert!(a.windows(2).all(|w| w[0] <= w[1]));
        }
        // distinct tenants draw distinct streams
        assert_ne!(spec.arrival_times(0), spec.arrival_times(1));
    }

    #[test]
    fn thread_count_is_unobservable() {
        let spec = small_spec();
        let one = run_traffic(&spec, Some(1));
        let four = run_traffic(&spec, Some(4));
        assert_eq!(one.digest, four.digest);
        assert_eq!(one.render(), four.render());
        assert_eq!(
            one.obs.to_json_string(),
            four.obs.to_json_string(),
            "merged snapshot must be byte-identical across thread counts"
        );
        assert_eq!(
            one.completed_workflows,
            spec.total_arrivals() as u64,
            "every arrival completes"
        );
    }
}
