//! Per-layer timing from outside the program: wrappers around the trait
//! seams the engine already exposes ([`ScalingPolicy`], [`Recorder`] and
//! [`Scheduler`]), each recording a span per call into one shared
//! [`Tracer`]. The layers never nest inside one another — the engine calls
//! each of them directly — so a span's duration is the layer's self time
//! plus the part of the wrapper that falls inside it, which [`Cost`]
//! measures on empty calls.

use std::cell::RefCell;
use std::time::Instant;

use wire_dag::{ExecProfile, StageId, TaskId};
use wire_simcloud::{
    MonitorSnapshot, PoolPlan, Recorder, ScalingPolicy, Scheduler, TelemetryEvent, WorkflowSlot,
};
use wire_telemetry::TickStats;

use crate::shadow::Shadow;

/// Calls into one layer and the nanoseconds their spans measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn absorb(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Time inside the spans minus the wrapper's calibrated share of each.
    /// Not clamped: a layer cheaper than the clock's own jitter may read
    /// slightly negative.
    pub fn self_ns(&self, in_span_ns: f64) -> f64 {
        self.ns as f64 - self.calls as f64 * in_span_ns
    }

    pub fn self_ns_per_call(&self, in_span_ns: f64) -> f64 {
        self.self_ns(in_span_ns) / self.calls.max(1) as f64
    }
}

/// The shadow controller's phase split (see [`crate::shadow`]).
#[derive(Debug, Clone, Default)]
pub struct ShadowSpans {
    /// Monitor → Analyze: snapshot translation plus `observe_interval`.
    pub observe: Span,
    /// The per-incomplete-task prediction loop, memo lookups included.
    pub predict: Span,
    /// `predict_occupancy` calls inside that loop.
    pub predict_calls: u64,
    pub lookahead: Span,
    pub steer: Span,
    /// Ticks whose shadow plan differed from the real one.
    pub mismatches: u64,
}

/// The wrapped layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Plan,
    Record,
    Tick,
    Prepare,
    Push,
    Pop,
}

/// Everything the wrappers recorded.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub plan: Span,
    /// Every plan call's raw duration in ns, for percentiles.
    pub plan_samples: Vec<u64>,
    pub record: Span,
    pub tick: Span,
    pub prepare: Span,
    pub push: Span,
    pub pop: Span,
    pub shadow: ShadowSpans,
}

impl Spans {
    fn add(&mut self, layer: Layer, ns: u64) {
        match layer {
            Layer::Plan => {
                self.plan.add(ns);
                self.plan_samples.push(ns);
            }
            Layer::Record => self.record.add(ns),
            Layer::Tick => self.tick.add(ns),
            Layer::Prepare => self.prepare.add(ns),
            Layer::Push => self.push.add(ns),
            Layer::Pop => self.pop.add(ns),
        }
    }

    /// Fold another pass's wrapper spans into these (shadow spans are
    /// collected by their own tracer and not merged).
    pub fn absorb(&mut self, other: Spans) {
        self.plan.absorb(other.plan);
        self.plan_samples.extend(other.plan_samples);
        self.record.absorb(other.record);
        self.tick.absorb(other.tick);
        self.prepare.absorb(other.prepare);
        self.push.absorb(other.push);
        self.pop.absorb(other.pop);
    }

    /// Self time of every wrapped layer, by [`Cost::in_span_ns`].
    pub fn layers_self_ns(&self, cost: &Cost) -> f64 {
        [
            self.plan,
            self.record,
            self.tick,
            self.prepare,
            self.push,
            self.pop,
        ]
        .iter()
        .map(|s| s.self_ns(cost.in_span_ns))
        .sum()
    }

    /// Wall time the wrappers themselves added, inside and outside their
    /// spans.
    pub fn wrapper_ns(&self, cost: &Cost) -> f64 {
        let others = self.record.calls
            + self.tick.calls
            + self.prepare.calls
            + self.push.calls
            + self.pop.calls;
        self.plan.calls as f64 * cost.plan_call_ns + others as f64 * cost.call_ns
    }
}

/// The shared span sink of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: RefCell<Spans>,
}

impl Tracer {
    /// Take everything recorded so far, leaving the sink empty.
    pub fn take(&self) -> Spans {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    /// Run `f` inside a span of `layer`. Every wrapper goes through here,
    /// so [`Cost::calibrate`] measures exactly what a wrapped call adds.
    #[inline(always)]
    fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().add(layer, ns);
        out
    }
}

/// What tracing adds, measured on wrapped calls that do nothing.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Of one span's measured duration: the wrapper's share inside it.
    pub in_span_ns: f64,
    /// Wall time one wrapped `record`/`tick`/scheduler call adds in all:
    /// both clock reads and the span bookkeeping.
    pub call_ns: f64,
    /// The same for `plan`, which also keeps its sample for percentiles.
    pub plan_call_ns: f64,
}

impl Cost {
    /// Median over batches of empty wrapped calls. Batching keeps digits
    /// below the clock's resolution; the median drops batches a preemption
    /// hit.
    pub fn calibrate() -> Cost {
        const BATCHES: usize = 15;
        const CALLS: u32 = 20_000;
        let per_call = |layer: Layer| {
            let mut wall = Vec::with_capacity(BATCHES);
            let mut inside = Vec::with_capacity(BATCHES);
            for _ in 0..BATCHES {
                let tracer = Tracer::default();
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    tracer.time(layer, || std::hint::black_box(()));
                }
                wall.push(t0.elapsed().as_nanos() as f64 / f64::from(CALLS));
                let s = tracer.take();
                let span = if layer == Layer::Plan {
                    s.plan
                } else {
                    s.record
                };
                inside.push(span.ns as f64 / f64::from(CALLS));
            }
            let median = |v: &[f64]| wire_core::median(v).expect("batches are non-empty");
            (median(&inside), median(&wall))
        };
        let (in_span_ns, call_ns) = per_call(Layer::Record);
        let (_, plan_call_ns) = per_call(Layer::Plan);
        Cost {
            in_span_ns,
            call_ns,
            plan_call_ns,
        }
    }
}

/// Times every `plan` call; with a shadow, also re-plans the same snapshot
/// phase by phase and counts ticks where the two plans differ.
pub struct TracedPolicy<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    shadow: Option<Shadow>,
}

impl<'t, P> TracedPolicy<'t, P> {
    pub fn new(inner: P, tracer: &'t Tracer, shadow: Option<Shadow>) -> Self {
        TracedPolicy {
            inner,
            tracer,
            shadow,
        }
    }
}

impl<P: ScalingPolicy> ScalingPolicy for TracedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        let inner = &mut self.inner;
        let plan = self.tracer.time(Layer::Plan, || inner.plan(snapshot));
        if let Some(shadow) = &mut self.shadow {
            let mut spans = self.tracer.spans.borrow_mut();
            let s = &mut spans.shadow;
            if shadow.plan(snapshot, s) != plan {
                s.mismatches += 1;
            }
        }
        plan
    }
}

/// Times every telemetry `record` and `tick` call.
pub struct TracedRecorder<'t, R> {
    inner: R,
    tracer: &'t Tracer,
}

impl<'t, R> TracedRecorder<'t, R> {
    pub fn new(inner: R, tracer: &'t Tracer) -> Self {
        TracedRecorder { inner, tracer }
    }
}

impl<R: Recorder> Recorder for TracedRecorder<'_, R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, at: wire_dag::Millis, event: TelemetryEvent) {
        let inner = &mut self.inner;
        self.tracer.time(Layer::Record, || inner.record(at, event));
    }

    fn tick(&mut self, at: wire_dag::Millis, stats: TickStats) {
        let inner = &mut self.inner;
        self.tracer.time(Layer::Tick, || inner.tick(at, stats));
    }
}

/// Times `prepare`, every push (ready and resubmit) and every `pop`. The
/// dispatch-order iterator the engine copies into each snapshot is not
/// timed: it is consumed lazily inside the engine's snapshot build.
pub struct TracedScheduler<'t, S> {
    inner: S,
    tracer: &'t Tracer,
}

impl<'t, S> TracedScheduler<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedScheduler { inner, tracer }
    }
}

impl<S: Scheduler> Scheduler for TracedScheduler<'_, S> {
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        let inner = &mut self.inner;
        self.tracer
            .time(Layer::Prepare, || inner.prepare(slot, profile));
    }

    fn push_ready(&mut self, task: TaskId, stage: StageId) {
        let inner = &mut self.inner;
        self.tracer
            .time(Layer::Push, || inner.push_ready(task, stage));
    }

    fn push_resubmit(&mut self, task: TaskId) {
        let inner = &mut self.inner;
        self.tracer.time(Layer::Push, || inner.push_resubmit(task));
    }

    fn pop(&mut self) -> Option<TaskId> {
        let inner = &mut self.inner;
        self.tracer.time(Layer::Pop, || inner.pop())
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        self.inner.iter_in_order()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_wrappers_share_per_call() {
        let mut s = Span::default();
        s.add(100);
        s.add(60);
        assert_eq!(s.calls, 2);
        assert_eq!(s.self_ns(20.0), 120.0);
        assert_eq!(s.self_ns_per_call(20.0), 60.0);
        assert_eq!(Span::default().self_ns_per_call(20.0), 0.0);
    }

    #[test]
    fn wrapper_cost_counts_plan_calls_at_their_own_price() {
        let mut s = Spans::default();
        s.add(Layer::Plan, 50);
        s.add(Layer::Push, 30);
        s.add(Layer::Pop, 30);
        assert_eq!(s.plan_samples, vec![50]);
        let cost = Cost {
            in_span_ns: 10.0,
            call_ns: 25.0,
            plan_call_ns: 40.0,
        };
        assert_eq!(s.wrapper_ns(&cost), 40.0 + 2.0 * 25.0);
        assert_eq!(s.layers_self_ns(&cost), 110.0 - 3.0 * 10.0);
        let mut all = Spans::default();
        all.absorb(s.clone());
        all.absorb(s);
        assert_eq!((all.plan.calls, all.pop.ns), (2, 60));
        assert_eq!(all.plan_samples, vec![50, 50]);
    }

    #[test]
    fn calibrated_cost_is_positive_sub_microsecond_and_ordered() {
        let c = Cost::calibrate();
        assert!(c.in_span_ns > 0.0 && c.in_span_ns < 1_000.0, "{c:?}");
        // a wrapped call costs at least the clock read inside its span
        assert!(c.call_ns >= c.in_span_ns && c.call_ns < 2_000.0, "{c:?}");
        assert!(c.plan_call_ns > 0.0 && c.plan_call_ns < 2_000.0, "{c:?}");
    }
}
