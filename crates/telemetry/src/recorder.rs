//! The [`Recorder`] hook the simulator calls at every event and MAPE tick,
//! the [`Tee`] combinator, and the shared in-memory sink
//! ([`TelemetryHandle`]) that keeps the raw event stream and the WIRE
//! controller's decision journal.
//!
//! The engine is generic over `R: Recorder` with [`NoopRecorder`] as the
//! default, and every call site is guarded by `recorder.enabled()`. For the
//! no-op recorder that guard is a constant `false`, so the whole telemetry
//! path monomorphizes to dead code — recording costs nothing unless a real
//! recorder is attached.

use crate::decision::DecisionRecord;
use crate::event::TelemetryEvent;
use std::sync::{Arc, Mutex};
use wire_dag::Millis;

/// Per-tick data only the engine knows (not derivable from the event stream).
#[derive(Debug, Clone, Copy, Default)]
pub struct TickStats {
    /// Wall-clock microseconds spent in Analyze+Plan this tick.
    pub controller_micros: u64,
    /// Pending entries in the simulator's event queue when the tick fired
    /// (virtual-time state, so deterministic across runs).
    pub queue_depth: u32,
}

/// Sink for simulator telemetry. Implementations must be cheap to call;
/// heavyweight work belongs in the exporters, after the run.
pub trait Recorder {
    /// Whether recording is active. Call sites guard event construction with
    /// this so a disabled recorder costs nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// One simulator event at simulated time `at`.
    fn record(&mut self, at: Millis, event: TelemetryEvent);

    /// One MAPE iteration finished planning; called right after the
    /// corresponding [`TelemetryEvent::MapeTick`] is recorded.
    fn tick(&mut self, at: Millis, stats: TickStats);
}

/// The zero-cost default recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _at: Millis, _event: TelemetryEvent) {}

    #[inline(always)]
    fn tick(&mut self, _at: Millis, _stats: TickStats) {}
}

/// Everything captured during one run: the raw material of the exporters
/// and the golden digests. Aggregates are `wire-obs`'s job.
#[derive(Debug, Default)]
pub struct TelemetryBuffer {
    /// The raw timestamped event stream, in emission order.
    pub events: Vec<(Millis, TelemetryEvent)>,
    /// The MAPE decision journal (written by the controller).
    pub decisions: Vec<DecisionRecord>,
}

impl TelemetryBuffer {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Cloneable handle to a shared [`TelemetryBuffer`]. One clone goes into the
/// engine (as its [`Recorder`]); another into the WIRE controller, which
/// journals its decisions directly.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle(Arc<Mutex<TelemetryBuffer>>);

impl TelemetryHandle {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryBuffer> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journal one Plan-step decision (controller side).
    pub fn push_decision(&self, record: DecisionRecord) {
        self.lock().decisions.push(record);
    }

    /// Read access to the buffer (exporters, assertions).
    pub fn with<R>(&self, f: impl FnOnce(&TelemetryBuffer) -> R) -> R {
        f(&self.lock())
    }

    /// Drain the buffer, leaving an empty one behind. Exporters typically
    /// call this once after the run.
    pub fn take(&self) -> TelemetryBuffer {
        std::mem::take(&mut *self.lock())
    }
}

impl Recorder for TelemetryHandle {
    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        self.lock().events.push((at, event));
    }

    /// The tick itself is already in the stream as a
    /// [`TelemetryEvent::MapeTick`]; its wall-clock stats are `wire-obs`'s.
    fn tick(&mut self, _at: Millis, _stats: TickStats) {}
}

/// `&mut R` forwards, so the engine can borrow a recorder it doesn't own.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        (**self).record(at, event)
    }

    fn tick(&mut self, at: Millis, stats: TickStats) {
        (**self).tick(at, stats)
    }
}

/// An optional recorder: `None` is disabled, so a run that carries a
/// recorder only sometimes keeps one static type, e.g.
/// `Tee(journal, Tee(checker, obs))` over three `Option`s.
impl<R: Recorder> Recorder for Option<R> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(R::enabled)
    }

    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        if let Some(r) = self {
            r.record(at, event)
        }
    }

    fn tick(&mut self, at: Millis, stats: TickStats) {
        if let Some(r) = self {
            r.tick(at, stats)
        }
    }
}

/// Fan one event stream out to two recorders (the raw buffer and a
/// streaming recorder, say). Nest it for more: `Tee(a, Tee(b, c))`.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        if self.0.enabled() {
            self.0.record(at, event);
        }
        if self.1.enabled() {
            self.1.record(at, event);
        }
    }

    fn tick(&mut self, at: Millis, stats: TickStats) {
        if self.0.enabled() {
            self.0.tick(at, stats);
        }
        if self.1.enabled() {
            self.1.tick(at, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        r.tick(Millis::ZERO, TickStats::default());
    }

    #[test]
    fn buffer_keeps_the_event_stream_in_order() {
        let mut h = TelemetryHandle::new();
        assert!(Recorder::enabled(&h));
        h.record(
            Millis::ZERO,
            TelemetryEvent::InstanceRequested { instance: 0 },
        );
        h.record(
            Millis::from_mins(1),
            TelemetryEvent::InstanceReady { instance: 0 },
        );
        h.tick(Millis::from_mins(1), TickStats::default());
        h.with(|b| {
            assert_eq!(
                b.events,
                vec![
                    (
                        Millis::ZERO,
                        TelemetryEvent::InstanceRequested { instance: 0 }
                    ),
                    (
                        Millis::from_mins(1),
                        TelemetryEvent::InstanceReady { instance: 0 }
                    ),
                ]
            );
        });
        let taken = h.take();
        assert_eq!(taken.events.len(), 2);
        h.with(|b| assert!(b.events.is_empty()));
    }

    #[test]
    fn tee_feeds_both_recorders_and_skips_disabled_ones() {
        let (a, b) = (TelemetryHandle::new(), TelemetryHandle::new());
        let mut tee = Tee(a.clone(), b.clone());
        assert!(tee.enabled());
        tee.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        tee.tick(Millis::ZERO, TickStats::default());
        assert_eq!(a.take().events.len(), 1);
        assert_eq!(b.take().events.len(), 1);
        assert!(!Tee(NoopRecorder, NoopRecorder).enabled());
        let mut half = Tee(NoopRecorder, a.clone());
        assert!(half.enabled());
        half.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        assert_eq!(a.take().events.len(), 1);
    }

    #[test]
    fn none_recorder_is_disabled() {
        let mut none: Option<TelemetryHandle> = None;
        assert!(!none.enabled());
        none.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        none.tick(Millis::ZERO, TickStats::default());
        assert!(!Some(NoopRecorder).enabled());
        assert!(Some(TelemetryHandle::new()).enabled());
    }

    #[test]
    fn tee_with_a_none_member_forwards_only_to_the_other() {
        let a = TelemetryHandle::new();
        let mut tee = Tee(None::<TelemetryHandle>, Some(a.clone()));
        assert!(tee.enabled());
        tee.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        tee.tick(Millis::ZERO, TickStats::default());
        assert_eq!(
            a.take().events,
            vec![(Millis::ZERO, TelemetryEvent::RunSetupDone)]
        );
        assert!(!Tee(None::<TelemetryHandle>, None::<TelemetryHandle>).enabled());
    }

    #[test]
    fn shared_handle_sees_both_writers() {
        let h = TelemetryHandle::new();
        let mut engine_side = h.clone();
        engine_side.record(Millis::ZERO, TelemetryEvent::RunSetupDone);
        h.push_decision(crate::decision::DecisionRecord {
            at: Millis::ZERO,
            m: 1,
            p: 1,
            u: Millis::from_mins(60),
            t: Millis::from_mins(5),
            waste_threshold: Millis::from_mins(12),
            q_len: 0,
            q_total: Millis::ZERO,
            q_head: vec![],
            budget: None,
            action: crate::decision::DecisionAction::HoldEmptyQueue,
            judgements: vec![],
        });
        h.with(|b| {
            assert_eq!(b.events.len(), 1);
            assert_eq!(b.decisions.len(), 1);
        });
    }
}
