//! One workload's run: set-up, timed passes, correctness checks, and the
//! metrics derived from them.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! rounds of an untraced pass (the overhead baseline), a pass with every
//! layer wrapped and, on workloads that run `WirePolicy`, a pass with the
//! shadow controller, so slow drift in the host's speed hits every kind of
//! pass alike. It reports the per-layer metrics.

use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::trace::{Cost, Spans, Tracer};
use crate::workloads::{Expected, Inputs, Instr, Pass, Scale, Workload};
use wire_bench::peak_rss_bytes;
use wire_core::{median, quantile};

/// The end-to-end metrics, with tracing off: (name, unit, regression
/// bound as a share of the parent's median).
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("events_per_s", "1/s", 0.25),
    ("workflows_per_s", "1/s", 0.25),
    ("rss_peak_mb", "MB", 0.15),
];

/// The per-layer metrics every workload reports from its traced run:
/// (name, unit). Workload-specific layers (the shadow controller's phase
/// split, the prediction memo, the campaign pool and cache) are printed and
/// written to the results file, but are not part of this common set.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("planner.tick_mean_us", "us"),
    ("planner.plan.calls", "count"),
    ("planner.plan.ns_per_call", "ns"),
    ("planner.plan.p50_ns", "ns"),
    ("planner.plan.p99_ns", "ns"),
    ("planner.plan.share", "fraction"),
    ("simcloud.scheduler.prepare.ns_per_workflow", "ns"),
    ("simcloud.scheduler.push.calls", "count"),
    ("simcloud.scheduler.push.ns_per_call", "ns"),
    ("simcloud.scheduler.pop.calls", "count"),
    ("simcloud.scheduler.pop.ns_per_call", "ns"),
    ("simcloud.scheduler.share", "fraction"),
    ("obs.record.calls", "count"),
    ("obs.record.ns_per_call", "ns"),
    ("obs.tick.ns_per_call", "ns"),
    ("obs.share", "fraction"),
    ("simcloud.engine.self_share", "fraction"),
    ("simcloud.engine.self_ns_per_event", "ns"),
    ("workloads.generate.ms", "ms"),
    ("trace.call_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_gap", "fraction"),
];

/// `setup_s` samples taken before each of the first [`MIN_PASSES`] passes
/// (one before every later pass): a set-up of 100 ms or more is one set-up
/// per sample, and single set-ups in one run scatter by ±30%.
const SETUP_SAMPLES_PER_PASS: usize = 5;

/// Each set-up sample repeats the set-up until this much time is spent in
/// it and reports the mean, so a set-up of microseconds is measured over
/// thousands of repetitions rather than once.
const SETUP_BATCH: Duration = Duration::from_millis(25);

/// Fewest untraced passes behind a median.
const MIN_PASSES: usize = 3;

pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metrics on the result line: the end-to-end set untraced, the
    /// common per-layer set traced.
    pub fn headline(&self, trace: bool) -> Vec<Metric> {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        names
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name).cloned())
            .collect()
    }
}

/// Operations attempted and failed. An operation is one workflow run in a
/// pass, or one check; a pass that errors, loses tasks or reproduces the
/// wrong digest fails all of its workflows.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn pass(
        &mut self,
        expected: Expected,
        result: Result<Pass, String>,
        digest: &mut Option<u64>,
    ) -> Option<Pass> {
        self.attempted += expected.workflows;
        let failure = match &result {
            Err(e) => Some(e.clone()),
            Ok(p) if p.workflows != expected.workflows => Some(format!(
                "pass completed {} of {} workflows",
                p.workflows, expected.workflows
            )),
            Ok(p) if p.tasks != expected.tasks => Some(format!(
                "pass completed {} of {} tasks",
                p.tasks, expected.tasks
            )),
            Ok(p) => match *digest {
                Some(d) if d != p.digest => Some(format!(
                    "pass digest {:016x} != expected {d:016x}",
                    p.digest
                )),
                _ => {
                    *digest = Some(p.digest);
                    None
                }
            },
        };
        match failure {
            Some(e) => {
                self.failed += expected.workflows;
                self.errors.push(e);
                None
            }
            None => result.ok(),
        }
    }

    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    fn outcome(self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            metrics,
            attempted: self.attempted.max(1),
            failed: self.failed,
            errors: self.errors,
        }
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// One `setup_s` sample: set the workload up again and again, replacing
/// `inputs`, until [`SETUP_BATCH`] is spent in it; the mean in seconds.
/// Freeing the previous inputs is not timed.
fn set_up(spec: &RunSpec, inputs: &mut Option<Inputs>) -> f64 {
    let (mut spent, mut reps) = (Duration::ZERO, 0u32);
    while reps == 0 || spent < SETUP_BATCH {
        // free the previous set-up first, so peak memory holds one copy
        drop(inputs.take());
        let t0 = Instant::now();
        *inputs = Some(Inputs::setup(spec.workload, spec.seed, spec.scale));
        spent += t0.elapsed();
        reps += 1;
    }
    spent.as_secs_f64() / f64::from(reps)
}

pub fn run(spec: &RunSpec) -> Outcome {
    let mut ledger = Ledger::default();
    let budget = Duration::from_secs_f64(spec.seconds);
    let mut inputs = None;
    let mut setup_s = vec![set_up(spec, &mut inputs)];
    let mut digest = spec.workload.pinned_digest(spec.seed, spec.scale);

    let metrics = if spec.trace {
        let inputs = inputs.expect("set up above");
        traced_run(&inputs, budget, &mut ledger, &mut digest)
    } else {
        // peak memory after the guaranteed passes: each campaign pass's
        // fresh pool threads can raise the high-water mark through
        // allocator fragmentation, so sampling at a fixed pass count keeps
        // it independent of how many passes the budget allowed
        let mut rss = f64::NAN;
        let mut done = Vec::new();
        let t0 = Instant::now();
        for attempt in 1.. {
            let p0 = Instant::now();
            // the host's speed drifts over seconds to minutes: set-up samples
            // taken between the passes meet the same host the passes do
            let samples = SETUP_SAMPLES_PER_PASS * attempt.min(MIN_PASSES)
                + attempt.saturating_sub(MIN_PASSES);
            while setup_s.len() < samples {
                setup_s.push(set_up(spec, &mut inputs));
            }
            let current = inputs.as_ref().expect("set up above");
            done.extend(ledger.pass(current.expected(false), current.pass(), &mut digest));
            if attempt == MIN_PASSES {
                rss = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64);
            }
            // stop when one more pass like this one would overrun the budget
            if attempt >= MIN_PASSES && t0.elapsed() + p0.elapsed() > budget {
                break;
            }
        }
        let inputs = inputs.expect("set up above");
        let walls: Vec<String> = done
            .iter()
            .map(|p| format!("{:.4}", p.wall.as_secs_f64()))
            .collect();
        eprintln!(
            "wirebench: {}: {} passes, wall s [{}]",
            spec.workload.name(),
            done.len(),
            walls.join(" ")
        );
        if let Some(first) = done.first() {
            ledger.check(inputs.cross_check(first));
        }
        end_to_end(&setup_s, &done, rss)
    };
    ledger.outcome(metrics)
}

fn end_to_end(setup_s: &[f64], done: &[Pass], rss_mb: f64) -> Vec<Metric> {
    if done.is_empty() {
        return Vec::new();
    }
    let secs = |p: &Pass| p.wall.as_secs_f64();
    vec![
        Metric::new("setup_s", median(setup_s).unwrap_or(f64::NAN), "s"),
        Metric::new("wall_s", median_of(done, secs), "s"),
        Metric::new(
            "events_per_s",
            median_of(done, |p| p.events as f64 / secs(p)),
            "1/s",
        ),
        Metric::new(
            "workflows_per_s",
            median_of(done, |p| p.workflows as f64 / secs(p)),
            "1/s",
        ),
        Metric::new("rss_peak_mb", rss_mb, "MB"),
    ]
}

/// One traced round's untraced and layer-wrapped passes, and the spans
/// the wrapped one recorded.
struct Round {
    untraced: Pass,
    traced: Pass,
    spans: Spans,
}

impl Round {
    /// The wrapped pass's wall time less what the wrappers added: the time
    /// the layers and the engine between them took.
    fn attributed_ns(&self, cost: &Cost) -> f64 {
        self.traced.wall.as_nanos() as f64 - self.spans.wrapper_ns(cost)
    }
}

fn traced_run(
    inputs: &Inputs,
    budget: Duration,
    ledger: &mut Ledger,
    digest: &mut Option<u64>,
) -> Vec<Metric> {
    let cost = Cost::calibrate();
    let expected = inputs.expected(true);
    // the campaign's traced unit is a sequential sample with its own digest
    let mut sample_digest = None;
    let traced_digest = if inputs.workload() == Workload::Campaign {
        &mut sample_digest
    } else {
        &mut *digest
    };

    let layers = Tracer::default();
    let shadow = Tracer::default();
    let mut rounds = Vec::new();
    let mut shadowed = 0usize;
    let t0 = Instant::now();
    loop {
        let r0 = Instant::now();
        let untraced = ledger.pass(expected, inputs.traced_pass(Instr::Off), traced_digest);
        let traced = ledger.pass(
            expected,
            inputs.traced_pass(Instr::Layers(&layers)),
            traced_digest,
        );
        let spans = layers.take();
        if let (Some(untraced), Some(traced)) = (untraced, traced) {
            rounds.push(Round {
                untraced,
                traced,
                spans,
            });
        }
        if inputs.runs_wire() {
            let pass = inputs.traced_pass(Instr::Shadow(&shadow));
            shadowed += ledger.pass(expected, pass, traced_digest).is_some() as usize;
        }
        // stop when one more round like this one would overrun the budget
        if t0.elapsed() + r0.elapsed() > budget {
            break;
        }
    }
    let mut metrics = layer_metrics(&cost, &rounds);

    if inputs.runs_wire() {
        let spans = shadow.take();
        let ticks = spans.plan.calls;
        ledger.check(match spans.shadow.mismatches {
            0 if ticks > 0 => Ok(()),
            0 => Err("shadow controller saw no wire ticks".into()),
            m => Err(format!(
                "shadow plan differed from the real plan on {m}/{ticks} ticks"
            )),
        });
        metrics.extend(shadow_metrics(&cost, &spans, shadowed));
        let (hits, lookups) = rounds.first().map_or((0, 0), |r| r.untraced.memo);
        if lookups > 0 {
            metrics.push(Metric::new(
                "planner.memo_hit_rate",
                hits as f64 / lookups as f64,
                "fraction",
            ));
        }
    }

    metrics.push(Metric::new(
        "workloads.generate.ms",
        inputs.generate_ms(),
        "ms",
    ));

    // the campaign's own layers come from one pass through its pool; every
    // workload is cross-checked against an independent path
    let reference = if inputs.workload() == Workload::Campaign {
        let pass = ledger.pass(inputs.expected(false), inputs.pass(), digest);
        if let Some(p) = &pass {
            match inputs.extras(p) {
                Ok(m) => metrics.extend(m),
                Err(e) => ledger.check(Err(e)),
            }
        }
        pass
    } else {
        rounds.into_iter().next().map(|r| r.untraced)
    };
    if let Some(r) = &reference {
        ledger.check(inputs.cross_check(r));
    }
    metrics
}

fn layer_metrics(cost: &Cost, rounds: &[Round]) -> Vec<Metric> {
    if rounds.is_empty() {
        return Vec::new();
    }
    let t = cost.in_span_ns;
    let n = rounds.len() as f64;
    let mut s = Spans::default();
    for r in rounds {
        s.absorb(r.spans.clone());
    }
    let attributed: f64 = rounds.iter().map(|r| r.attributed_ns(cost)).sum();
    let plan = s.plan.self_ns(t);
    let sched = s.prepare.self_ns(t) + s.push.self_ns(t) + s.pop.self_ns(t);
    let obs = s.record.self_ns(t) + s.tick.self_ns(t);
    let engine = attributed - s.layers_self_ns(cost);
    let events: u64 = rounds.iter().map(|r| r.traced.events).sum();
    let samples: Vec<f64> = s.plan_samples.iter().map(|&ns| ns as f64).collect();
    let plan_pct = |q: f64| quantile(&samples, q).map_or(f64::NAN, |v| v - t);
    let (p50, p99) = (plan_pct(0.50), plan_pct(0.99));
    // each round's wrapped pass against the untraced pass run beside it
    let untraced_ns = |r: &Round| r.untraced.wall.as_nanos() as f64;
    let overhead = median_of(rounds, |r| {
        r.traced.wall.as_nanos() as f64 / untraced_ns(r) - 1.0
    });
    let coverage = median_of(rounds, |r| r.attributed_ns(cost) / untraced_ns(r));
    vec![
        // the engine's own clock around `plan`, untraced
        Metric::new(
            "planner.tick_mean_us",
            median_of(rounds, |r| {
                r.untraced.controller.as_secs_f64() * 1e6 / r.untraced.ticks.max(1) as f64
            }),
            "us",
        ),
        Metric::new("planner.plan.calls", s.plan.calls as f64 / n, "count"),
        Metric::new("planner.plan.ns_per_call", s.plan.self_ns_per_call(t), "ns"),
        Metric::new("planner.plan.p50_ns", p50, "ns"),
        Metric::new("planner.plan.p99_ns", p99, "ns"),
        Metric::new("planner.plan.share", plan / attributed, "fraction"),
        Metric::new(
            "simcloud.scheduler.prepare.ns_per_workflow",
            s.prepare.self_ns_per_call(t),
            "ns",
        ),
        Metric::new(
            "simcloud.scheduler.push.calls",
            s.push.calls as f64 / n,
            "count",
        ),
        Metric::new(
            "simcloud.scheduler.push.ns_per_call",
            s.push.self_ns_per_call(t),
            "ns",
        ),
        Metric::new(
            "simcloud.scheduler.pop.calls",
            s.pop.calls as f64 / n,
            "count",
        ),
        Metric::new(
            "simcloud.scheduler.pop.ns_per_call",
            s.pop.self_ns_per_call(t),
            "ns",
        ),
        Metric::new("simcloud.scheduler.share", sched / attributed, "fraction"),
        Metric::new("obs.record.calls", s.record.calls as f64 / n, "count"),
        Metric::new("obs.record.ns_per_call", s.record.self_ns_per_call(t), "ns"),
        Metric::new("obs.tick.ns_per_call", s.tick.self_ns_per_call(t), "ns"),
        Metric::new("obs.share", obs / attributed, "fraction"),
        Metric::new(
            "simcloud.engine.self_share",
            engine / attributed,
            "fraction",
        ),
        Metric::new(
            "simcloud.engine.self_ns_per_event",
            engine / events.max(1) as f64,
            "ns",
        ),
        Metric::new("trace.call_ns", cost.call_ns, "ns"),
        Metric::new("trace.overhead_frac", overhead, "fraction"),
        // 0 when the calibrated wrapper cost explains the whole slowdown of
        // the wrapped pass, so the layer times describe the untraced program
        Metric::new("trace.coverage_gap", (coverage - 1.0).abs(), "fraction"),
    ]
}

fn shadow_metrics(cost: &Cost, s: &Spans, passes: usize) -> Vec<Metric> {
    let t = cost.in_span_ns;
    let plan = s.plan.self_ns(t);
    let sh = &s.shadow;
    let mut out = vec![Metric::new(
        "predictor.predict.calls",
        sh.predict_calls as f64 / passes.max(1) as f64,
        "count",
    )];
    for (name, span) in [
        ("predictor.observe", sh.observe),
        ("predictor.predict", sh.predict),
        ("planner.lookahead", sh.lookahead),
        ("planner.steer", sh.steer),
    ] {
        out.push(Metric::new(
            format!("{name}.ns_per_tick"),
            span.self_ns_per_call(t),
            "ns",
        ));
        out.push(Metric::new(
            format!("{name}.share_of_plan"),
            span.self_ns(t) / plan,
            "fraction",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_telemetry::json::{self, Json};

    /// The metrics here and in the repository's `BENCHMARK.json` must
    /// agree, or a harness reading that file would look for metrics this
    /// program never prints, or judge them by other bounds than
    /// `calibrate` reports against.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        let section = |key: &str| -> Vec<(String, String, Option<f64>)> {
            let entries = bench.get(key).and_then(Json::as_arr).expect("section");
            entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (
                        field("name"),
                        field("unit"),
                        e.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), Some(*b)))
            .collect();
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string(), None))
            .collect();
        assert_eq!(section("end_to_end"), end_to_end);
        assert_eq!(section("per_layer"), per_layer);
    }

    #[test]
    fn ledger_fails_a_whole_pass_on_a_digest_or_task_mismatch() {
        let mut l = Ledger::default();
        let mut digest = None;
        let expected = Expected {
            workflows: 4,
            tasks: 32,
        };
        let pass = |d, tasks| {
            Ok(Pass {
                workflows: 4,
                tasks,
                digest: d,
                ..Pass::default()
            })
        };
        assert!(l.pass(expected, pass(1, 32), &mut digest).is_some());
        assert_eq!(digest, Some(1));
        assert!(l.pass(expected, pass(2, 32), &mut digest).is_none());
        assert!(l.pass(expected, pass(1, 31), &mut digest).is_none());
        assert!(l.pass(expected, Err("boom".into()), &mut digest).is_none());
        l.check(Ok(()));
        assert_eq!((l.attempted, l.failed, l.errors.len()), (17, 12, 3));
    }
}
