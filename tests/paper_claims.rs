//! Regression tests for the paper's quantitative claims (shape, not absolute
//! numbers): Figure 2 bounds, Figure 3 divergence, §III-E worked examples,
//! and the §IV-E headline ordering.

use wire::campaign::Cell;
use wire::core::experiment::Setting;
use wire::prelude::*;

/// Run one linear stage and return (cost ratio, time ratio) vs optimal, as in
/// Figures 2 and 3.
fn stage_ratios(n: usize, r: Millis, u: Millis) -> (f64, f64) {
    let interval = Millis::from_ms((r.as_ms().min(u.as_ms()) / 20).max(1_000));
    let cfg = CloudConfig::linear_analysis(u, interval);
    let (wf, prof) = wire::workloads::linear_stage(n, r);
    let res = Session::new(cfg)
        .transfer(TransferModel::none())
        .policy(WirePolicy::default())
        .seed(1)
        .submit(&wf, &prof)
        .run()
        .expect("completes");
    let cost = res.charging_units as f64 * u.as_ms() as f64 / (r.as_ms() as f64 * n as f64);
    let time = res.makespan.as_ms() as f64 / r.as_ms() as f64;
    (cost, time)
}

#[test]
fn fig2_shape_r_greater_than_u() {
    // paper: usage ratio bounded ≈1.33, time ratio bounded ≈1.67, both
    // approaching 1 as R/U grows; we allow time up to 2.1 (§I/abstract:
    // "within a factor of two of optimal")
    let u = Millis::from_secs(60);
    for n in [10usize, 100] {
        let mut prev_time = f64::INFINITY;
        for ru in [1.5, 4.0, 40.0] {
            let (cost, time) = stage_ratios(n, u.scale(ru), u);
            assert!(cost <= 1.4, "N={n} R/U={ru}: cost ratio {cost}");
            assert!(time <= 2.1, "N={n} R/U={ru}: time ratio {time}");
            assert!(
                time <= prev_time + 0.05,
                "time ratio should not grow with R/U (N={n}, R/U={ru})"
            );
            prev_time = time;
        }
        // at large R/U the policy approaches optimal on both metrics
        let (cost, time) = stage_ratios(n, u.scale(400.0), u);
        assert!(cost <= 1.05, "N={n}: asymptotic cost {cost}");
        assert!(time <= 1.1, "N={n}: asymptotic time {time}");
    }
}

#[test]
fn fig3_diverges_when_u_dominates_r() {
    // paper: for R ≤ U the policy "may deviate widely from optimal behavior
    // along either metric"
    let r = Millis::from_secs(60);
    let (cost_1, time_1) = stage_ratios(10, r, r); // U/R = 1
    let (cost_100, time_100) = stage_ratios(10, r, r.scale(100.0)); // U/R = 100
    assert!(time_1 <= 2.5, "U/R=1 time {time_1}");
    // with U ≫ R the run serializes (pool growth is never justified)
    assert!(time_100 >= 5.0, "expected wide deviation, got {time_100}");
    // and the single started unit dwarfs the work
    assert!(cost_100 > cost_1, "{cost_100} vs {cost_1}");
}

/// §III-E: P = 1, R = U − ε. The paper's idealized narrative reaches a peak
/// of N − 1 instances and a ≈2R completion; the literal Algorithm 3 packs
/// tasks of length ≈ U two-per-instance-unit (a pair keeps one instance busy
/// ≥ u), so the pool peaks near N/2 and completion lands near 3R. Cost stays
/// near the non-wasteful N units. EXPERIMENTS.md discusses the gap.
#[test]
fn section_3e_example_r_just_below_u() {
    let u = Millis::from_mins(10);
    let r = u - Millis::from_secs(30);
    let n = 10usize;
    let (cost, time) = stage_ratios(n, r, u);
    assert!(time <= 3.2, "time ratio {time} (narrative ≈2, packing ≈3)");
    assert!(cost <= 1.5, "cost ratio {cost} (expected ≈1)");
    // far better than serial execution
    assert!(time < n as f64 / 2.0);
}

/// §III-E: P = 1, R = U + ε. The last task completes around 2–3R; every
/// parallel instance pays a trailing started-but-barely-used unit (billing is
/// per started unit), so cost lands near 2× the proportional-billing optimum
/// the paper's ε-arithmetic assumes. EXPERIMENTS.md discusses the gap.
#[test]
fn section_3e_example_r_just_above_u() {
    let u = Millis::from_mins(10);
    let r = u + Millis::from_secs(30);
    let n = 10usize;
    let (cost, time) = stage_ratios(n, r, u);
    assert!(time <= 3.2, "time ratio {time}");
    assert!(cost <= 2.0, "cost ratio {cost}");
}

#[test]
fn headline_cost_gap_on_epigenomics() {
    // §IV-E: wire delivers multiple-times lower cost than full-site while
    // keeping slowdown bounded. Assert ≥ 2× cost gap and ≤ 6× slowdown on the
    // Genome S run at u = 15 min.
    let u = Millis::from_mins(15);
    let full = Cell::grid(WorkloadId::EpigenomicsS, Setting::FullSite, u, 1).run(None, None);
    let wire = Cell::grid(WorkloadId::EpigenomicsS, Setting::Wire, u, 1).run(None, None);
    let cost_gap = full.charging_units as f64 / wire.charging_units as f64;
    let slowdown = wire.makespan.as_ms() as f64 / full.makespan.as_ms() as f64;
    assert!(cost_gap >= 2.0, "cost gap {cost_gap}");
    assert!(slowdown <= 6.0, "slowdown {slowdown}");
}

#[test]
fn small_charging_units_favor_speed() {
    // §IV-E: "for small charging units WIRE prioritizes application execution
    // times over cost" — wire at u = 1 min must be faster than wire at
    // u = 60 min on a workload with real parallelism.
    let fast = Cell::grid(
        WorkloadId::EpigenomicsS,
        Setting::Wire,
        Millis::from_mins(1),
        2,
    )
    .run(None, None);
    let slow = Cell::grid(
        WorkloadId::EpigenomicsS,
        Setting::Wire,
        Millis::from_mins(60),
        2,
    )
    .run(None, None);
    assert!(
        fast.makespan <= slow.makespan,
        "u=1min {} vs u=60min {}",
        fast.makespan,
        slow.makespan
    );
    // and scales further out
    assert!(fast.peak_instances >= slow.peak_instances);
}

#[test]
fn overhead_is_small() {
    // §IV-F: controller wall time ≤ 0.49% of aggregate task time; allow 2%
    // slack for debug builds and tiny aggregates
    let (_, prof) = WorkloadId::PageRankS.generate(1);
    let r = Cell::grid(
        WorkloadId::PageRankS,
        Setting::Wire,
        Millis::from_mins(15),
        1,
    )
    .run(None, None);
    let frac = r.controller_wall.as_secs_f64() / prof.aggregate().as_secs_f64();
    assert!(frac < 0.02, "controller overhead {:.4}%", frac * 100.0);
}
