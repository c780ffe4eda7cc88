//! Property tests on the predictor's numeric foundations.

use proptest::prelude::*;
use std::collections::VecDeque;
use wire_dag::{Millis, StageId, TaskId};
use wire_predictor::ogd::TrainPoint;
use wire_predictor::{
    median_millis, CompletedTaskObs, Estimator, IntervalMedian, IntervalObservations, MedianAcc,
    OgdModel, PolicyKind, Predictor, RunningTaskObs, StageState, TaskStatus, TransferEstimator,
};

/// An interval stream: batches of 0..12 ages (so empty batches are common),
/// each age either anywhere below 2^42 ms or, on `dup` streams, one of four
/// values (heavy duplicates). The same stream drives both sides of each
/// differential below.
fn interval_stream() -> impl Strategy<Value = Vec<Vec<Millis>>> {
    (
        proptest::bool::ANY,
        proptest::collection::vec(proptest::collection::vec(0u64..1 << 42, 0..12), 1..24),
    )
        .prop_map(|(dup, batches)| {
            batches
                .into_iter()
                .map(|b| {
                    b.into_iter()
                        .map(|v| Millis::from_ms(if dup { v >> 40 } else { v }))
                        .collect()
                })
                .collect()
        })
}

/// The copy-and-select reference: [`median_millis`] over the concatenation.
fn concat_median<'a>(window: impl IntoIterator<Item = &'a Vec<Millis>>) -> Option<Millis> {
    median_millis(&window.into_iter().flatten().copied().collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn median_acc_matches_batch(values in proptest::collection::vec(0u64..10_000_000, 1..200)) {
        let mut acc = MedianAcc::new();
        for &v in &values {
            acc.push(Millis::from_ms(v));
        }
        let batch: Vec<Millis> = values.iter().map(|&v| Millis::from_ms(v)).collect();
        prop_assert_eq!(acc.median(), median_millis(&batch));
        prop_assert_eq!(acc.len(), values.len());
    }

    #[test]
    fn median_is_bounded_by_min_max(values in proptest::collection::vec(0u64..10_000_000, 1..200)) {
        let batch: Vec<Millis> = values.iter().map(|&v| Millis::from_ms(v)).collect();
        let m = median_millis(&batch).unwrap();
        prop_assert!(m >= *batch.iter().min().unwrap());
        prop_assert!(m <= *batch.iter().max().unwrap());
    }

    #[test]
    fn estimators_are_bounded_and_ordered_under_right_skew(
        base in proptest::collection::vec(1_000u64..30_000, 5..50),
        straggler in 100_000u64..10_000_000,
    ) {
        // right-skewed sample: a body plus one large straggler
        let mut v: Vec<Millis> = base.iter().map(|&b| Millis::from_ms(b)).collect();
        v.push(Millis::from_ms(straggler));
        let med = Estimator::Median.central(&v).unwrap();
        let mean = Estimator::Mean.central(&v).unwrap();
        for e in Estimator::ALL {
            let c = e.central(&v).unwrap();
            prop_assert!(c >= *v.iter().min().unwrap());
            prop_assert!(c <= *v.iter().max().unwrap());
        }
        // the paper's argument: under right skew the median is below the mean
        prop_assert!(med <= mean);
    }

    #[test]
    fn ogd_stays_finite_and_nonnegative(
        points in proptest::collection::vec((1.0e3f64..1.0e11, 0.1f64..10_000.0), 1..12),
        steps in 1usize..300,
        probe in 1.0e3f64..1.0e11,
    ) {
        let training: Vec<TrainPoint> = points
            .iter()
            .map(|&(d, t)| TrainPoint { input_bytes: d, exec_secs: t })
            .collect();
        let mut m = OgdModel::new();
        for _ in 0..steps {
            m.update(&training);
        }
        let (a0, a1) = m.coefficients();
        prop_assert!(a0.is_finite() && a1.is_finite(), "diverged: {a0}, {a1}");
        let p = m.predict_secs(probe);
        prop_assert!(p.is_finite());
        prop_assert!(p >= 0.0);
    }

    #[test]
    fn ogd_fits_exact_lines(
        intercept in 0.0f64..30.0,
        slope_per_gb in 0.0f64..60.0,
        sizes in proptest::collection::vec(0.01f64..30.0, 2..8),
    ) {
        // t = intercept + slope·(d in GB), exactly linear
        let training: Vec<TrainPoint> = sizes
            .iter()
            .map(|&gb| TrainPoint {
                input_bytes: gb * 1e9,
                exec_secs: intercept + slope_per_gb * gb,
            })
            .collect();
        let mut m = OgdModel::new();
        for _ in 0..4000 {
            m.update(&training);
        }
        for p in &training {
            let err = (m.predict_secs(p.input_bytes) - p.exec_secs).abs();
            let tol = 0.05 * p.exec_secs.max(1.0);
            prop_assert!(err <= tol, "residual {err} at d={}", p.input_bytes);
        }
    }

    #[test]
    fn sorted_run_window_median_matches_copy_and_select(
        window in 1usize..=8,
        stream in interval_stream(),
    ) {
        let mut im = IntervalMedian::new(window);
        let mut te = TransferEstimator::new(window);
        let mut kept: VecDeque<Vec<Millis>> = VecDeque::new();
        for batch in stream {
            kept.push_back(batch.clone());
            if kept.len() > window {
                kept.pop_front();
            }
            te.push_interval(&batch);
            im.push_interval(batch);
            let newest = kept.back().unwrap();
            let latest = kept.iter().rev().find(|b| !b.is_empty());
            prop_assert_eq!(im.window_median(), concat_median(&kept));
            prop_assert_eq!(im.newest_median(), median_millis(newest));
            prop_assert_eq!(im.latest_median(), latest.and_then(|b| median_millis(b)));
            prop_assert_eq!(te.estimate(), im.latest_median().unwrap_or(Millis::ZERO));
            prop_assert_eq!(im.num_observations(), kept.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn running_age_estimate_matches_copy_and_select(stream in interval_stream()) {
        let mut s = StageState::new();
        let mut kept: VecDeque<Vec<Millis>> = VecDeque::new();
        for batch in stream {
            kept.push_back(batch.clone());
            if kept.len() > wire_predictor::stage_model::RUNNING_AGE_WINDOW {
                kept.pop_front();
            }
            s.set_running(batch.iter().copied());
            // Policy 2's t̃_run: max(current median, window median), and
            // nothing while no task runs
            let expected = median_millis(&batch)
                .map(|current| current.max(concat_median(&kept).unwrap()));
            prop_assert_eq!(s.median_running_age(), expected);
            prop_assert_eq!(s.has_running(), !batch.is_empty());
        }
    }
}

/// One interval of a three-stage history: stage-2 completions as (size
/// group, exec ms), stage-1 and stage-2 running ages, transfer durations.
type Interval = (Vec<(usize, u64)>, Vec<u64>, Vec<u64>, Vec<u64>);

/// Size-group offsets, 1–12 intervals, and probe ages in ms.
fn stage_history() -> impl Strategy<Value = (Vec<u64>, Vec<Interval>, Vec<u64>)> {
    let interval = (
        proptest::collection::vec((0usize..4, 1_000u64..900_000), 0..6),
        proptest::collection::vec(0u64..900_000, 1..6),
        proptest::collection::vec(0u64..900_000, 0..6),
        proptest::collection::vec(1u64..60_000, 1..4),
    );
    (
        proptest::collection::vec(1u64..1_000, 1..5),
        proptest::collection::vec(interval, 1..12),
        proptest::collection::vec(0u64..2_000_000, 1..8),
    )
}

fn policy_number(kind: PolicyKind) -> usize {
    match kind {
        PolicyKind::NoObservation => 1,
        PolicyKind::RunningMedian => 2,
        PolicyKind::CompletedMedian => 3,
        PolicyKind::GroupMedian => 4,
        PolicyKind::OnlineGradientDescent => 5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // A running task's occupancy derived from its stage's ready-task
    // estimate (the controller's one-call-per-stage form) equals the direct
    // `predict_occupancy(.., Running { age })`, field for field. Stage 0 is
    // never observed (Policy 1), stage 1 only runs (Policy 2) and stage 2
    // completes tasks of 1–4 size groups (Policies 3–5), over 1–12 intervals
    // of OGD steps with a nonzero transfer estimate; ages fall below, at
    // and above each estimate.
    #[test]
    fn running_occupancy_from_the_ready_estimate_matches_direct(
        (groups, intervals, ages) in stage_history(),
    ) {
        // group representatives at least 4x apart: far outside the 1 %
        // grouping tolerance, so every rep is its own group
        let reps: Vec<u64> = groups
            .iter()
            .enumerate()
            .map(|(k, g)| 4u64.pow(k as u32 + 1) * 1_000_000 + g)
            .collect();
        let fresh = 3 * 1_000_000 + 17; // matches no group: Policy 5
        let mut p = Predictor::with_stage_count(3, Estimator::Median);
        let mut obs = IntervalObservations::with_stages(3);
        let mut completed_any = false;
        for (completions, running_1, running_2, transfers) in &intervals {
            obs.begin_interval();
            for &(g, exec) in completions {
                obs.per_stage[2].completed.push(CompletedTaskObs {
                    task: TaskId(0),
                    input_bytes: reps[g % reps.len()],
                    exec_time: Millis::from_ms(exec),
                });
            }
            completed_any |= !completions.is_empty();
            for (stage, running) in [(1, running_1), (2, running_2)] {
                obs.per_stage[stage].running.extend(running.iter().map(|&a| RunningTaskObs {
                    task: TaskId(0),
                    input_bytes: reps[0],
                    age: Millis::from_ms(a),
                }));
            }
            obs.transfers.extend(transfers.iter().map(|&t| Millis::from_ms(t)));
            p.observe_interval(&obs);
        }
        if !completed_any {
            // Policies 3–5 need a completion
            obs.begin_interval();
            obs.per_stage[2].completed.push(CompletedTaskObs {
                task: TaskId(0),
                input_bytes: reps[0],
                exec_time: Millis::from_secs(90),
            });
            obs.per_stage[1].running.push(RunningTaskObs {
                task: TaskId(0),
                input_bytes: reps[0],
                age: Millis::from_secs(30),
            });
            obs.transfers.push(Millis::from_secs(5));
            p.observe_interval(&obs);
        }
        let transfer = p.transfer_estimate();
        prop_assert!(transfer > Millis::ZERO);

        // Policy 3 serves only blocked tasks, never a running one
        let blocked = p.predict_occupancy(StageId(2), fresh, TaskStatus::UnstartedBlocked);
        let mut seen = [false; 5];
        seen[policy_number(blocked.policy) - 1] = true;
        for stage in (0..3).map(StageId) {
            for &bytes in reps.iter().chain([&fresh]) {
                let ready = p.predict_task(stage, bytes, TaskStatus::UnstartedReady);
                let est = ready.exec_time.as_ms();
                let probes = [0, est.saturating_sub(1), est, est + 1]
                    .into_iter()
                    .chain(ages.iter().copied());
                for age in probes.map(Millis::from_ms) {
                    let direct = p.predict_occupancy(stage, bytes, TaskStatus::Running { age });
                    prop_assert_eq!(ready.running_occupancy(age, transfer), direct);
                    seen[policy_number(direct.policy) - 1] = true;
                }
            }
        }
        prop_assert_eq!(seen, [true; 5], "policies reached");
    }
}
