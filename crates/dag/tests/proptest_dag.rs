//! Property tests on the DAG foundation: any layered random DAG the builder
//! accepts satisfies the structural invariants the rest of the workspace
//! relies on.

use proptest::prelude::*;
use wire_dag::{
    critical_path_ms, total_work_ms, width_profile, ExecProfile, Millis, TaskId, Workflow,
    WorkflowBuilder,
};

/// Strategy: a layered DAG of 1–6 layers, 1–8 tasks each, random edges only
/// from earlier layers to later ones (guaranteed acyclic), plus per-task exec
/// times.
fn arb_layered_dag() -> impl Strategy<Value = (Workflow, ExecProfile)> {
    let layer = proptest::collection::vec(1u64..=120_000, 1..=8);
    (
        proptest::collection::vec(layer, 1..=6),
        proptest::collection::vec(0u64..=u64::MAX, 0..=64),
    )
        .prop_map(|(layers, edge_picks)| {
            let mut b = WorkflowBuilder::new("prop");
            let mut by_layer: Vec<Vec<TaskId>> = Vec::new();
            let mut exec = Vec::new();
            for (li, layer) in layers.iter().enumerate() {
                let s = b.add_stage(format!("L{li}"));
                let mut ids = Vec::new();
                for &ms in layer {
                    ids.push(b.add_task(s, ms, ms / 2));
                    exec.push(Millis::from_ms(ms));
                }
                by_layer.push(ids);
            }
            // random forward edges decoded from the u64 picks
            for pick in edge_picks {
                if by_layer.len() < 2 {
                    break;
                }
                let to_layer = 1 + (pick % (by_layer.len() as u64 - 1).max(1)) as usize;
                let from_layer = (pick >> 8) as usize % to_layer;
                let from = by_layer[from_layer][(pick >> 16) as usize % by_layer[from_layer].len()];
                let to = by_layer[to_layer][(pick >> 32) as usize % by_layer[to_layer].len()];
                let _ = b.add_dep(from, to); // duplicates rejected, fine
            }
            let wf = b.build().expect("layered DAG is acyclic");
            let prof = ExecProfile::new(exec);
            (wf, prof)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_order_is_a_valid_linearization((wf, _p) in arb_layered_dag()) {
        let mut pos = vec![usize::MAX; wf.num_tasks()];
        for (i, &t) in wf.topo_order().iter().enumerate() {
            pos[t.index()] = i;
        }
        // every task appears exactly once
        prop_assert!(pos.iter().all(|&p| p != usize::MAX));
        for t in wf.task_ids() {
            for &pred in wf.preds(t) {
                prop_assert!(pos[pred.index()] < pos[t.index()]);
            }
        }
    }

    #[test]
    fn width_profile_partitions_all_tasks((wf, _p) in arb_layered_dag()) {
        let wp = width_profile(&wf);
        prop_assert_eq!(wp.counts.iter().sum::<usize>(), wf.num_tasks());
        prop_assert!(wp.max_width() <= wf.num_tasks());
        prop_assert!(wp.depth() >= 1);
    }

    #[test]
    fn critical_path_between_max_task_and_total((wf, p) in arb_layered_dag()) {
        let cp = critical_path_ms(&wf, &p);
        let longest_task = p.exec_times().iter().copied().max().unwrap();
        prop_assert!(cp >= longest_task);
        prop_assert!(cp <= total_work_ms(&wf, &p));
    }

    #[test]
    fn preds_and_succs_are_mirror_images((wf, _p) in arb_layered_dag()) {
        for t in wf.task_ids() {
            for &pred in wf.preds(t) {
                prop_assert!(wf.succs(pred).contains(&t));
            }
            for &succ in wf.succs(t) {
                prop_assert!(wf.preds(succ).contains(&t));
            }
        }
    }

    #[test]
    fn roots_and_sinks_are_consistent((wf, _p) in arb_layered_dag()) {
        prop_assert!(wf.roots().count() >= 1);
        prop_assert!(wf.sinks().count() >= 1);
        for r in wf.roots() {
            prop_assert!(wf.preds(r).is_empty());
        }
        for s in wf.sinks() {
            prop_assert!(wf.succs(s).is_empty());
        }
    }
}

/// Durations up to 2^53 ms, the range in which every `u64` converts to
/// `f64` exactly; the end points are drawn on their own.
fn arb_exact_ms() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..=1 << 53).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => 1 << 53,
        _ => x,
    })
}

/// Non-negative factors other than 1.0, its two neighbours drawn on their
/// own.
fn arb_factor() -> impl Strategy<Value = f64> {
    let one = 1.0f64.to_bits();
    (0u64..4, 0.0f64..8.0).prop_map(move |(pick, f)| match pick {
        0 => f64::from_bits(one - 1),
        1 => f64::from_bits(one + 1),
        _ if f == 1.0 => 0.5,
        _ => f,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // `scale(1.0)` skips the float round-trip; the round-trip would have
    // returned the same duration
    #[test]
    fn scaling_by_one_is_the_identity(x in arb_exact_ms()) {
        prop_assert_eq!(Millis::from_ms(x).scale(1.0), Millis::from_ms(x));
        prop_assert_eq!(((x as f64) * 1.0).round() as u64, x);
    }

    // every other factor takes the float path: multiply, round to nearest
    #[test]
    fn scaling_rounds_to_the_nearest_ms(x in arb_exact_ms(), f in arb_factor()) {
        let expected = ((x as f64) * f).round() as u64;
        prop_assert_eq!(Millis::from_ms(x).scale(f), Millis::from_ms(expected));
    }
}
