//! Scheduler-seam suites: the FIFO impl behind the [`Scheduler`] trait must
//! be operation-for-operation indistinguishable from the legacy
//! [`ReadyQueue`]; every [`SchedulerSpec`] must survive a kill storm with
//! exactly-once completion and a conserved bill; and the schedulers campaign
//! figure is golden-pinned, with the portfolio beating plain FIFO on a
//! Table I workload.

use proptest::prelude::*;
use wire::core::experiment::{cloud_config_for, Setting};
use wire::prelude::*;
use wire::simcloud::InstanceId;
use wire_campaign::{
    run_campaign, CacheMode, CampaignConfig, Cell, CellWorkload, PolicyKind, TransferKind,
};
use wire_chaos::{FaultPlan, InvariantChecker};

// ---- differential: trait-dispatched FIFO vs the legacy queue ---------------

/// One raw queue operation; interpreted identically on both sides.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ready,
    Resubmit,
    Pop,
}

/// Drive a scheduler through the *trait* (dynamic contract), so the test
/// exercises exactly the surface the engine uses — not inherent methods.
fn drive<S: Scheduler>(s: &mut S, ops: &[(Op, TaskId, StageId)]) -> Vec<Option<TaskId>> {
    let mut pops = Vec::new();
    for &(op, task, stage) in ops {
        match op {
            Op::Ready => s.push_ready(task, stage),
            Op::Resubmit => s.push_resubmit(task),
            Op::Pop => pops.push(s.pop()),
        }
    }
    pops
}

// `SchedulerSpec::Fifo` built through the trait must reproduce the legacy
// two-class queue event-for-event: identical pop sequence, identical residual
// dispatch order, identical length — for both the boosted (`first-five`) and
// plain variants, over arbitrary ready/resubmit/pop interleavings.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fifo_behind_the_trait_is_event_identical_to_the_legacy_queue(
        raw in proptest::collection::vec((0u8..=2, 0u32..64, 0u32..8), 0..160),
        n in 1usize..64,
        stages in 1usize..8,
        first_five in proptest::bool::ANY,
    ) {
        let ops: Vec<(Op, TaskId, StageId)> = raw
            .iter()
            .map(|&(k, t, s)| {
                let op = match k {
                    0 => Op::Ready,
                    1 => Op::Resubmit,
                    _ => Op::Pop,
                };
                (op, TaskId(t % n as u32), StageId(s % stages as u32))
            })
            .collect();

        let mut legacy = ReadyQueue::with_sizes(n, stages, first_five);
        let spec = SchedulerSpec::Fifo { first_five };
        let mut seam = spec.build(n, stages, &CloudConfig::default());

        let pops_legacy = drive(&mut legacy, &ops);
        let pops_seam = drive(&mut seam, &ops);
        prop_assert_eq!(&pops_legacy, &pops_seam, "pop sequences diverged");

        let order_legacy: Vec<TaskId> = Scheduler::iter_in_order(&legacy).collect();
        let order_seam: Vec<TaskId> = seam.iter_in_order().collect();
        prop_assert_eq!(order_legacy, order_seam, "residual dispatch order diverged");
        prop_assert_eq!(Scheduler::len(&legacy), seam.len());
        prop_assert_eq!(Scheduler::is_empty(&legacy), seam.is_empty());
    }
}

// ---- differential: ordered-set rank queue vs the historical heap ----------

/// Arrival sequence base of the rank queue: resubmissions count down from it.
const SEQ_BASE: u64 = 1 << 32;

/// The rank queue as it was before it became an ordered set, kept as the
/// oracle: a max-heap of `(key, older-first, task id)` whose dispatch-order
/// walk copies and sorts the whole heap.
struct HeapRankOracle {
    key: Vec<u64>,
    heap: std::collections::BinaryHeap<OracleEntry>,
    next_seq: u64,
    next_resubmit: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OracleEntry {
    key: u64,
    seq: u64,
    task: TaskId,
}

impl Ord for OracleEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for OracleEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl HeapRankOracle {
    fn new(key: Vec<u64>) -> Self {
        HeapRankOracle {
            key,
            heap: std::collections::BinaryHeap::new(),
            next_seq: SEQ_BASE,
            next_resubmit: SEQ_BASE,
        }
    }
}

impl Scheduler for HeapRankOracle {
    fn push_ready(&mut self, task: TaskId, _stage: StageId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.key[task.index()];
        self.heap.push(OracleEntry { key, seq, task });
    }

    fn push_resubmit(&mut self, task: TaskId) {
        self.next_resubmit -= 1;
        let key = self.key[task.index()];
        let seq = self.next_resubmit;
        self.heap.push(OracleEntry { key, seq, task });
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.heap.pop().map(|e| e.task)
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        let mut entries: Vec<OracleEntry> = self.heap.iter().copied().collect();
        entries.sort_by(|a, b| b.cmp(a));
        Box::new(entries.into_iter().map(|e| e.task))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The static keys a rank member assigns to a workflow of independent
/// tasks: with no edges the upward rank is the task's own execution time.
fn flat_keys(member: &str, exec_ms: &[u64], unit_ms: u64) -> Vec<u64> {
    exec_ms
        .iter()
        .map(|&ms| match member {
            "heft" => ms,
            "minmin" => u64::MAX - ms,
            "cpath" => ms.div_ceil(unit_ms),
            other => panic!("unknown rank member {other}"),
        })
        .collect()
}

// Every rank flavour, prepared on a flat workflow whose execution times
// straddle charging-unit boundaries (so keys tie within and across
// classes), must pop exactly like the historical heap over arbitrary
// ready/resubmit/pop interleavings — and advertise the same dispatch order
// after every single operation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rank_queue_is_pop_for_pop_identical_to_the_heap_oracle(
        halves in proptest::collection::vec(0u64..6, 1..40),
        raw in proptest::collection::vec((0u8..=2, 0u32..64), 0..160),
    ) {
        let cfg = CloudConfig::default();
        let unit_ms = cfg.charging_unit.as_ms();
        // half charging units plus a per-task millisecond offset
        let exec_ms: Vec<u64> = halves
            .iter()
            .enumerate()
            .map(|(i, &h)| h * unit_ms / 2 + (i % 3) as u64)
            .collect();
        let n = exec_ms.len();
        let mut b = WorkflowBuilder::new("flat");
        let stage = b.add_stage("s");
        for _ in 0..n {
            b.add_task(stage, 0, 0);
        }
        let wf = b.build().unwrap();
        let prof = ExecProfile::new(exec_ms.iter().map(|&ms| Millis(ms)).collect());
        let ops: Vec<(Op, TaskId, StageId)> = raw
            .iter()
            .map(|&(k, t)| {
                let op = match k {
                    0 => Op::Ready,
                    1 => Op::Resubmit,
                    _ => Op::Pop,
                };
                (op, TaskId(t % n as u32), stage)
            })
            .collect();

        for kind in [RankKind::Heft, RankKind::MinMin, RankKind::CriticalPath, RankKind::Portfolio] {
            let mut rank = RankScheduler::new(kind, n, &cfg);
            Scheduler::prepare(&mut rank, &WorkflowSlot::solo(&wf), &prof);
            let member = rank.chosen_members()[0];
            let mut oracle = HeapRankOracle::new(flat_keys(member, &exec_ms, unit_ms));
            for (i, op) in ops.iter().enumerate() {
                let step = std::slice::from_ref(op);
                prop_assert_eq!(
                    drive(&mut oracle, step),
                    drive(&mut rank, step),
                    "{}: pop diverged at op {}", kind.tag(), i
                );
                let order_oracle: Vec<TaskId> = oracle.iter_in_order().collect();
                let order_rank: Vec<TaskId> = Scheduler::iter_in_order(&rank).collect();
                prop_assert_eq!(order_oracle, order_rank, "{}: order diverged at op {}", kind.tag(), i);
                prop_assert_eq!(oracle.len(), Scheduler::len(&rank));
            }
        }
    }
}

// ---- chaos: every scheduler through the invariant checker ------------------

/// A kill storm (pool wipe at the second stage, a later targeted kill, lag
/// jitter) must leave every scheduler with exactly-once task completion and
/// a bill that the per-instance records conserve — checked both by the chaos
/// [`InvariantChecker`] riding the run and by direct assertions here.
#[test]
fn every_scheduler_survives_a_kill_storm_with_exactly_once_completion() {
    let workload = WorkloadId::Tpch6S;
    let seed = 2;
    let (wf, prof) = workload.generate(seed);
    for spec in SchedulerSpec::ALL {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            workload.spec().total_input_bytes,
        );
        let checker = InvariantChecker::new(&cfg)
            .expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
        let storm = FaultPlan::new()
            .kill_pool_at_stage_start(StageId(1))
            .kill_instance_at(Millis::from_mins(50), InstanceId(0))
            .jitter_lag(Millis::from_mins(5), 0.3);
        let r = Session::new(cfg)
            .scheduler(spec)
            .transfer(TransferModel::default())
            .policy(WirePolicy::default())
            .seed(seed)
            .recording(checker.clone())
            .chaos(storm)
            .submit(&wf, &prof)
            .run()
            .unwrap_or_else(|e| panic!("{}: session failed: {e:?}", spec.tag()));
        checker.assert_clean();

        // exactly-once: the completed-task multiset is each id exactly once
        let mut ids: Vec<u32> = r.task_records.iter().map(|t| t.task.0).collect();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..wf.num_tasks() as u32).collect();
        assert_eq!(ids, expected, "{}: lost or duplicated tasks", spec.tag());

        // the storm must actually strike, and the work it destroyed must be
        // resubmitted (not silently dropped)
        assert!(r.failures > 0, "{}: pool wipe never struck", spec.tag());
        assert!(r.restarts > 0, "{}: no resubmissions recorded", spec.tag());

        // billing conservation: the headline bill is exactly the sum of the
        // per-instance bills, and every launched instance is accounted for
        let billed: u64 = r.instance_bills.iter().map(|b| b.units).sum();
        assert_eq!(
            r.charging_units,
            billed,
            "{}: instance bills do not sum to the total",
            spec.tag()
        );
        assert_eq!(
            r.instance_bills.len(),
            r.instances_launched as usize,
            "{}: launched instances missing from the bill",
            spec.tag()
        );
    }
}

// ---- golden pin: the schedulers campaign figure ----------------------------

/// Exact (cost, makespan) per scheduler for the TPCH-6 S / wire / u=15 /
/// seed=1 row block of `wire campaign schedulers` — the same cell tuple
/// tests/golden.rs pins for the default scheduler (886 732 ms). Update these
/// deliberately when scheduler semantics change, never loosen them.
const PINNED: &[(&str, u64, u64)] = &[
    // (scheduler tag, charging units, makespan_ms)
    ("fifo-ff", 1, 886_732),
    ("fifo", 1, 886_732),
    ("heft", 1, 862_066),
    ("minmin", 1, 876_098),
    ("cpath", 1, 886_732),
    ("portfolio", 1, 862_066),
];

/// Build the exact cells the campaign figure builds for one (workload,
/// setting) block: sweep the scheduler through the cell's `CloudConfig`.
fn scheduler_cells(w: WorkloadId, setting: Setting) -> Vec<Cell> {
    SchedulerSpec::ALL
        .iter()
        .map(|&spec| {
            let mut cfg =
                cloud_config_for(setting, Millis::from_mins(15), w.spec().total_input_bytes);
            cfg.scheduler = spec;
            Cell {
                workload: CellWorkload::Catalog(w),
                policy: PolicyKind::from_setting(setting),
                cfg,
                transfer: TransferKind::Default,
                seed: 1,
            }
        })
        .collect()
}

#[test]
fn schedulers_campaign_is_pinned_and_portfolio_beats_plain_fifo() {
    let cells = scheduler_cells(WorkloadId::Tpch6S, Setting::Wire);
    let report = run_campaign(
        &cells,
        &CampaignConfig {
            threads: Some(2),
            mode: CacheMode::Off,
            ..Default::default()
        },
    );
    assert_eq!(report.outputs.len(), PINNED.len());
    for (out, &(tag, units, makespan_ms)) in report.outputs.iter().zip(PINNED) {
        assert_eq!(
            (out.charging_units, out.makespan_ms),
            (units, makespan_ms),
            "TPCH-6 S / wire / {tag}: cost or makespan changed \
             (got {} units, {} ms)",
            out.charging_units,
            out.makespan_ms
        );
    }

    // the acceptance bar: the per-workflow portfolio strictly beats plain
    // FIFO on makespan at no extra cost, on a Table I workload
    let find = |tag: &str| {
        let i = PINNED.iter().position(|&(t, _, _)| t == tag).unwrap();
        &report.outputs[i]
    };
    let (fifo, portfolio) = (find("fifo"), find("portfolio"));
    assert!(
        portfolio.makespan_ms < fifo.makespan_ms,
        "portfolio ({} ms) must beat plain FIFO ({} ms)",
        portfolio.makespan_ms,
        fifo.makespan_ms
    );
    assert!(
        portfolio.charging_units <= fifo.charging_units,
        "portfolio ({} units) must not cost more than plain FIFO ({} units)",
        portfolio.charging_units,
        fifo.charging_units
    );
}

/// The default spec (`fifo-ff`) run through the campaign path must land on
/// the same golden cell tests/golden.rs pins — the scheduler sweep shares
/// its baseline with the rest of the evidence chain.
#[test]
fn default_scheduler_cell_matches_the_golden_baseline() {
    let cells = scheduler_cells(WorkloadId::Tpch6S, Setting::Wire);
    assert_eq!(cells[0].cfg.scheduler, SchedulerSpec::first_five());
    let report = run_campaign(
        &cells[..1],
        &CampaignConfig {
            threads: Some(1),
            mode: CacheMode::Off,
            ..Default::default()
        },
    );
    // golden.rs: (Tpch6S, Wire, u=15, seed=1) → 1 unit, 886 732 ms
    assert_eq!(report.outputs[0].charging_units, 1);
    assert_eq!(report.outputs[0].makespan_ms, 886_732);
}
