//! Differential property test pinning the timer-wheel [`EventQueue`] to a
//! binary-heap oracle pop-for-pop.
//!
//! The engine's determinism contract is that events pop in strict
//! `(time, insertion seq)` order — same-timestamp events resolve by insertion
//! order, never by payload. The wheel and the heap must therefore agree on
//! every pop for *any* interleaving of pushes and pops, including bursts of
//! identical timestamps and non-monotone push times.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wire_dag::{Millis, TaskId};
use wire_simcloud::event::{EventKind, EventQueue};
use wire_simcloud::InstanceId;

/// The ordering contract stated directly: a min-heap on `(time, insertion
/// seq)`, with payloads held aside by seq so they never take part in the
/// order.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    kinds: Vec<EventKind>,
}

impl HeapOracle {
    fn push(&mut self, at: Millis, kind: EventKind) {
        self.heap
            .push(Reverse((at.as_ms(), self.kinds.len() as u64)));
        self.kinds.push(kind);
    }

    fn pop(&mut self) -> Option<(Millis, EventKind)> {
        let Reverse((t, seq)) = self.heap.pop()?;
        Some((Millis::from_ms(t), self.kinds[seq as usize]))
    }

    fn peek_time(&self) -> Option<Millis> {
        self.heap.peek().map(|Reverse((t, _))| Millis::from_ms(*t))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Decode a compact (variant, payload) pair into an event. Covers every
/// variant so tie-breaks are exercised across heterogeneous payloads.
fn kind(variant: u8, payload: u32) -> EventKind {
    match variant % 10 {
        0 => EventKind::InstanceReady {
            instance: InstanceId(payload),
        },
        1 => EventKind::InstanceTerminate {
            instance: InstanceId(payload),
            epoch: payload.rotate_left(16),
        },
        2 => EventKind::TaskDone {
            task: TaskId(payload),
            epoch: payload ^ 0x5a5a,
        },
        3 => EventKind::MapeTick,
        4 => EventKind::WorkflowArrival { workflow: payload },
        5 => EventKind::WorkflowSetupDone { workflow: payload },
        6 => EventKind::InstanceFail {
            instance: InstanceId(payload),
            epoch: payload.wrapping_mul(3),
        },
        7 => EventKind::ChaosFault { fault: payload },
        8 => EventKind::SpotEvict {
            instance: InstanceId(payload),
            epoch: payload.rotate_right(8),
        },
        _ => EventKind::TaskOom {
            task: TaskId(payload),
            epoch: payload.wrapping_add(1),
        },
    }
}

/// A scripted push/pop scenario with a same-time tie across variants: the
/// wheel and the oracle both pop it in `(time, insertion)` order.
#[test]
fn wheel_and_oracle_share_the_contract() {
    let task = EventKind::TaskDone {
        task: TaskId(7),
        epoch: 0,
    };
    let expected = [
        (Millis::from_ms(10), EventKind::MapeTick),
        (Millis::from_ms(10), task),
        (Millis::from_ms(30), EventKind::MapeTick),
    ];
    let mut wheel = EventQueue::new();
    let mut oracle = HeapOracle::default();
    wheel.push(Millis::from_ms(30), EventKind::MapeTick);
    oracle.push(Millis::from_ms(30), EventKind::MapeTick);
    wheel.push(Millis::from_ms(10), EventKind::MapeTick);
    oracle.push(Millis::from_ms(10), EventKind::MapeTick);
    assert_eq!(wheel.peek_time(), Some(Millis::from_ms(10)));
    assert_eq!(oracle.peek_time(), Some(Millis::from_ms(10)));
    wheel.push(Millis::from_ms(10), task);
    oracle.push(Millis::from_ms(10), task);
    for want in expected {
        assert_eq!(wheel.pop(), Some(want));
        assert_eq!(oracle.pop(), Some(want));
    }
    assert_eq!(wheel.pop(), None);
    assert_eq!(oracle.pop(), None);
}

/// One scripted step: push an event at `now + dt`, or pop once.
#[derive(Debug, Clone)]
enum Op {
    Push { dt: u64, variant: u8, payload: u32 },
    Pop,
}

/// Decode a raw sample into an op (the offline mini-proptest has no
/// weighted unions, so the mix is built by hand): 3:2 push:pop, with push
/// deltas biased tiny so same-timestamp collisions are common (dt = 0 lands
/// exactly on the current wheel time) plus occasional far-future spikes
/// that cross wheel levels.
fn decode_op((sel, raw, variant, payload): (u8, u64, u8, u32)) -> Op {
    if sel % 5 >= 3 {
        return Op::Pop;
    }
    let dt = match sel % 3 {
        0 => raw % 4,
        1 => raw % 5_000,
        _ => raw % 400_000_000,
    };
    Op::Push {
        dt,
        variant,
        payload,
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u8, u32)>> {
    proptest::collection::vec(
        (
            0u8..=u8::MAX,
            0u64..=u64::MAX,
            0u8..=u8::MAX,
            0u32..=u32::MAX,
        ),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_heap_oracle(ops in arb_ops()) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapOracle::default();
        // the engine never pushes into the past: pushes land at (latest
        // popped time) + dt, mirroring how the simulation clock advances
        let mut now = 0u64;
        for raw in ops {
            match decode_op(raw) {
                Op::Push { dt, variant, payload } => {
                    let at = Millis::from_ms(now.saturating_add(dt));
                    let k = kind(variant, payload);
                    wheel.push(at, k);
                    heap.push(at, k);
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.as_ms();
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.len() == 0);
        }
        // drain both queues to the end: residual order must match too
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
