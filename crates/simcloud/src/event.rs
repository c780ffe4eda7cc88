//! Deterministic discrete-event queue.
//!
//! Events at equal timestamps are ordered by insertion sequence number, so a
//! run is a pure function of (workflow, profile, config, seed).
//!
//! [`EventQueue`] is a hierarchical timer wheel (8 levels × 64 slots,
//! covering 2^48 ms ≈ 8 900 years of virtual time, with a rare overflow list
//! beyond that). Push is O(1); pop is amortized O(1) because every event
//! cascades down at most once per level over its lifetime. Within a bucket
//! events are stored in insertion order, and level-0 buckets hold exactly
//! one timestamp, so events pop in `(time, insertion seq)` order without
//! storing a sequence number — pinned pop-for-pop against a binary-heap
//! oracle by `tests/event_diff.rs`.
//!
//! ## Ordering contract
//!
//! `pop` returns events in nondecreasing time; events with equal timestamps
//! come back in the exact order they were pushed, regardless of kind. The
//! queue may only be pushed at times `>= ` the time of the last popped event
//! (the discrete-event invariant the engine already guarantees).

use crate::instance::InstanceId;
use wire_dag::{Millis, TaskId};

/// Engine events. `epoch` fields implement cancellation: a stale event whose
/// epoch no longer matches the entity's current epoch is ignored on pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A requested instance finishes booting and joins the pool.
    InstanceReady { instance: InstanceId },
    /// A draining instance reaches its release point.
    InstanceTerminate { instance: InstanceId, epoch: u32 },
    /// A task's slot occupancy completes.
    TaskDone { task: TaskId, epoch: u32 },
    /// MAPE control tick.
    MapeTick,
    /// A deferred workflow submission reaches its arrival time.
    WorkflowArrival { workflow: u32 },
    /// A workflow's serial setup phase completes; its root tasks become ready.
    WorkflowSetupDone { workflow: u32 },
    /// An instance crashes (failure injection).
    InstanceFail { instance: InstanceId, epoch: u32 },
    /// A scripted chaos fault fires (index into the run's
    /// [`crate::FaultPlan`]). Only ever queued when a plan is attached, so
    /// plain runs never see this variant.
    ChaosFault { fault: u32 },
    /// The provider reclaims a spot instance (spot-market eviction). Only
    /// ever queued for instances of a spot family, so on-demand runs never
    /// see this variant.
    SpotEvict { instance: InstanceId, epoch: u32 },
    /// A running task hits its true memory peak on an instance whose
    /// resident peaks oversubscribe capacity: the task is OOM-killed and
    /// resubmitted. Only ever queued when a memory profile is attached.
    TaskOom { task: TaskId, epoch: u32 },
}

/// Levels in the timer wheel; each level covers 6 more bits of time.
const LEVELS: usize = 8;
/// log2(slots per level).
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Total virtual-time span addressable by the wheel (2^48 ms).
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS);

/// One queued event: (time in ms, payload).
type Entry = (u64, EventKind);

/// Deterministic event queue: a hierarchical timer wheel; see the module
/// docs for the ordering contract.
///
/// `clock` trails the virtual time of the last activated bucket and only
/// ever advances. An event at absolute time `t` lives at level
/// `highest_set_bit(t ^ clock) / 6` (level 0 when `t == clock`), i.e. the
/// highest 6-bit digit in which `t` still differs from the clock; its slot
/// is that digit of `t`. Draining always takes the lowest nonempty level's
/// lowest occupied slot: at level 0 the bucket holds exactly one timestamp
/// and is emitted front-to-back, in insertion order; at higher levels the
/// clock first advances to the bucket's time prefix and the bucket's events
/// are re-filed, which lands every one of them strictly below the drained
/// level, so each event cascades at most `LEVELS` times.
#[derive(Debug)]
pub struct EventQueue {
    /// Time prefix of the last activated bucket; never exceeds the time of
    /// any queued event.
    clock: u64,
    /// `LEVELS × SLOTS` buckets, flattened as `level * SLOTS + slot`.
    buckets: Vec<Vec<Entry>>,
    /// Per-level bitmask of nonempty buckets.
    occupied: [u64; LEVELS],
    /// The active level-0 bucket being emitted (all entries share one time).
    cur: Vec<Entry>,
    /// Next entry of `cur` to emit.
    cur_pos: usize,
    /// The single timestamp shared by all entries of `cur`.
    cur_time: u64,
    /// Whether `cur`/`cur_time` are live (same-time pushes append to `cur`).
    cur_active: bool,
    /// Scratch buffer for cascading a higher-level bucket; its allocation is
    /// swapped in and out of the bucket array so drains never reallocate.
    spill: Vec<Entry>,
    /// Events more than `WHEEL_SPAN` ahead of the clock (≈ 8 900 years) —
    /// held in insertion order and re-filed when the wheel itself empties.
    overflow: Vec<Entry>,
    /// Total queued events.
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            clock: 0,
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cur: Vec::new(),
            cur_pos: 0,
            cur_time: 0,
            cur_active: false,
            spill: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    pub fn push(&mut self, at: Millis, kind: EventKind) {
        let t = at.as_ms();
        self.len += 1;
        if self.cur_active && t == self.cur_time {
            // Same-time push while that timestamp is being emitted: append —
            // it was pushed after everything already in `cur`.
            self.cur.push((t, kind));
            return;
        }
        self.file(t, kind);
    }

    /// File an entry into its wheel bucket (or the overflow list).
    fn file(&mut self, t: u64, kind: EventKind) {
        debug_assert!(t >= self.clock, "event scheduled in the past");
        let diff = t ^ self.clock;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / SLOT_BITS
        };
        if level >= LEVELS {
            self.overflow.push((t, kind));
            return;
        }
        let slot = ((t >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        self.buckets[level * SLOTS + slot].push((t, kind));
        self.occupied[level] |= 1u64 << slot;
    }

    pub fn pop(&mut self) -> Option<(Millis, EventKind)> {
        loop {
            if self.cur_active {
                if self.cur_pos < self.cur.len() {
                    let (t, kind) = self.cur[self.cur_pos];
                    self.cur_pos += 1;
                    self.len -= 1;
                    return Some((Millis::from_ms(t), kind));
                }
                self.cur.clear();
                self.cur_pos = 0;
                self.cur_active = false;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                if self.overflow.is_empty() {
                    return None;
                }
                // The whole wheel is empty: jump the clock to the earliest
                // overflow frame and re-file. Entries still beyond the new
                // horizon re-enter `overflow` in their original order.
                let min_t = self
                    .overflow
                    .iter()
                    .map(|e| e.0)
                    .min()
                    .expect("overflow nonempty");
                self.clock = min_t & !(WHEEL_SPAN - 1);
                let pending = std::mem::take(&mut self.overflow);
                for (t, k) in pending {
                    self.file(t, k);
                }
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Level-0 buckets hold exactly one timestamp: slot + clock
                // prefix determine it. Activate and emit in insertion order.
                self.clock = (self.clock & !SLOT_MASK) | slot as u64;
                self.cur_time = self.clock;
                self.cur_pos = 0;
                self.cur_active = true;
                std::mem::swap(&mut self.cur, &mut self.buckets[slot]);
                debug_assert!(self.cur.iter().all(|e| e.0 == self.cur_time));
            } else {
                // Advance the clock to the bucket's time prefix *before*
                // re-filing, so every entry lands strictly below `level`.
                let lo = SLOT_BITS * level;
                let hi = lo + SLOT_BITS;
                self.clock = ((self.clock >> hi) << hi) | ((slot as u64) << lo);
                std::mem::swap(&mut self.spill, &mut self.buckets[level * SLOTS + slot]);
                for i in 0..self.spill.len() {
                    let (t, k) = self.spill[i];
                    debug_assert!(t >= self.clock);
                    self.file(t, k);
                }
                self.spill.clear();
            }
        }
    }

    pub fn peek_time(&self) -> Option<Millis> {
        self.peek_ms().map(Millis::from_ms)
    }

    fn peek_ms(&self) -> Option<u64> {
        if self.cur_active && self.cur_pos < self.cur.len() {
            return Some(self.cur_time);
        }
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as usize;
            if level == 0 {
                // Slot + clock prefix pin the exact timestamp.
                return Some((self.clock & !SLOT_MASK) | slot as u64);
            }
            // The lowest bucket of the lowest nonempty level holds the global
            // minimum; a short scan finds it (rare path: only between bucket
            // activations).
            return self.buckets[level * SLOTS + slot].iter().map(|e| e.0).min();
        }
        self.overflow.iter().map(|e| e.0).min()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Millis::from_ms(30), EventKind::MapeTick);
        q.push(Millis::from_ms(10), EventKind::MapeTick);
        q.push(Millis::from_ms(20), EventKind::MapeTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ms())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Millis::from_ms(5);
        q.push(
            t,
            EventKind::TaskDone {
                task: TaskId(0),
                epoch: 0,
            },
        );
        q.push(
            t,
            EventKind::TaskDone {
                task: TaskId(1),
                epoch: 0,
            },
        );
        q.push(
            t,
            EventKind::TaskDone {
                task: TaskId(2),
                epoch: 0,
            },
        );
        let order: Vec<TaskId> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::TaskDone { task, .. } => task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Millis::from_ms(7), EventKind::MapeTick);
        q.push(Millis::from_ms(3), EventKind::MapeTick);
        assert_eq!(q.peek_time(), Some(Millis::from_ms(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn wheel_cascades_across_levels() {
        let mut q = EventQueue::new();
        // Spread across several wheel levels: 0, 63, 64, 4095, 4096, 2^30.
        let times = [1u64 << 30, 4096, 63, 0, 4095, 64];
        for &t in &times {
            q.push(Millis::from_ms(t), EventKind::MapeTick);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ms())
            .collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn wheel_interleaves_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(Millis::from_ms(100), EventKind::MapeTick);
        q.push(Millis::from_ms(5), EventKind::MapeTick);
        assert_eq!(q.pop().map(|(t, _)| t.as_ms()), Some(5));
        // Push at the just-popped timestamp (engine handlers do this).
        q.push(
            Millis::from_ms(5),
            EventKind::WorkflowArrival { workflow: 1 },
        );
        q.push(Millis::from_ms(70), EventKind::MapeTick);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ms())
            .collect();
        assert_eq!(got, vec![5, 70, 100]);
    }

    #[test]
    fn wheel_overflow_beyond_span_still_ordered() {
        let mut q = EventQueue::new();
        let far = WHEEL_SPAN + 123; // > 2^48 ms ahead of clock 0
        let farther = 3 * WHEEL_SPAN + 7;
        q.push(Millis::from_ms(far), EventKind::MapeTick);
        q.push(Millis::from_ms(farther), EventKind::MapeTick);
        q.push(Millis::from_ms(42), EventKind::MapeTick);
        assert_eq!(q.peek_time(), Some(Millis::from_ms(42)));
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ms())
            .collect();
        assert_eq!(got, vec![42, far, farther]);
        assert!(q.is_empty());
    }
}
