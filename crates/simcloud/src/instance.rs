//! Worker instances: slots, lifecycle, charging clocks.
//!
//! Slot *contents* (which task occupies which slot) live outside the
//! [`Instance`] record, in the engine-owned [`SlotArena`]: one flat
//! allocation of `slots_per_instance` cells per instance, indexed by
//! [`InstanceId`]. The `Instance` itself only carries the occupied-slot
//! count, so lifecycle records stay small and slot walks touch one
//! contiguous chunk instead of a per-instance heap allocation.

use serde::{Deserialize, Serialize};
use std::fmt;
use wire_dag::{Millis, TaskId};

/// Identifier of a worker instance within one run (dense, never reused).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct InstanceId(pub u32);

impl InstanceId {
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Engine-internal instance lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Requested; becomes usable (and billed) at `ready_at`.
    Launching { ready_at: Millis },
    /// Usable; billing started at `charge_start`.
    Running { charge_start: Millis },
    /// Scheduled for release at `terminate_at` (a charge boundary or "now");
    /// accepts no new tasks. Billing began at `charge_start`.
    Draining {
        charge_start: Millis,
        terminate_at: Millis,
    },
    /// Released at `at`, after being billed from `charge_start`.
    Terminated { charge_start: Millis, at: Millis },
}

/// Public (policy-visible) instance state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceStateView {
    Launching { ready_at: Millis },
    Running { charge_start: Millis },
    Draining { terminate_at: Millis },
}

/// One worker instance: lifecycle + occupied-slot count. Slot contents live
/// in the engine's [`SlotArena`].
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    pub id: InstanceId,
    pub state: InstanceState,
    /// Number of currently occupied slots (maintained by the engine).
    pub occupied: u32,
}

impl Instance {
    pub fn new(id: InstanceId, state: InstanceState) -> Self {
        Instance {
            id,
            state,
            occupied: 0,
        }
    }

    /// Is the instance in the pool (not yet terminated)?
    pub fn is_active(&self) -> bool {
        !matches!(self.state, InstanceState::Terminated { .. })
    }

    /// Is the instance usable for new work?
    pub fn is_running(&self) -> bool {
        matches!(self.state, InstanceState::Running { .. })
    }

    /// Time remaining until the current charging unit expires (`r_j` of
    /// Algorithm 2). At an exact boundary the answer is zero (the unit just
    /// expired; continuing incurs a recharge). Launching instances are treated
    /// as having a full unit ahead.
    pub fn time_to_next_charge(&self, now: Millis, unit: Millis) -> Millis {
        let charge_start = match self.state {
            InstanceState::Running { charge_start }
            | InstanceState::Draining { charge_start, .. }
            | InstanceState::Terminated { charge_start, .. } => charge_start,
            InstanceState::Launching { .. } => return unit,
        };
        let elapsed = now.saturating_sub(charge_start);
        let rem = elapsed % unit;
        if rem.is_zero() && !elapsed.is_zero() {
            Millis::ZERO
        } else {
            unit - rem
        }
    }

    /// The next charge boundary at or after `now`.
    pub fn next_charge_boundary(&self, now: Millis, unit: Millis) -> Millis {
        now + self.time_to_next_charge(now, unit)
    }

    /// Charging units billed when released at `end` (per started unit, with a
    /// minimum of one: acquiring an instance always costs a unit).
    pub fn units_billed(charge_start: Millis, end: Millis, unit: Millis) -> u64 {
        end.saturating_sub(charge_start).ceil_div(unit).max(1)
    }

    /// Charging units billed when the *provider* reclaims a spot instance at
    /// `end`: the interrupted unit is forgiven, so only completed units are
    /// paid — possibly zero.
    pub fn units_billed_forgiven(charge_start: Millis, end: Millis, unit: Millis) -> u64 {
        let held = end.saturating_sub(charge_start);
        held.as_ms() / unit.as_ms()
    }
}

/// Flat arena of task-slot cells, appended in [`InstanceId`] order. Each
/// instance owns a contiguous chunk whose width is fixed at
/// [`add_instance`](SlotArena::add_instance) time — `default_per` cells for
/// the homogeneous cloud, the family's slot count on heterogeneous ones.
/// The arena is append-only (ids are never reused); terminated instances
/// keep their chunk, cleared.
#[derive(Debug, Clone)]
pub struct SlotArena {
    default_per: usize,
    /// Chunk start offsets, one per instance plus a trailing sentinel equal
    /// to `cells.len()`.
    offsets: Vec<usize>,
    cells: Vec<Option<TaskId>>,
}

impl Default for SlotArena {
    fn default() -> Self {
        SlotArena::new(0)
    }
}

impl SlotArena {
    pub fn new(slots_per_instance: u32) -> Self {
        SlotArena {
            default_per: slots_per_instance as usize,
            offsets: vec![0],
            cells: Vec::new(),
        }
    }

    /// Reserve the slot chunk for the next instance id, at the default
    /// (homogeneous) width.
    pub fn add_instance(&mut self) {
        self.add_instance_with(self.default_per);
    }

    /// Reserve the slot chunk for the next instance id with an explicit
    /// width (heterogeneous families).
    pub fn add_instance_with(&mut self, slots: usize) {
        self.cells.resize(self.cells.len() + slots, None);
        self.offsets.push(self.cells.len());
    }

    #[inline]
    fn range(&self, id: InstanceId) -> (usize, usize) {
        (self.offsets[id.index()], self.offsets[id.index() + 1])
    }

    /// Slot count of one instance.
    pub fn width_of(&self, id: InstanceId) -> u32 {
        let (base, end) = self.range(id);
        (end - base) as u32
    }

    /// The slot chunk of one instance.
    pub fn of(&self, id: InstanceId) -> &[Option<TaskId>] {
        let (base, end) = self.range(id);
        &self.cells[base..end]
    }

    /// Index of the first free slot of `id`, if any. Lifecycle gating
    /// (Running-only) is the caller's job.
    pub fn free_slot(&self, id: InstanceId) -> Option<usize> {
        self.of(id).iter().position(Option::is_none)
    }

    /// Occupy or clear one slot cell.
    pub fn set(&mut self, id: InstanceId, slot: usize, task: Option<TaskId>) {
        let (base, end) = self.range(id);
        debug_assert!(slot < end - base);
        self.cells[base + slot] = task;
    }

    /// Tasks currently occupying `id`'s slots.
    pub fn tasks_of(&self, id: InstanceId) -> impl Iterator<Item = TaskId> + '_ {
        self.of(id).iter().filter_map(|s| *s)
    }

    /// Occupied-cell count (slow path; engines keep `Instance::occupied`).
    pub fn occupied_count(&self, id: InstanceId) -> usize {
        self.of(id).iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running(at: u64) -> Instance {
        Instance::new(
            InstanceId(0),
            InstanceState::Running {
                charge_start: Millis::from_ms(at),
            },
        )
    }

    #[test]
    fn arena_tracks_slot_occupancy_per_instance() {
        let mut a = SlotArena::new(2);
        a.add_instance();
        a.add_instance();
        assert_eq!(a.free_slot(InstanceId(0)), Some(0));
        a.set(InstanceId(0), 0, Some(TaskId(5)));
        assert_eq!(a.free_slot(InstanceId(0)), Some(1));
        a.set(InstanceId(0), 1, Some(TaskId(6)));
        assert_eq!(a.free_slot(InstanceId(0)), None);
        assert_eq!(a.occupied_count(InstanceId(0)), 2);
        // the neighbouring chunk is untouched
        assert_eq!(a.free_slot(InstanceId(1)), Some(0));
        assert_eq!(a.occupied_count(InstanceId(1)), 0);
        let held: Vec<TaskId> = a.tasks_of(InstanceId(0)).collect();
        assert_eq!(held, vec![TaskId(5), TaskId(6)]);
        a.set(InstanceId(0), 0, None);
        assert_eq!(a.free_slot(InstanceId(0)), Some(0));
        assert_eq!(a.occupied_count(InstanceId(0)), 1);
    }

    #[test]
    fn arena_supports_heterogeneous_widths() {
        let mut a = SlotArena::new(2);
        a.add_instance(); // i0: default width 2
        a.add_instance_with(4); // i1: a bigger family
        a.add_instance_with(1); // i2: a single-slot family
        assert_eq!(a.width_of(InstanceId(0)), 2);
        assert_eq!(a.width_of(InstanceId(1)), 4);
        assert_eq!(a.width_of(InstanceId(2)), 1);
        a.set(InstanceId(1), 3, Some(TaskId(9)));
        assert_eq!(a.free_slot(InstanceId(1)), Some(0));
        assert_eq!(a.occupied_count(InstanceId(1)), 1);
        a.set(InstanceId(2), 0, Some(TaskId(1)));
        assert_eq!(a.free_slot(InstanceId(2)), None);
        // neighbours untouched
        assert_eq!(a.occupied_count(InstanceId(0)), 0);
        a.set(InstanceId(1), 3, None);
        assert_eq!(a.occupied_count(InstanceId(1)), 0);
        assert_eq!(a.occupied_count(InstanceId(2)), 1);
    }

    #[test]
    fn forgiven_billing_drops_the_partial_unit() {
        let u = Millis::from_mins(15);
        let s = Millis::from_mins(10);
        // reclaimed mid-first-unit: nothing billed (vs. 1 for voluntary)
        assert_eq!(
            Instance::units_billed_forgiven(s, s + Millis::from_ms(1), u),
            0
        );
        assert_eq!(Instance::units_billed(s, s + Millis::from_ms(1), u), 1);
        // exact boundary: the completed unit is paid
        assert_eq!(Instance::units_billed_forgiven(s, s + u, u), 1);
        // one ms into the second unit: still only the first is paid
        assert_eq!(
            Instance::units_billed_forgiven(s, s + u + Millis::from_ms(1), u),
            1
        );
        assert_eq!(Instance::units_billed(s, s + u + Millis::from_ms(1), u), 2);
    }

    #[test]
    fn lifecycle_predicates() {
        let l = Instance::new(
            InstanceId(1),
            InstanceState::Launching {
                ready_at: Millis::from_ms(10),
            },
        );
        assert!(l.is_active());
        assert!(!l.is_running());
        assert!(running(0).is_running());
    }

    #[test]
    fn time_to_next_charge_wraps_at_boundary() {
        let i = running(0);
        let u = Millis::from_mins(15);
        assert_eq!(i.time_to_next_charge(Millis::ZERO, u), u);
        assert_eq!(
            i.time_to_next_charge(Millis::from_mins(5), u),
            Millis::from_mins(10)
        );
        // exact boundary → 0 (unit just expired)
        assert_eq!(
            i.time_to_next_charge(Millis::from_mins(15), u),
            Millis::ZERO
        );
        assert_eq!(
            i.time_to_next_charge(Millis::from_mins(16), u),
            Millis::from_mins(14)
        );
        assert_eq!(
            i.next_charge_boundary(Millis::from_mins(16), u),
            Millis::from_mins(30)
        );
    }

    #[test]
    fn launching_instance_reports_full_unit() {
        let l = Instance::new(
            InstanceId(1),
            InstanceState::Launching {
                ready_at: Millis::from_mins(3),
            },
        );
        let u = Millis::from_mins(15);
        assert_eq!(l.time_to_next_charge(Millis::from_mins(1), u), u);
    }

    #[test]
    fn billing_per_started_unit_minimum_one() {
        let u = Millis::from_mins(15);
        let s = Millis::from_mins(10);
        assert_eq!(Instance::units_billed(s, s, u), 1); // zero-length rental
        assert_eq!(Instance::units_billed(s, s + Millis::from_ms(1), u), 1);
        assert_eq!(Instance::units_billed(s, s + u, u), 1);
        assert_eq!(Instance::units_billed(s, s + u + Millis::from_ms(1), u), 2);
        assert_eq!(Instance::units_billed(s, s + u * 3, u), 3);
    }
}
