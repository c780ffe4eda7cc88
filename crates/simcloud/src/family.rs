//! Priced heterogeneous instance families, the spot market and per-task
//! memory demand.
//!
//! The paper's evaluation runs on one uniform instance type; real IaaS
//! clouds sell a *table* of families (slots × speed × price), often with a
//! discounted spot/preemptible tier that the provider may reclaim at any
//! time. [`FamilySpec`] is one row of that table, [`SpotSpec`] marks a
//! family as spot-priced and evictable, and [`MemoryProfile`] carries the
//! per-task memory demand that turns slot assignment into a bin-packing
//! constraint (Ponder / Bader et al.: memory is the second predictable
//! resource an online controller should steer on).
//!
//! An empty [`crate::CloudConfig::families`] table is the legacy
//! configuration: it resolves to one on-demand row with
//! `slots_per_instance` slots, speed 1.0, unlimited memory and the
//! reference price of [`FamilySpec::LEGACY_PRICE_MILLI`] per charging
//! unit. The engine runs that row through the same code as any other
//! table, and `tests/golden.rs` checks that spelling it out explicitly
//! moves no golden digest.

use serde::{Deserialize, Serialize};
use wire_dag::{Millis, TaskId};

/// Index into the resolved family table (0 is the default family, and the
/// only one when [`crate::CloudConfig::families`] is empty).
pub type FamilyId = u32;

/// Spot tier of a family: a discounted price paid per started charging
/// unit, in exchange for provider-initiated evictions drawn from an
/// exponential process with the given mean.
///
/// On eviction the provider *forgives the charging unit in progress*: the
/// instance is billed only for the units it completed (possibly zero) —
/// unlike voluntary termination and crashes, which bill every started unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotSpec {
    /// Mean time between provider evictions, per instance (exponential).
    pub mean_time_between_evictions: Millis,
    /// Discounted spot price per started charging unit, in milli-dollars.
    pub price_milli: u64,
}

/// One row of the instance-family table: a purchasable worker shape.
///
/// Prices are integers (milli-dollars per started charging unit) so that
/// every bill in a run is exact and the total cost is a deterministic sum —
/// no float accumulation in golden digests or campaign CSVs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Display name (CSV column, telemetry label).
    pub name: String,
    /// Task slots per instance of this family.
    pub slots: u32,
    /// Execution-speed multiplier: ground-truth task times are divided by
    /// this factor on instances of the family. `1.0` replays the profile
    /// exactly.
    pub speed: f64,
    /// On-demand price per started charging unit, in milli-dollars.
    pub price_milli: u64,
    /// Memory capacity per instance, in MB. Placement requires the sum of
    /// resident task demands to stay within it. `i64::MAX` is "effectively
    /// unlimited" (the legacy row's capacity).
    pub mem_mb: i64,
    /// `Some` makes every instance of this family a spot instance: billed
    /// at [`SpotSpec::price_milli`] and subject to provider eviction.
    pub spot: Option<SpotSpec>,
}

impl FamilySpec {
    /// Reference price of the implicit legacy family: $1.000 per unit. With
    /// an empty family table, `cost_milli = units × 1000`.
    pub const LEGACY_PRICE_MILLI: u64 = 1000;

    /// The implicit family an empty table resolves to: `slots` task slots
    /// (the config's `slots_per_instance`), speed 1.0, unlimited memory,
    /// on-demand at the reference price.
    pub fn legacy(slots: u32) -> Self {
        FamilySpec {
            name: "default".into(),
            slots,
            speed: 1.0,
            price_milli: Self::LEGACY_PRICE_MILLI,
            mem_mb: i64::MAX,
            spot: None,
        }
    }

    /// An on-demand family with unit speed and unlimited memory.
    pub fn new(name: impl Into<String>, slots: u32, price_milli: u64) -> Self {
        FamilySpec {
            name: name.into(),
            slots,
            speed: 1.0,
            price_milli,
            mem_mb: i64::MAX,
            spot: None,
        }
    }

    /// Set the execution-speed multiplier.
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Set the per-instance memory capacity in MB.
    pub fn memory_mb(mut self, mem_mb: i64) -> Self {
        self.mem_mb = mem_mb;
        self
    }

    /// Make this a spot family with the given eviction mean and discounted
    /// unit price.
    pub fn spot(mut self, mean_time_between_evictions: Millis, price_milli: u64) -> Self {
        self.spot = Some(SpotSpec {
            mean_time_between_evictions,
            price_milli,
        });
        self
    }

    pub fn is_spot(&self) -> bool {
        self.spot.is_some()
    }

    /// Price actually paid per started unit: the spot price for spot
    /// families, the on-demand price otherwise.
    pub fn unit_price_milli(&self) -> u64 {
        match &self.spot {
            Some(s) => s.price_milli,
            None => self.price_milli,
        }
    }

    /// Per-family invariants (table-independent; cross-field checks such as
    /// eviction mean vs. launch lag live in [`crate::CloudConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("family name must be non-empty".into());
        }
        if self.slots == 0 {
            return Err(format!("family '{}': slots must be ≥ 1", self.name));
        }
        if self.price_milli == 0 {
            return Err(format!("family '{}': price must be ≥ 1 milli", self.name));
        }
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(format!(
                "family '{}': speed must be finite and positive",
                self.name
            ));
        }
        if self.mem_mb <= 0 {
            return Err(format!("family '{}': mem_mb must be ≥ 1", self.name));
        }
        if let Some(s) = &self.spot {
            if s.price_milli == 0 {
                return Err(format!(
                    "family '{}': spot price must be ≥ 1 milli",
                    self.name
                ));
            }
            if s.mean_time_between_evictions.is_zero() {
                return Err(format!(
                    "family '{}': mean_time_between_evictions must be positive",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Parse the `--family` CLI syntax:
    /// `name:slots:speed:price_milli[:mem_mb][:spot:mtbe_mins:price_milli]`.
    ///
    /// Examples: `std:4:1.0:1000`, `big:8:1.5:2600:65536`,
    /// `cheap:4:1.0:1000:8192:spot:45:300`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 4 {
            return Err(format!(
                "family spec '{s}': expected name:slots:speed:price_milli[:mem_mb][:spot:mtbe_mins:price_milli]"
            ));
        }
        let bad = |field: &str| format!("family spec '{s}': bad {field}");
        let mut f = FamilySpec::new(
            parts[0],
            parts[1].parse::<u32>().map_err(|_| bad("slots"))?,
            parts[3].parse::<u64>().map_err(|_| bad("price_milli"))?,
        )
        .speed(parts[2].parse::<f64>().map_err(|_| bad("speed"))?);
        let mut rest = &parts[4..];
        if let Some(first) = rest.first() {
            if *first != "spot" {
                f = f.memory_mb(first.parse::<i64>().map_err(|_| bad("mem_mb"))?);
                rest = &rest[1..];
            }
        }
        match rest {
            [] => {}
            ["spot", mtbe, price] => {
                f = f.spot(
                    Millis::from_mins(mtbe.parse::<u64>().map_err(|_| bad("spot mtbe_mins"))?),
                    price.parse::<u64>().map_err(|_| bad("spot price_milli"))?,
                );
            }
            _ => return Err(format!("family spec '{s}': trailing fields after mem_mb must be spot:mtbe_mins:price_milli")),
        }
        f.validate()?;
        Ok(f)
    }
}

/// Ground-truth per-task memory behaviour of a session, indexed by the
/// session-global [`TaskId`] space (like [`wire_dag::ExecProfile`]).
///
/// `demand_mb` is what the submitter *declares* — the claim placement
/// reserves on an instance. `peak_mb` is what the task *actually* uses at
/// its high-water mark. When co-resident true peaks exceed an instance's
/// capacity, the task whose dispatch crossed the line is OOM-killed halfway
/// through its execution and resubmitted; from then on the engine places it
/// by its observed peak (retry-with-more-memory semantics).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryProfile {
    demand_mb: Vec<i64>,
    peak_mb: Vec<i64>,
}

impl MemoryProfile {
    /// Build and validate a profile. Rejects negative demands or peaks and
    /// mismatched lengths.
    pub fn new(demand_mb: Vec<i64>, peak_mb: Vec<i64>) -> Result<Self, String> {
        if demand_mb.len() != peak_mb.len() {
            return Err(format!(
                "memory profile: {} demands vs {} peaks",
                demand_mb.len(),
                peak_mb.len()
            ));
        }
        if let Some(d) = demand_mb.iter().find(|d| **d < 0) {
            return Err(format!("memory profile: negative demand {d} MB"));
        }
        if let Some(p) = peak_mb.iter().find(|p| **p < 0) {
            return Err(format!("memory profile: negative peak {p} MB"));
        }
        Ok(MemoryProfile { demand_mb, peak_mb })
    }

    /// Every task declares `demand_mb` and actually peaks at `peak_mb`.
    pub fn uniform(num_tasks: usize, demand_mb: i64, peak_mb: i64) -> Result<Self, String> {
        Self::new(vec![demand_mb; num_tasks], vec![peak_mb; num_tasks])
    }

    /// Honest profile: every task declares exactly its true peak.
    pub fn exact(peak_mb: Vec<i64>) -> Result<Self, String> {
        Self::new(peak_mb.clone(), peak_mb)
    }

    pub fn len(&self) -> usize {
        self.demand_mb.len()
    }

    pub fn is_empty(&self) -> bool {
        self.demand_mb.is_empty()
    }

    /// Declared demand of a session-global task.
    pub fn demand(&self, task: TaskId) -> i64 {
        self.demand_mb[task.0 as usize]
    }

    /// Ground-truth peak of a session-global task.
    pub fn peak(&self, task: TaskId) -> i64 {
        self.peak_mb[task.0 as usize]
    }

    pub fn demands(&self) -> &[i64] {
        &self.demand_mb
    }

    pub fn peaks(&self) -> &[i64] {
        &self.peak_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_family_matches_reference_price() {
        let f = FamilySpec::legacy(4);
        assert_eq!(f.slots, 4);
        assert_eq!(f.unit_price_milli(), FamilySpec::LEGACY_PRICE_MILLI);
        assert!(!f.is_spot());
        assert!(f.validate().is_ok());
    }

    #[test]
    fn spot_family_pays_the_discounted_price() {
        let f = FamilySpec::new("s", 4, 1000).spot(Millis::from_mins(30), 300);
        assert!(f.is_spot());
        assert_eq!(f.unit_price_milli(), 300);
        assert_eq!(f.price_milli, 1000);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_families() {
        assert!(FamilySpec::new("z", 0, 1000).validate().is_err());
        assert!(FamilySpec::new("z", 4, 0).validate().is_err());
        assert!(FamilySpec::new("z", 4, 1000).speed(0.0).validate().is_err());
        assert!(FamilySpec::new("z", 4, 1000)
            .speed(f64::NAN)
            .validate()
            .is_err());
        assert!(FamilySpec::new("z", 4, 1000)
            .memory_mb(0)
            .validate()
            .is_err());
        assert!(FamilySpec::new("z", 4, 1000)
            .memory_mb(-1)
            .validate()
            .is_err());
        assert!(FamilySpec::new("z", 4, 1000)
            .spot(Millis::ZERO, 300)
            .validate()
            .is_err());
        assert!(FamilySpec::new("z", 4, 1000)
            .spot(Millis::from_mins(30), 0)
            .validate()
            .is_err());
        assert!(FamilySpec::new("", 4, 1000).validate().is_err());
    }

    #[test]
    fn parse_roundtrips_the_cli_syntax() {
        let f = FamilySpec::parse("std:4:1.0:1000").unwrap();
        assert_eq!(f, FamilySpec::new("std", 4, 1000));
        let f = FamilySpec::parse("big:8:1.5:2600:65536").unwrap();
        assert_eq!(
            f,
            FamilySpec::new("big", 8, 2600).speed(1.5).memory_mb(65536)
        );
        let f = FamilySpec::parse("cheap:4:1.0:1000:8192:spot:45:300").unwrap();
        assert_eq!(
            f,
            FamilySpec::new("cheap", 4, 1000)
                .memory_mb(8192)
                .spot(Millis::from_mins(45), 300)
        );
        let f = FamilySpec::parse("ev:4:1.0:1000:spot:30:250").unwrap();
        assert!(f.is_spot());
        assert_eq!(f.mem_mb, i64::MAX);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FamilySpec::parse("std:4:1.0").is_err());
        assert!(FamilySpec::parse("std:x:1.0:1000").is_err());
        assert!(FamilySpec::parse("std:4:1.0:1000:spot:30").is_err());
        assert!(FamilySpec::parse("std:0:1.0:1000").is_err());
        assert!(FamilySpec::parse("std:4:1.0:0").is_err());
        assert!(FamilySpec::parse("std:4:1.0:1000:8192:extra").is_err());
    }

    #[test]
    fn memory_profile_rejects_negatives_and_mismatch() {
        assert!(MemoryProfile::new(vec![1, 2], vec![1]).is_err());
        assert!(MemoryProfile::new(vec![-1], vec![1]).is_err());
        assert!(MemoryProfile::new(vec![1], vec![-1]).is_err());
        let m = MemoryProfile::new(vec![512, 1024], vec![600, 900]).unwrap();
        assert_eq!(m.demand(TaskId(0)), 512);
        assert_eq!(m.peak(TaskId(1)), 900);
        assert_eq!(m.len(), 2);
        let u = MemoryProfile::uniform(3, 100, 200).unwrap();
        assert_eq!(u.demands(), &[100, 100, 100]);
        let e = MemoryProfile::exact(vec![5, 6]).unwrap();
        assert_eq!(e.demands(), e.peaks());
    }
}
