//! Cloud and run configuration (paper §III-A / §IV-B defaults).

use serde::{Deserialize, Serialize};
use wire_dag::Millis;

use crate::family::FamilySpec;
use crate::scheduler::SchedulerSpec;

/// Static configuration of a simulated cloud site and run.
///
/// Defaults mirror the paper's ExoGENI setup (§IV-B): XOXLarge instances with
/// four task slots, a 12-instance site, ~3-minute instantiation lag, MAPE
/// interval equal to the lag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudConfig {
    /// Task slots per worker instance (`l`).
    pub slots_per_instance: u32,
    /// Maximum instances the site can provide.
    pub site_capacity: u32,
    /// Lag time `t`: delay to launch or release an instance.
    pub launch_lag: Millis,
    /// Charging unit `u`: instances are billed per started unit of this length.
    pub charging_unit: Millis,
    /// Time between MAPE iterations; the paper sets it to the lag time.
    pub mape_interval: Millis,
    /// Instances the pool starts with (ready at time 0, charged from 0).
    pub initial_instances: u32,
    /// Which ready-task scheduler the framework master runs. The default,
    /// [`SchedulerSpec::Fifo`] with the first-five-per-stage boost (§III-C),
    /// reproduces the historical engine byte for byte; plain FIFO models the
    /// unpatched framework, and the rank/portfolio members are the
    /// alternatives studied by `wire campaign schedulers`.
    #[serde(default)]
    pub scheduler: SchedulerSpec,
    /// Engine-level multiplicative execution-time jitter (interference,
    /// §II-B): each dispatch scales the ground-truth time by a factor drawn
    /// uniformly from `[1 − j, 1 + j]`. Zero replays the profile exactly.
    pub exec_jitter: f64,
    /// Mean time between instance failures (per instance), or `None` for a
    /// reliable cloud. Failures crash the instance: its tasks are resubmitted
    /// (sunk cost lost), the instance is billed for started units, and the
    /// pool shrinks until the policy reacts — §II-B's interference and
    /// reliability variability, injectable for robustness tests. Set via
    /// [`CloudConfig::failures`].
    #[serde(default)]
    pub mean_time_between_failures: Option<Millis>,
    /// Per-run setup phase before any task becomes ready: the workflow
    /// framework's serial prologue (Pegasus create-dir + stage-in jobs,
    /// Condor spool-up). Instances present during setup are billed.
    pub run_setup: Millis,
    /// Per-run teardown after the last task: stage-out + registration. The
    /// makespan includes it and instances are billed through it.
    pub run_teardown: Millis,
    /// Hard wall on simulated time; exceeded ⇒ `RunError::TimeLimit` (guards
    /// against policies that starve the workflow).
    pub max_sim_time: Millis,
    /// The priced instance-family table. Empty (the default) is the legacy
    /// homogeneous cloud: it resolves ([`Self::resolved_families`]) to one
    /// on-demand row with `slots_per_instance` slots, speed 1.0, unlimited
    /// memory and the reference price, and the engine stores that resolved
    /// table in its own copy of the config. Family 0 is the default launch
    /// target; policies may steer launches onto other rows via
    /// [`crate::PoolPlan::launch_families`].
    #[serde(default)]
    pub families: Vec<FamilySpec>,
    /// Per-session spend ceiling, or `None` for the unconstrained cloud.
    /// When set, the engine computes committed spend each MAPE tick and
    /// exposes it to policies via `MonitorSnapshot::spent_milli`; budget-aware
    /// steering damps growth as spend approaches the ceiling and vetoes it
    /// outright at 100%. `None` is byte-identical to the pre-budget engine.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget: Option<BudgetConfig>,
    /// Mutation-teeth knob: bill the charging unit a spot eviction
    /// interrupts instead of forgiving it. Exists only so the chaos suite
    /// can prove the per-family billing invariant has teeth; never set it
    /// in real experiments.
    #[doc(hidden)]
    #[serde(skip)]
    pub mutation_bill_eviction_grace: bool,
}

/// A per-session spend ceiling (Ilyushkin et al.'s budget-constrained
/// autoscaling scenario), in milli-dollars of the family price scale.
///
/// The ledger the ceiling is enforced against is *committed* spend: units
/// already billed at termination plus the units every live instance has
/// started (Launching instances owe their first unit; Draining instances owe
/// through their drain boundary). Committed spend is reconstructible from
/// telemetry alone, which is what lets the chaos checker re-derive and
/// cross-check every budget verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Hard spend ceiling in milli-dollars. `u64::MAX` is the explicit
    /// infinite budget (field-for-field equal to an unconstrained run).
    pub ceiling_milli: u64,
}

impl BudgetConfig {
    /// A ceiling of `ceiling_milli` milli-dollars.
    pub fn new(ceiling_milli: u64) -> Self {
        BudgetConfig { ceiling_milli }
    }

    /// The explicit infinite budget: never damps, never vetoes.
    pub fn unlimited() -> Self {
        BudgetConfig {
            ceiling_milli: u64::MAX,
        }
    }
}

impl Default for BudgetConfig {
    /// Defaults to [`BudgetConfig::unlimited`]: attaching a default budget
    /// must not change any decision an unconstrained run would make.
    fn default() -> Self {
        BudgetConfig::unlimited()
    }
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            slots_per_instance: 4,
            site_capacity: 12,
            launch_lag: Millis::from_mins(3),
            charging_unit: Millis::from_mins(15),
            mape_interval: Millis::from_mins(3),
            initial_instances: 1,
            scheduler: SchedulerSpec::default(),
            exec_jitter: 0.0,
            mean_time_between_failures: None,
            run_setup: Millis::from_mins(3),
            run_teardown: Millis::from_mins(2),
            max_sim_time: Millis::from_hours(10_000),
            families: Vec::new(),
            budget: None,
            mutation_bill_eviction_grace: false,
        }
    }
}

impl CloudConfig {
    /// ExoGENI-like site with the given charging unit.
    pub fn exogeni(charging_unit: Millis) -> Self {
        CloudConfig {
            charging_unit,
            ..Default::default()
        }
    }

    /// The idealized single-slot setup of the §III-E discussion and the
    /// Figure 2/3 simulations: one slot per instance, effectively unbounded
    /// site, continuous monitoring approximated by a small interval.
    pub fn linear_analysis(charging_unit: Millis, mape_interval: Millis) -> Self {
        CloudConfig {
            slots_per_instance: 1,
            site_capacity: u32::MAX,
            launch_lag: mape_interval,
            charging_unit,
            mape_interval,
            initial_instances: 1,
            scheduler: SchedulerSpec::plain_fifo(),
            exec_jitter: 0.0,
            mean_time_between_failures: None,
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            max_sim_time: Millis::from_hours(1_000_000),
            families: Vec::new(),
            budget: None,
            mutation_bill_eviction_grace: false,
        }
    }

    /// Enable failure injection with the given mean time between failures.
    pub fn failures(mut self, mtbf: Millis) -> Self {
        self.mean_time_between_failures = Some(mtbf);
        self
    }

    /// Install an instance-family table (builder form).
    pub fn with_families(mut self, families: Vec<FamilySpec>) -> Self {
        self.families = families;
        self
    }

    /// Install a spend ceiling (builder form), in milli-dollars.
    pub fn with_budget(mut self, ceiling_milli: u64) -> Self {
        self.budget = Some(BudgetConfig::new(ceiling_milli));
        self
    }

    /// The family table every run actually uses: the configured rows, or
    /// the single implicit legacy family when the table is empty.
    pub fn resolved_families(&self) -> Vec<FamilySpec> {
        if self.families.is_empty() {
            vec![FamilySpec::legacy(self.slots_per_instance)]
        } else {
            self.families.clone()
        }
    }

    /// Validate invariants; called by the engine at startup.
    pub fn validate(&self) -> Result<(), String> {
        if self.slots_per_instance == 0 {
            return Err("slots_per_instance must be ≥ 1".into());
        }
        if self.site_capacity == 0 {
            return Err("site_capacity must be ≥ 1".into());
        }
        if self.charging_unit.is_zero() {
            return Err("charging_unit must be positive".into());
        }
        if self.mape_interval.is_zero() {
            return Err("mape_interval must be positive".into());
        }
        if !(0.0..1.0).contains(&self.exec_jitter) {
            return Err("exec_jitter must be in [0, 1)".into());
        }
        if self.initial_instances > self.site_capacity {
            return Err("initial_instances exceeds site_capacity".into());
        }
        if self.mean_time_between_failures.is_some_and(|m| m.is_zero()) {
            return Err("mean_time_between_failures must be positive when set".into());
        }
        if self.budget.is_some_and(|b| b.ceiling_milli == 0) {
            return Err("budget ceiling_milli must be positive when set".into());
        }
        if self
            .mean_time_between_failures
            .is_some_and(|m| m < self.launch_lag)
        {
            // a mean lifetime shorter than the lag means replacements are
            // expected to die before they boot: the pool can only shrink and
            // every run ends in TimeLimit — reject the config up front
            return Err("mean_time_between_failures must be ≥ launch_lag".into());
        }
        for f in &self.families {
            f.validate()?;
            if let Some(s) = &f.spot {
                if s.mean_time_between_evictions < self.launch_lag {
                    // same starvation argument as the MTBF bound: spot
                    // replacements expected to be reclaimed before they boot
                    // mean the pool can only shrink
                    return Err(format!(
                        "family '{}': mean_time_between_evictions must be ≥ launch_lag",
                        f.name
                    ));
                }
            }
        }
        if let Some(b) = self.budget {
            // launches go to family 0; a ceiling below one of its units
            // affords none, so an empty initial pool never grows and every
            // run ends in TimeLimit
            let price0 = self
                .families
                .first()
                .map_or(FamilySpec::LEGACY_PRICE_MILLI, FamilySpec::unit_price_milli);
            if self.initial_instances == 0 && b.ceiling_milli < price0 {
                return Err(format!(
                    "budget ceiling_milli {} is below one unit of family 0 ({price0} milli) \
                     and there is no initial instance: no launch is ever affordable",
                    b.ceiling_milli
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = CloudConfig::default();
        assert_eq!(c.slots_per_instance, 4);
        assert_eq!(c.site_capacity, 12);
        assert_eq!(c.launch_lag, Millis::from_mins(3));
        assert_eq!(c.mape_interval, c.launch_lag);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = CloudConfig {
            slots_per_instance: 0,
            ..CloudConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CloudConfig {
            charging_unit: Millis::ZERO,
            ..CloudConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CloudConfig {
            exec_jitter: 1.0,
            ..CloudConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CloudConfig {
            initial_instances: 13,
            ..CloudConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CloudConfig::default().failures(Millis::ZERO);
        assert!(c.validate().is_err());
    }

    #[test]
    fn mtbf_shorter_than_lag_is_rejected_at_the_boundary() {
        // default lag is 3 min: one ms under it fails, exactly at it passes
        let lag = CloudConfig::default().launch_lag;
        let c = CloudConfig::default().failures(lag - Millis::from_ms(1));
        assert!(c.validate().is_err());
        let c = CloudConfig::default().failures(lag);
        assert!(c.validate().is_ok());
        let c = CloudConfig::default().failures(lag + Millis::from_ms(1));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn failures_builder_enables_injection() {
        let c = CloudConfig::default();
        assert_eq!(c.mean_time_between_failures, None);
        let c = c.failures(Millis::from_mins(30));
        assert_eq!(c.mean_time_between_failures, Some(Millis::from_mins(30)));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_family_rows() {
        // the latent gap: before the family table existed nothing rejected
        // a zero-slot or zero-price family — now the table is validated
        let with = |row: FamilySpec| CloudConfig::default().with_families(vec![row]);
        let c = with(FamilySpec::new("z", 0, 1000));
        assert!(c.validate().unwrap_err().contains("slots"));

        let c = with(FamilySpec::new("z", 4, 0));
        assert!(c.validate().unwrap_err().contains("price"));

        let c = with(FamilySpec::new("z", 4, 1000).memory_mb(-4));
        assert!(c.validate().unwrap_err().contains("mem_mb"));

        // spot eviction mean below the lag starves the pool, like MTBF
        let lag = CloudConfig::default().launch_lag;
        let c = with(FamilySpec::new("s", 4, 1000).spot(lag - Millis::from_ms(1), 300));
        assert!(c.validate().is_err());
        let c = with(FamilySpec::new("s", 4, 1000).spot(lag, 300));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn empty_family_table_resolves_to_the_legacy_row() {
        let c = CloudConfig::default();
        let fams = c.resolved_families();
        assert_eq!(fams, vec![FamilySpec::legacy(4)]);
        let c = c.with_families(vec![FamilySpec::new("a", 2, 500)]);
        assert_eq!(c.resolved_families(), c.families);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn budget_builder_and_validation() {
        let c = CloudConfig::default();
        assert_eq!(c.budget, None);
        let c = c.with_budget(500_000);
        assert_eq!(c.budget, Some(BudgetConfig::new(500_000)));
        assert!(c.validate().is_ok());

        // a zero ceiling can never launch anything — reject it up front
        let c = CloudConfig::default().with_budget(0);
        assert!(c.validate().unwrap_err().contains("ceiling"));

        // nor can one below a unit of family 0 (1000 milli on the legacy
        // row), unless an initial instance runs without a launch
        let empty = CloudConfig {
            initial_instances: 0,
            ..CloudConfig::default()
        };
        let err = empty.clone().with_budget(999).validate().unwrap_err();
        assert!(err.contains("999") && err.contains("1000"), "{err}");
        assert!(empty.clone().with_budget(1000).validate().is_ok());
        assert!(CloudConfig::default().with_budget(999).validate().is_ok());
        // the price is family 0's, spot discount included
        let lag = CloudConfig::default().launch_lag;
        let spot = empty.with_families(vec![
            FamilySpec::new("s", 4, 2000).spot(lag, 300),
            FamilySpec::new("d", 4, 100),
        ]);
        assert!(spot.clone().with_budget(299).validate().is_err());
        assert!(spot.with_budget(300).validate().is_ok());

        // the default budget is the explicit infinite one
        assert_eq!(BudgetConfig::default(), BudgetConfig::unlimited());
        assert_eq!(BudgetConfig::unlimited().ceiling_milli, u64::MAX);
    }

    #[test]
    fn linear_analysis_config_is_single_slot() {
        let c = CloudConfig::linear_analysis(Millis::from_mins(1), Millis::from_secs(1));
        assert_eq!(c.slots_per_instance, 1);
        assert!(c.validate().is_ok());
    }
}
