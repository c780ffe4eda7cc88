//! Tests on the content-addressed cache key: every field of a cell must
//! perturb the key, equal specs must collide, and a format version bump must
//! invalidate every previously cached key.

use proptest::prelude::*;
use wire_campaign::{
    cache_key, cache_key_versioned, Cell, CellWorkload, PolicyKind, TransferKind,
    CACHE_FORMAT_VERSION,
};
use wire_core::experiment::Setting;
use wire_dag::Millis;
use wire_planner::SteeringConfig;
use wire_simcloud::{BudgetConfig, CloudConfig, FamilySpec, SchedulerSpec, SpotSpec};
use wire_workloads::WorkloadId;

const SETTINGS: [Setting; 4] = [
    Setting::FullSite,
    Setting::PureReactive,
    Setting::ReactiveConserving,
    Setting::Wire,
];

fn arb_cell() -> impl Strategy<Value = Cell> {
    (
        0usize..WorkloadId::ALL.len(),
        0usize..4,
        0u64..4,
        0u64..1000,
    )
        .prop_map(|(w, s, u_idx, seed)| {
            let u = Millis::from_mins([1, 15, 30, 60][u_idx as usize]);
            Cell::grid(WorkloadId::ALL[w], SETTINGS[s], u, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn equal_specs_collide(cell in arb_cell()) {
        let twin = cell.clone();
        prop_assert_eq!(cache_key(&cell), cache_key(&twin));
    }

    #[test]
    fn seed_perturbs_key(cell in arb_cell(), delta in 1u64..1000) {
        let mut other = cell.clone();
        other.seed = cell.seed.wrapping_add(delta);
        prop_assert_ne!(cache_key(&cell), cache_key(&other));
    }

    #[test]
    fn policy_perturbs_key(cell in arb_cell(), s in 0usize..4) {
        // same workload/config/seed under a different policy
        let mut other = cell.clone();
        other.policy = wire_campaign::PolicyKind::Oracle;
        prop_assert_ne!(cache_key(&cell), cache_key(&other));

        // ...and across any two distinct baseline settings (config held fixed)
        let a = SETTINGS[s];
        let b = SETTINGS[(s + 1) % 4];
        let mut cell_a = cell.clone();
        let mut cell_b = cell.clone();
        cell_a.policy = policy_of(a);
        cell_b.policy = policy_of(b);
        prop_assert_ne!(cache_key(&cell_a), cache_key(&cell_b));
    }

    #[test]
    fn launch_lag_perturbs_key(cell in arb_cell(), extra_ms in 1u64..600_000) {
        let mut other = cell.clone();
        other.cfg.launch_lag = cell.cfg.launch_lag + Millis::from_ms(extra_ms);
        prop_assert_ne!(cache_key(&cell), cache_key(&other));
    }

    #[test]
    fn charging_unit_perturbs_key(cell in arb_cell(), extra_mins in 1u64..120) {
        let mut other = cell.clone();
        other.cfg.charging_unit = cell.cfg.charging_unit + Millis::from_mins(extra_mins);
        prop_assert_ne!(cache_key(&cell), cache_key(&other));
    }

    #[test]
    fn workload_scale_perturbs_key(cell in arb_cell()) {
        // the S ↔ L dataset-scale flip of the same workflow family
        let mut other = cell.clone();
        other.workload = wire_campaign::CellWorkload::Catalog(flip_scale(workload_of(&cell)));
        prop_assert_ne!(cache_key(&cell), cache_key(&other));
    }

    #[test]
    fn version_bump_invalidates_every_key(cell in arb_cell()) {
        prop_assert_ne!(
            cache_key_versioned(&cell, CACHE_FORMAT_VERSION),
            cache_key_versioned(&cell, CACHE_FORMAT_VERSION + 1)
        );
    }
}

fn policy_of(s: Setting) -> wire_campaign::PolicyKind {
    // Cell::grid derives the policy from the setting; reuse it rather than
    // duplicating the mapping here
    Cell::grid(WorkloadId::Tpch6S, s, Millis::from_mins(15), 0).policy
}

fn workload_of(cell: &Cell) -> WorkloadId {
    match cell.workload {
        wire_campaign::CellWorkload::Catalog(id) => id,
        _ => unreachable!("arb_cell only generates catalog cells"),
    }
}

fn flip_scale(id: WorkloadId) -> WorkloadId {
    match id {
        WorkloadId::Tpch6S => WorkloadId::Tpch6L,
        WorkloadId::Tpch6L => WorkloadId::Tpch6S,
        WorkloadId::Tpch1S => WorkloadId::Tpch1L,
        WorkloadId::Tpch1L => WorkloadId::Tpch1S,
        WorkloadId::PageRankS => WorkloadId::PageRankL,
        WorkloadId::PageRankL => WorkloadId::PageRankS,
        WorkloadId::EpigenomicsS => WorkloadId::EpigenomicsL,
        WorkloadId::EpigenomicsL => WorkloadId::EpigenomicsS,
    }
}

/// A wire cell with a non-default value in every field: a priced family
/// table with a spot tier, a budget, an MTBF, a non-default scheduler and
/// non-default steering knobs.
fn rich_cell() -> Cell {
    Cell {
        workload: CellWorkload::Catalog(WorkloadId::Tpch1L),
        policy: PolicyKind::Wire(SteeringConfig {
            waste_fraction: 0.3,
            fill_target: 0.75,
            spot_on_demand_floor: Some(0.25),
            memory_blind_families: true,
            budget_knee: 0.6,
            budget_spend_early: true,
            mutation_drop_restart_guard: true,
            mutation_ignore_budget_veto: true,
        }),
        cfg: CloudConfig {
            slots_per_instance: 3,
            site_capacity: 9,
            launch_lag: Millis::from_secs(100),
            charging_unit: Millis::from_mins(7),
            mape_interval: Millis::from_secs(50),
            initial_instances: 2,
            scheduler: SchedulerSpec::Heft,
            exec_jitter: 0.1,
            mean_time_between_failures: Some(Millis::from_mins(90)),
            run_setup: Millis::from_secs(70),
            run_teardown: Millis::from_secs(40),
            max_sim_time: Millis::from_mins(5000),
            families: vec![
                FamilySpec {
                    name: "od".into(),
                    slots: 3,
                    speed: 1.5,
                    price_milli: 900,
                    mem_mb: 4096,
                    spot: None,
                },
                FamilySpec {
                    name: "sp".into(),
                    slots: 2,
                    speed: 0.75,
                    price_milli: 800,
                    mem_mb: 2048,
                    spot: Some(SpotSpec {
                        mean_time_between_evictions: Millis::from_mins(20),
                        price_milli: 300,
                    }),
                },
            ],
            budget: Some(BudgetConfig {
                ceiling_milli: 5000,
            }),
            mutation_bill_eviction_grace: true,
        },
        transfer: TransferKind::Default,
        seed: 17,
    }
}

fn steering(cell: &mut Cell) -> &mut SteeringConfig {
    match &mut cell.policy {
        PolicyKind::Wire(s) => s,
        _ => unreachable!("rich_cell runs the wire policy"),
    }
}

fn spot(cell: &mut Cell) -> &mut SpotSpec {
    cell.cfg.families[1]
        .spot
        .as_mut()
        .expect("family 1 is spot")
}

/// The next representable float: even one-ulp changes must move the key.
fn ulp(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn ms(m: Millis) -> Millis {
    m + Millis::from_ms(1)
}

/// Change one field at a time, across every struct a cell carries, and
/// require a new key each time. Every struct is destructured without `..`:
/// a new field breaks this test's build until it is covered here, and no
/// cache code needs editing for the key to see it.
#[test]
fn every_field_moves_the_key() {
    let base = rich_cell();
    let mut edits: Vec<(&str, Cell)> = Vec::new();
    let mut vary = |field: &'static str, edit: &dyn Fn(&mut Cell)| {
        let mut cell = base.clone();
        edit(&mut cell);
        assert_ne!(cell, base, "{field}: the edit must change the cell");
        edits.push((field, cell));
    };

    let Cell {
        workload: _,
        policy,
        cfg,
        transfer: _,
        seed,
    } = &base;
    vary("workload", &|c| {
        c.workload = CellWorkload::Catalog(WorkloadId::Tpch1S)
    });
    vary("policy", &|c| c.policy = PolicyKind::Oracle);
    vary("transfer", &|c| c.transfer = TransferKind::None);
    vary("seed", &|c| c.seed = seed + 1);

    let SteeringConfig {
        waste_fraction,
        fill_target,
        spot_on_demand_floor,
        memory_blind_families,
        budget_knee,
        budget_spend_early,
        mutation_drop_restart_guard,
        mutation_ignore_budget_veto,
    } = match policy {
        PolicyKind::Wire(s) => *s,
        _ => unreachable!("rich_cell runs the wire policy"),
    };
    vary("waste_fraction", &|c| {
        steering(c).waste_fraction = ulp(waste_fraction)
    });
    vary("fill_target", &|c| {
        steering(c).fill_target = ulp(fill_target)
    });
    vary("spot_on_demand_floor", &|c| {
        steering(c).spot_on_demand_floor = spot_on_demand_floor.map(ulp)
    });
    vary("spot_on_demand_floor: None", &|c| {
        steering(c).spot_on_demand_floor = None
    });
    vary("memory_blind_families", &|c| {
        steering(c).memory_blind_families = !memory_blind_families
    });
    vary("budget_knee", &|c| {
        steering(c).budget_knee = ulp(budget_knee)
    });
    vary("budget_spend_early", &|c| {
        steering(c).budget_spend_early = !budget_spend_early
    });
    vary("mutation_drop_restart_guard", &|c| {
        steering(c).mutation_drop_restart_guard = !mutation_drop_restart_guard
    });
    vary("mutation_ignore_budget_veto", &|c| {
        steering(c).mutation_ignore_budget_veto = !mutation_ignore_budget_veto
    });

    let CloudConfig {
        slots_per_instance,
        site_capacity,
        launch_lag,
        charging_unit,
        mape_interval,
        initial_instances,
        scheduler: _,
        exec_jitter,
        mean_time_between_failures,
        run_setup,
        run_teardown,
        max_sim_time,
        families,
        budget,
        mutation_bill_eviction_grace,
    } = cfg;
    vary("slots_per_instance", &|c| {
        c.cfg.slots_per_instance = slots_per_instance + 1
    });
    vary("site_capacity", &|c| {
        c.cfg.site_capacity = site_capacity + 1
    });
    vary("launch_lag", &|c| c.cfg.launch_lag = ms(*launch_lag));
    vary("charging_unit", &|c| {
        c.cfg.charging_unit = ms(*charging_unit)
    });
    vary("mape_interval", &|c| {
        c.cfg.mape_interval = ms(*mape_interval)
    });
    vary("initial_instances", &|c| {
        c.cfg.initial_instances = initial_instances + 1
    });
    vary("scheduler", &|c| c.cfg.scheduler = SchedulerSpec::MinMin);
    vary("exec_jitter", &|c| c.cfg.exec_jitter = ulp(*exec_jitter));
    vary("mean_time_between_failures", &|c| {
        c.cfg.mean_time_between_failures = mean_time_between_failures.map(ms)
    });
    vary("mean_time_between_failures: None", &|c| {
        c.cfg.mean_time_between_failures = None
    });
    vary("run_setup", &|c| c.cfg.run_setup = ms(*run_setup));
    vary("run_teardown", &|c| c.cfg.run_teardown = ms(*run_teardown));
    vary("max_sim_time", &|c| c.cfg.max_sim_time = ms(*max_sim_time));
    vary("families: order", &|c| c.cfg.families.reverse());
    vary("families: len", &|c| c.cfg.families.truncate(1));
    vary("budget: None", &|c| c.cfg.budget = None);
    vary("mutation_bill_eviction_grace", &|c| {
        c.cfg.mutation_bill_eviction_grace = !mutation_bill_eviction_grace
    });

    let BudgetConfig { ceiling_milli } = budget.expect("rich_cell has a budget");
    vary("budget.ceiling_milli", &|c| {
        c.cfg.budget = Some(BudgetConfig::new(ceiling_milli + 1))
    });

    for (i, family) in families.iter().enumerate() {
        let FamilySpec {
            name,
            slots,
            speed,
            price_milli,
            mem_mb,
            spot: tier,
        } = family;
        vary("family.name", &|c| {
            c.cfg.families[i].name = format!("{name}x")
        });
        vary("family.slots", &|c| c.cfg.families[i].slots = slots + 1);
        vary("family.speed", &|c| c.cfg.families[i].speed = ulp(*speed));
        vary("family.price_milli", &|c| {
            c.cfg.families[i].price_milli = price_milli + 1
        });
        vary("family.mem_mb", &|c| c.cfg.families[i].mem_mb = mem_mb + 1);
        vary("family.spot", &|c| {
            c.cfg.families[i].spot = match tier {
                Some(_) => None,
                None => Some(SpotSpec {
                    mean_time_between_evictions: Millis::from_mins(30),
                    price_milli: 400,
                }),
            }
        });
    }

    let SpotSpec {
        mean_time_between_evictions,
        price_milli,
    } = families[1].spot.expect("family 1 is spot");
    vary("spot.mean_time_between_evictions", &|c| {
        spot(c).mean_time_between_evictions = ms(mean_time_between_evictions)
    });
    vary("spot.price_milli", &|c| {
        spot(c).price_milli = price_milli + 1
    });

    // the scheduler is an enum: every other variant must move the key too
    for other in SchedulerSpec::ALL {
        if other != cfg.scheduler {
            let mut cell = base.clone();
            cell.cfg.scheduler = other;
            edits.push(("scheduler variant", cell));
        }
    }

    let key = cache_key(&base);
    assert_eq!(key, cache_key(&base.clone()), "equal cells share a key");
    for (field, cell) in &edits {
        assert_ne!(
            cache_key(cell),
            key,
            "changing {field} must change the cache key"
        );
    }
}

/// The linear-stage workload's own fields move the key too.
#[test]
fn linear_stage_fields_move_the_key() {
    let u = Millis::from_mins(1);
    let base = Cell::linear(100, Millis::from_mins(4), u);
    let CellWorkload::LinearStage { n, r } = base.workload else {
        unreachable!("Cell::linear builds a linear stage")
    };
    let mut more_tasks = base.clone();
    more_tasks.workload = CellWorkload::LinearStage { n: n + 1, r };
    let mut longer = base.clone();
    longer.workload = CellWorkload::LinearStage { n, r: ms(r) };
    let mut probe = base.clone();
    probe.workload = CellWorkload::RestartProbe;
    for other in [more_tasks, longer, probe] {
        assert_ne!(cache_key(&other), cache_key(&base), "{:?}", other.workload);
    }
}
