//! Prove campaign-level invariant checking has teeth *inside the pool*: a
//! parallel campaign containing the chaos harness's restart-guard mutant
//! must attribute a `c_j` decision-journal violation to exactly that cell,
//! while every healthy cell stays clean.

use wire_campaign::{run_campaign, CacheMode, CampaignConfig, Cell};
use wire_core::experiment::{cloud_config, Setting};
use wire_dag::Millis;
use wire_workloads::WorkloadId;

fn checked(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads: Some(threads),
        mode: CacheMode::Off,
        check: true,
        ..Default::default()
    }
}

#[test]
fn mutant_cell_is_named_from_a_parallel_campaign() {
    // healthy probe, the Algorithm 3 restart-guard mutant, and ordinary grid
    // cells around them so the violation has to be *attributed*, not just
    // detected somewhere in the batch
    let cells = vec![
        Cell::restart_probe(false),
        Cell::restart_probe(true),
        Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1),
        Cell::grid(
            WorkloadId::PageRankS,
            Setting::PureReactive,
            Millis::from_mins(15),
            1,
        ),
    ];
    let report = run_campaign(&cells, &checked(4));
    assert_eq!(report.executed, cells.len());

    let offenders: Vec<usize> = report.violations.iter().map(|v| v.cell).collect();
    assert!(
        offenders.iter().all(|&i| i == 1),
        "only the mutant cell may violate, got cells {offenders:?}: {:#?}",
        report.violations
    );
    assert!(
        !report.violations.is_empty(),
        "the restart-guard mutant must be caught"
    );
    let named = &report.violations[0];
    assert!(
        named.label.contains("restart-probe") && named.label.contains("mut=true"),
        "violation must carry the offending cell's label, got {:?}",
        named.label
    );
    assert!(
        report.violations.iter().any(|v| v.message.contains("c_j")),
        "the dropped guard is Algorithm 3's c_j <= 0.2u condition: {:#?}",
        report.violations
    );
}

#[test]
fn clean_cells_produce_no_violations_and_checking_is_observational() {
    let cells = vec![
        Cell::restart_probe(false),
        Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1),
        Cell::grid(
            WorkloadId::Tpch6S,
            Setting::FullSite,
            Millis::from_mins(15),
            1,
        ),
        Cell::oracle(
            WorkloadId::Tpch6S,
            cloud_config(Setting::Wire, Millis::from_mins(15)),
            1,
        ),
    ];
    let watched = run_campaign(&cells, &checked(2));
    assert!(
        watched.violations.is_empty(),
        "healthy cells must be clean: {:#?}",
        watched.violations
    );

    // recorders are observational: the checked outputs equal unchecked ones
    let plain = run_campaign(
        &cells,
        &CampaignConfig {
            check: false,
            ..checked(2)
        },
    );
    assert_eq!(watched.outputs, plain.outputs);
}
