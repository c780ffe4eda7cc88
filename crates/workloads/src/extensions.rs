//! Extension workloads beyond the paper's Table I: Montage and CyberShake,
//! the other canonical Pegasus workflows from the profiling study the paper
//! cites for Epigenomics (Juve et al., *Characterizing and profiling
//! scientific workflows*, FGCS 2013 — the paper's \[17\]).
//!
//! These are not part of the paper's evaluation; they extend the harness so
//! WIRE can be exercised on differently-shaped DAGs (Montage's fan-in/fan-out
//! funnel, CyberShake's two-phase post-processing).

use crate::spec::{Linkage, StageSpec, WorkloadSpec};

/// Montage (astronomy mosaic): project N tiles, fit overlaps, model the
/// background, correct each tile, then assemble — a long funnel of
/// singleton stages after two wide ones. 9 stages.
pub fn montage(tiles: usize, data_bytes: u64, name: &str) -> WorkloadSpec {
    assert!(tiles >= 2, "a mosaic needs at least two tiles");
    WorkloadSpec {
        name: name.into(),
        stages: vec![
            StageSpec::new("mProjectPP", tiles, 13.0, 0.1, Linkage::Root, 1.0),
            // overlap fits between neighbouring tiles (~same width)
            StageSpec::new("mDiffFit", tiles, 10.0, 0.12, Linkage::Barrier, 0.7),
            StageSpec::new("mConcatFit", 1, 14.0, 0.05, Linkage::Barrier, 0.1),
            StageSpec::new("mBgModel", 1, 55.0, 0.05, Linkage::Barrier, 0.05),
            StageSpec::new("mBackground", tiles, 1.7, 0.1, Linkage::Barrier, 0.7),
            StageSpec::new("mImgtbl", 1, 3.0, 0.05, Linkage::Barrier, 0.05),
            StageSpec::new("mAdd", 1, 60.0, 0.05, Linkage::Barrier, 0.8),
            StageSpec::new("mShrink", 1, 3.2, 0.05, Linkage::Barrier, 0.3),
            StageSpec::new("mJPEG", 1, 0.7, 0.05, Linkage::Barrier, 0.1),
        ],
        total_input_bytes: data_bytes,
        run_cv: 0.12,
    }
}

/// Montage over a 2-degree region (the common benchmark size).
pub fn montage_2deg() -> WorkloadSpec {
    montage(60, 4_000_000_000, "montage-2deg")
}

/// CyberShake (seismic hazard): extract SGT pairs, synthesize seismograms per
/// rupture variation, compute peak values, zip. 5 stages.
pub fn cybershake(sgt_pairs: usize, variations_per_pair: usize, name: &str) -> WorkloadSpec {
    assert!(sgt_pairs >= 1 && variations_per_pair >= 1);
    let synth = sgt_pairs * variations_per_pair;
    WorkloadSpec {
        name: name.into(),
        stages: vec![
            StageSpec::new("ExtractSGT", sgt_pairs, 110.0, 0.15, Linkage::Root, 1.0),
            StageSpec::new(
                "SeismogramSynthesis",
                synth,
                48.0,
                0.2,
                Linkage::Barrier,
                0.6,
            ),
            StageSpec::new("ZipSeis", 1, 30.0, 0.05, Linkage::Barrier, 0.2),
            StageSpec::new("PeakValCalc", synth, 0.8, 0.1, Linkage::Barrier, 0.3),
            StageSpec::new("ZipPSA", 1, 25.0, 0.05, Linkage::Barrier, 0.1),
        ],
        total_input_bytes: data_bytes_for(synth),
        run_cv: 0.15,
    }
}

fn data_bytes_for(synth: usize) -> u64 {
    // SGT extractions dominate: ~150 MB per synthesis input
    (synth as u64) * 150_000_000
}

/// A small CyberShake site (8 SGT pairs × 10 variations = 80 synthesis tasks).
pub fn cybershake_small() -> WorkloadSpec {
    cybershake(8, 10, "cybershake-S")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::validate::check_stage_coherence;
    use wire_dag::width_profile;

    #[test]
    fn montage_shape() {
        let spec = montage_2deg();
        assert_eq!(spec.stages.len(), 9);
        assert_eq!(spec.num_tasks(), 60 + 60 + 1 + 1 + 60 + 1 + 1 + 1 + 1);
        let (wf, prof) = spec.generate(1);
        assert!(check_stage_coherence(&wf).is_ok());
        let wp = width_profile(&wf);
        assert_eq!(wp.depth(), 9);
        assert_eq!(wp.max_width(), 60);
        assert!(prof.matches(&wf));
    }

    #[test]
    fn cybershake_shape() {
        let spec = cybershake_small();
        assert_eq!(spec.stages.len(), 5);
        assert_eq!(spec.num_tasks(), 8 + 80 + 1 + 80 + 1);
        let (wf, _) = spec.generate(2);
        assert!(check_stage_coherence(&wf).is_ok());
        assert_eq!(width_profile(&wf).max_width(), 80);
    }

    #[test]
    fn extension_workflows_run_under_wire() {
        use wire_dag::Millis;
        // quick end-to-end sanity on the smaller of the two
        let (wf, prof) = cybershake(2, 4, "cs-tiny").generate(3);
        // (engine lives a crate up; just validate the structural contract
        // that the simulator needs)
        assert_eq!(wf.num_tasks(), prof.len());
        assert!(prof.aggregate() > Millis::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least two tiles")]
    fn montage_needs_tiles() {
        let _ = montage(1, 1000, "bad");
    }
}
