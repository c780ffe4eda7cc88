//! Garbled-input robustness of the text decoders that read files from disk:
//! the archived campaign CSV (`wire campaign analyze`), replay traces
//! (`wire replay`), campaign cache entries and the observability snapshot
//! (`wire report`). Seeded truncations and byte flips of a valid file must
//! come back as an error or a value, never as a panic. A well-formed campaign
//! row carrying an out-of-domain value must come back as an error naming its
//! line, never as a silently cast number.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use wire::core::experiment::Setting;
use wire::core::{parse_csv, to_csv, FlatRun};
use wire::dag::Millis;
use wire::obs::{ObsConfig, ObsSnapshot, StreamingRecorder};
use wire::workloads::{export_trace, parse_trace, WorkloadId};
use wire_campaign::{cache, execute, Cell, CACHE_FORMAT_VERSION};

/// Damage a valid file: keep the first `cut`‰ of it (anything past 1000
/// keeps it whole), then xor each `(at‰, mask)` byte.
fn garble(valid: &[u8], cut: u32, flips: &[(u32, u8)]) -> Vec<u8> {
    let keep = valid.len() * cut.min(1000) as usize / 1000;
    let mut bytes = valid[..keep].to_vec();
    if !bytes.is_empty() {
        for &(at, mask) in flips {
            let i = (bytes.len() - 1) * at as usize / 1000;
            bytes[i] ^= mask;
        }
    }
    bytes
}

/// The damage strategy shared by every property: a cut point (a sixth of
/// the cases keep the whole file) and up to six byte flips.
fn damage() -> impl Strategy<Value = (u32, Vec<(u32, u8)>)> {
    (0..=1200u32, vec((0..=1000u32, 1..=255u8), 0..7))
}

fn campaign_csv() -> String {
    let rows: Vec<FlatRun> = (0..4)
        .map(|k| FlatRun {
            workload: "TPCH-6 S".into(),
            setting: ["full-site", "wire"][k % 2].into(),
            charging_unit_mins: 15.0,
            repetition: k / 2,
            cost_units: 3 + k as u64,
            makespan_secs: 886.732,
            peak_instances: 4,
            restarts: 1,
            busy_slot_secs: 1200.5,
            wasted_slot_secs: 10.25,
        })
        .collect();
    to_csv(&rows)
}

fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wire-garbled-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real cache entry under [`KEY`]: one small linear-stage cell, executed
/// and stored once.
fn cache_entry() -> &'static [u8] {
    static ENTRY: OnceLock<Vec<u8>> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let dir = cache_dir("valid");
        let cell = Cell::linear(4, Millis::from_mins(2), Millis::from_mins(1));
        cache::store(&dir, KEY, &execute(&cell, false).0).unwrap();
        let bytes = std::fs::read(cache::entry_path(&dir, KEY)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

const KEY: u64 = 7;

fn obs_snapshot() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let cell = Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1);
        let obs = StreamingRecorder::with_config(ObsConfig::per_interval(cell.cfg.mape_interval));
        cell.run(None, Some(obs.clone()));
        obs.snapshot().to_json_string()
    })
}

/// Well-formed values outside a count column's domain (unsigned integers).
const BAD_COUNTS: [&str; 7] = [
    "-1",
    "2.9",
    "nan",
    "inf",
    "1e3",
    "-0.5",
    "18446744073709551616",
];
/// Well-formed values outside a float column's domain (finite,
/// non-negative numbers).
const BAD_FLOATS: [&str; 7] = ["nan", "NaN", "inf", "-inf", "-1", "-60", "-0.5"];
/// Well-formed values outside `u_mins`'s domain (finite, positive numbers).
const BAD_U_MINS: [&str; 7] = ["0", "-15", "0.0", "-1e-9", "nan", "inf", "-inf"];

/// FNV-1a, the cache's payload checksum: resealing a garbled payload under
/// a matching header lets the damage reach the payload parser.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn campaign_csv_decoder_never_panics((cut, flips) in damage()) {
        let bytes = garble(campaign_csv().as_bytes(), cut, &flips);
        let _ = parse_csv(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn campaign_csv_decoder_rejects_out_of_domain_values(
        row in 0usize..4,
        col in 2usize..10,
        pick in 0usize..BAD_COUNTS.len(),
    ) {
        // u_mins, makespan, busy and wasted are floats; the rest are counts
        let bad = match col {
            2 => BAD_U_MINS[pick],
            5 | 8 | 9 => BAD_FLOATS[pick],
            _ => BAD_COUNTS[pick],
        };
        let valid = campaign_csv();
        prop_assert!(parse_csv(&valid).is_ok());
        let text: Vec<String> = valid
            .lines()
            .enumerate()
            .map(|(i, line)| {
                if i != row + 1 {
                    return line.to_string();
                }
                let mut f: Vec<&str> = line.split(',').collect();
                f[col] = bad;
                f.join(",")
            })
            .collect();
        let err = parse_csv(&text.join("\n"));
        prop_assert!(err.is_err(), "accepted {bad:?} in column {col}: {err:?}");
        let msg = err.unwrap_err();
        prop_assert!(msg.starts_with(&format!("line {}:", row + 2)), "{msg}");
    }

    #[test]
    fn trace_decoder_never_panics((cut, flips) in damage(), w in 0usize..WorkloadId::SMALL.len()) {
        let (wf, prof) = WorkloadId::SMALL[w].generate(1);
        let bytes = garble(export_trace(&wf, &prof).as_bytes(), cut, &flips);
        let _ = parse_trace("garbled", &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn obs_snapshot_decoder_never_panics((cut, flips) in damage()) {
        let bytes = garble(obs_snapshot().as_bytes(), cut, &flips);
        let _ = ObsSnapshot::from_json_str(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_entry_decoder_never_panics((cut, flips) in damage()) {
        let dir = cache_dir("entry");
        std::fs::write(cache::entry_path(&dir, KEY), garble(cache_entry(), cut, &flips)).unwrap();
        let _ = cache::load(&dir, KEY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resealed_cache_payload_decoder_never_panics((cut, flips) in damage()) {
        let dir = cache_dir("resealed");
        let valid = cache_entry();
        let split = valid.iter().position(|&b| b == b'\n').unwrap() + 1;
        let payload = garble(&valid[split..], cut, &flips);
        let mut entry = format!(
            "wire-campaign-cache v{CACHE_FORMAT_VERSION} key={KEY:016x} len={} sum={:016x}\n",
            payload.len(),
            fnv1a(&payload)
        )
        .into_bytes();
        entry.extend_from_slice(&payload);
        std::fs::write(cache::entry_path(&dir, KEY), entry).unwrap();
        let _ = cache::load(&dir, KEY);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
