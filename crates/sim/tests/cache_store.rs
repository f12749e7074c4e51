//! Corruption conformance for the result cache: damage a segment at
//! property-chosen offsets — single-bit flips and truncations — and
//! prove the store's two safety rules:
//!
//! 1. **Never serve garbage.** Whatever survives a scan of a damaged
//!    store is byte-identical (schema-1) to the pristine record with
//!    the same key; corrupt records are detected by checksum, not
//!    decoded into plausible-but-wrong reports.
//! 2. **Converge by re-running.** Damaged records are classified (torn
//!    tail vs quarantined interior damage), the affected shards become
//!    novel again, and one execute pass restores a fully-served plan
//!    whose merged bytes equal the uncorrupted reference.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use peas_des::time::SimTime;
use peas_sim::{encode_report, ResultCache, ScenarioConfig, SweepPlan};

fn tiny(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::small();
    c.node_count = 25;
    c.horizon = SimTime::from_secs(300);
    c.with_seed(seed)
}

fn runs() -> Vec<(String, ScenarioConfig)> {
    vec![
        ("seed-1".to_string(), tiny(1)),
        ("seed-2".to_string(), tiny(2)),
    ]
}

struct Pristine {
    /// The bytes of a freshly-written single-writer segment holding
    /// both shards (two records, trailing newline).
    segment: Vec<u8>,
    /// The reference merged bytes of the two-shard plan.
    merged: Vec<String>,
}

/// Builds the pristine two-record segment once; every property case
/// starts from a byte-copy of it.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("peas-store-pristine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open cache");
        let plan = SweepPlan::new(runs());
        let scan = cache.scan().expect("scan empty");
        cache.execute(&plan.novel(&scan), 1).expect("execute");
        let scan = cache.scan().expect("rescan");
        let merged = plan
            .merged(&scan)
            .expect("complete")
            .iter()
            .map(encode_report)
            .collect();
        let segment = fs::read(cache.segment_path(0)).expect("read segment");
        let _ = fs::remove_dir_all(&dir);
        assert!(segment.ends_with(b"\n"));
        Pristine { segment, merged }
    })
}

/// Byte offset just past record 1's newline.
fn record_1_end() -> usize {
    pristine()
        .segment
        .iter()
        .position(|b| *b == b'\n')
        .expect("newline")
        + 1
}

fn temp_cache(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peas-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Scans a damaged store and asserts rule 1 + rule 2 for the two-shard
/// plan; returns the (quarantined, torn, re-run) counts.
fn check_damaged_store(dir: &PathBuf) -> (usize, usize, usize) {
    let cache = ResultCache::open(dir).expect("open damaged cache");
    let plan = SweepPlan::new(runs());
    let p = pristine();

    let scan = cache.scan().expect("a damaged store must still scan");
    // Rule 1: anything served is byte-identical to the pristine record.
    for (shard, want) in plan.shards().iter().zip(&p.merged) {
        if let Some(report) = scan.get(&shard.key) {
            assert_eq!(
                &encode_report(report),
                want,
                "damaged store served wrong bytes for {}",
                shard.label
            );
        }
    }
    let classified = (scan.quarantined, scan.torn);

    // Rule 2: novel shards re-run and the plan converges byte-exactly;
    // the re-run appends onto the damaged `cache-0.jsonl` itself.
    let novel = plan.novel(&scan);
    assert_eq!(
        novel.len() + plan.cached(&scan),
        plan.len(),
        "every shard is either served or novel"
    );
    cache.execute(&novel, 1).expect("re-execute");
    let scan = cache.scan().expect("post-repair scan");
    let merged: Vec<String> = plan
        .merged(&scan)
        .expect("complete after repair")
        .iter()
        .map(encode_report)
        .collect();
    assert_eq!(merged, p.merged, "repaired store diverges from reference");

    (classified.0, classified.1, novel.len())
}

/// Truncates the pristine segment to `cut` bytes and checks the store:
/// a cut that leaves a partial final line is a torn tail (never
/// quarantined), a cut at a record boundary leaves a smaller valid store,
/// exactly the shards whose records the cut reached re-run, and the plan
/// converges after the re-run.
fn check_truncation(cut: usize) {
    let p = pristine();
    let dir = temp_cache(0x5EED_0000 ^ cut as u64);
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("cache-0.jsonl"), &p.segment[..cut]).expect("write truncated segment");

    let (quarantined, torn, rerun) = check_damaged_store(&dir);
    assert_eq!(quarantined, 0, "a truncation must never quarantine");
    let record_1_end = record_1_end();
    let boundary = [0, record_1_end, p.segment.len()].contains(&cut);
    assert_eq!(
        torn,
        usize::from(!boundary),
        "cut at {cut} (record 1 ends at {record_1_end})"
    );
    let intact = usize::from(cut >= record_1_end) + usize::from(cut == p.segment.len());
    assert_eq!(
        rerun,
        2 - intact,
        "cut at {cut} re-runs only what it reached"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The cuts a killed writer leaves most often: none at all, a clean tear
/// at a record boundary, and half-written first and final records.
#[test]
fn truncation_boundaries_and_mid_record_tears_converge() {
    let (len, record_1_end) = (pristine().segment.len(), record_1_end());
    for cut in [
        0,
        record_1_end / 2,
        record_1_end - 1,
        record_1_end,
        (record_1_end + len) / 2,
        len - 1,
        len,
    ] {
        check_truncation(cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Flip one property-chosen bit anywhere in the segment: the store
    /// never serves the damaged record and converges after a re-run.
    #[test]
    fn bit_flips_are_detected_and_repaired(raw_offset in any::<u64>(), bit in 0u8..8) {
        let p = pristine();
        let offset = (raw_offset as usize) % p.segment.len();
        let mut bytes = p.segment.clone();
        bytes[offset] ^= 1 << bit;

        let dir = temp_cache(raw_offset ^ u64::from(bit));
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("cache-0.jsonl"), &bytes).expect("write damaged segment");

        let (quarantined, torn, _) = check_damaged_store(&dir);
        // Flipping the final newline tears the tail; flipping a byte of
        // record 2 (after record 1's newline) damages only the tail line,
        // which still ends in '\n' and is therefore quarantined, not torn.
        let record_1_len = record_1_end() - 1;
        if offset == p.segment.len() - 1 {
            prop_assert_eq!((quarantined, torn), (0, 1), "newline flip tears the tail");
        } else if offset > record_1_len {
            prop_assert_eq!((quarantined, torn), (1, 0), "interior tail-record damage");
        } else {
            // Record 1 (or its newline): a newline flip fuses the two
            // records into one damaged line; a body flip damages just
            // record 1. Either way at least one record is quarantined.
            prop_assert!(quarantined >= 1 && torn == 0, "got {quarantined}/{torn}");
        }

        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncate the segment at a property-chosen offset (the full length
    /// included, which keeps the pristine store).
    #[test]
    fn truncations_are_torn_tails_and_repaired(raw_cut in any::<u64>()) {
        check_truncation((raw_cut as usize) % (pristine().segment.len() + 1));
    }
}
