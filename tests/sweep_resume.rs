//! Tier-1 kill/resume conformance for the sharded sweep engine: a sweep
//! whose journal (a private result store) is damaged mid-run — a torn
//! final line, exactly what a SIGKILL mid-write leaves behind, or a record
//! whose bits rotted but which still parses — and then resumed must merge
//! into reports byte-identical, via the schema-1 serialized form, to an
//! uninterrupted single-process run. The CI `sweep-resume` job proves the
//! same property across real worker processes with
//! `peas-bench sweep run sweep-smoke --kill-worker`.

use std::fs::OpenOptions;
use std::io::Read;
use std::path::{Path, PathBuf};

use peas_bench::sweeps::run_slot;
use peas_repro::scenario::load_compiled;
use peas_repro::simulation::report_json::parse_json;
use peas_repro::simulation::{encode_report, ResultCache, Runner, SweepPlan};

fn scenario_plan() -> SweepPlan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/sweep-smoke.peas");
    let compiled = load_compiled(&path).expect("sweep-smoke.peas must compile");
    SweepPlan::new(
        compiled
            .runs()
            .into_iter()
            .map(|run| (run.label, run.config))
            .collect(),
    )
}

/// The uninterrupted single-process reference: no store at all.
fn reference(plan: &SweepPlan) -> Vec<String> {
    let configs = plan.shards().iter().map(|s| s.config.clone()).collect();
    Runner::configs(configs)
        .run()
        .iter()
        .map(encode_report)
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peas-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the sweep as two worker slots, each to completion.
fn two_slot_journal(dir: &Path, plan: &SweepPlan) -> ResultCache {
    let cache = ResultCache::open(dir).expect("open journal");
    assert_eq!(run_slot(&cache, plan, 0, 2, None).expect("worker 0"), 2);
    assert_eq!(run_slot(&cache, plan, 1, 2, None).expect("worker 1"), 2);
    cache
}

/// Truncates worker 1's segment mid-way through its second record (shard
/// 3), leaving no trailing newline — a torn write.
fn tear_worker_1(cache: &ResultCache) {
    let segment = cache.segment_path(1);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&segment)
        .expect("open worker-1 segment");
    let mut text = String::new();
    file.read_to_string(&mut text).expect("read segment");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "worker 1 owns shards 1 and 3");
    let keep = lines[0].len() + 1 + lines[1].len() / 2;
    file.set_len(keep as u64).expect("truncate");
}

fn merged(cache: &ResultCache, plan: &SweepPlan) -> Vec<String> {
    plan.merged(&cache.scan().expect("scan"))
        .expect("complete")
        .iter()
        .map(encode_report)
        .collect()
}

fn novel_indices(cache: &ResultCache, plan: &SweepPlan) -> Vec<usize> {
    plan.novel(&cache.scan().expect("scan"))
        .iter()
        .map(|s| s.index)
        .collect()
}

/// The headline acceptance criterion: interrupt a sweep by truncating
/// its journal mid-line (a torn write), resume, and the merged reports
/// are byte-identical to an uninterrupted run's.
#[test]
fn interrupted_then_resumed_sweep_is_byte_identical_to_uninterrupted() {
    let plan = scenario_plan();
    assert_eq!(plan.len(), 4, "sweep-smoke expands to 2 values x 2 seeds");
    let reference = reference(&plan);

    let dir = temp_journal("kill");
    let cache = two_slot_journal(&dir, &plan);
    tear_worker_1(&cache);

    let scan = cache.scan().expect("scan");
    assert_eq!(plan.cached(&scan), 3, "the torn shard no longer counts");
    assert_eq!((scan.torn, scan.quarantined), (1, 0));
    assert_eq!(novel_indices(&cache, &plan), vec![3]);

    // Resume with a *different* worker topology (one slot) — the journal
    // is topology-independent, only novel shards re-run.
    let resumed = ResultCache::open(&dir).expect("reopen journal");
    let reran = run_slot(&resumed, &plan, 0, 1, None).expect("resume worker");
    assert_eq!(reran, 1, "resume re-runs exactly the torn shard");
    assert_eq!(
        merged(&resumed, &plan),
        reference,
        "resumed sweep must be byte-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail regression: resuming with the SAME worker topology appends
/// the re-run shard onto its own torn segment. The appender must first
/// truncate the torn half-line, or the new record fuses with it and the
/// shard stays novel forever.
#[test]
fn resume_onto_same_torn_segment_recovers_the_shard() {
    let plan = scenario_plan();
    let reference = reference(&plan);

    let dir = temp_journal("same-slot");
    let cache = two_slot_journal(&dir, &plan);
    tear_worker_1(&cache);

    // Resume with the SAME two-slot topology: worker 1 re-runs shard 3,
    // appending to the very segment that ends in a torn tail.
    let resumed = ResultCache::open(&dir).expect("reopen journal");
    assert_eq!(novel_indices(&resumed, &plan), vec![3]);
    assert_eq!(
        run_slot(&resumed, &plan, 1, 2, None).expect("resume worker 1"),
        1
    );
    assert_eq!(
        novel_indices(&resumed, &plan),
        Vec::<usize>::new(),
        "the appended record must be readable past the torn tail"
    );
    assert_eq!(
        merged(&resumed, &plan),
        reference,
        "same-slot resume must be byte-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fully-journaled sweep re-opened runs nothing new and still merges
/// identically (the `--resume` no-op path).
#[test]
fn resume_of_a_complete_journal_runs_nothing() {
    let plan = scenario_plan();
    let dir = temp_journal("noop");
    let cache = ResultCache::open(&dir).expect("open journal");
    assert_eq!(
        run_slot(&cache, &plan, 0, 1, None).expect("fill journal"),
        4
    );
    let first = merged(&cache, &plan);

    let reopened = ResultCache::open(&dir).expect("reopen");
    assert_eq!(run_slot(&reopened, &plan, 0, 1, None).expect("no-op"), 0);
    assert_eq!(merged(&reopened, &plan), first);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit rot that still parses: one digit inside a completed record's
/// report changes, so the line is valid JSON carrying a wrong report. The
/// record checksum must catch it — the scan quarantines the record, a
/// resume re-runs exactly that shard, and the merge is byte-identical to
/// the uninterrupted run instead of silently carrying the wrong number.
#[test]
fn flipped_digit_in_a_completed_record_is_quarantined_and_rerun() {
    let plan = scenario_plan();
    let reference = reference(&plan);

    let dir = temp_journal("bitflip");
    let cache = two_slot_journal(&dir, &plan);

    // Shard 0 is the first record of worker 0's segment. Change the last
    // digit of its first `total_wakeups` value.
    let segment = cache.segment_path(0);
    let text = std::fs::read_to_string(&segment).expect("read segment");
    let (first, rest) = text.split_once('\n').expect("two records");
    let field = first.find("\"total_wakeups\":").expect("a sample") + "\"total_wakeups\":".len();
    let digits = first[field..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number ends");
    let at = field + digits - 1;
    let flipped_digit = if &first[at..=at] == "9" { "8" } else { "9" };
    let flipped = format!("{}{flipped_digit}{}", &first[..at], &first[at + 1..]);
    assert!(
        parse_json(&flipped).is_ok(),
        "the damaged record still parses"
    );
    std::fs::write(&segment, format!("{flipped}\n{rest}")).expect("rewrite segment");

    let scan = cache.scan().expect("scan damaged journal");
    assert_eq!(scan.quarantined, 1, "the checksum rejects the record");
    assert_eq!(scan.torn, 0);
    assert_eq!(novel_indices(&cache, &plan), vec![0]);

    let resumed = ResultCache::open(&dir).expect("reopen journal");
    assert_eq!(
        run_slot(&resumed, &plan, 0, 2, None).expect("resume worker 0"),
        1,
        "resume re-runs exactly the damaged shard"
    );
    assert_eq!(
        merged(&resumed, &plan),
        reference,
        "a damaged record must never reach the merged reports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
