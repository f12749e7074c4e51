//! The sharded sweep driver: runs a `.peas` sweep across N worker
//! processes with per-shard checkpointing, worker supervision and a
//! `--resume` path. The journal is a private result store
//! (`peas_sim::cache`): worker slot `i` appends checksummed records to
//! `cache-<i>.jsonl`, and damaged records are quarantined and re-run.
//!
//! ```text
//! Usage: sweep <command> <scenario> --journal DIR [options]
//!
//! Commands:
//!   run      execute the sweep across worker processes, then merge
//!   status   print journal progress (completed/total, quarantined and
//!            torn records, missing shards)
//!   verify   compare two journals' merged reports byte for byte
//!   worker   internal: run one worker slot in-process
//!
//! Options (run):
//!   --journal DIR        checkpoint directory (required)
//!   --workers N          worker processes (default: available cores)
//!   --retries K          respawns per worker after a death (default 2)
//!   --timeout-secs S     kill a worker with no journal progress for S
//!                        seconds (default 600, 0 disables)
//!   --resume             continue an existing journal instead of
//!                        refusing to touch it
//!   --kill-worker W:K    fault injection: worker W's first attempt is
//!                        SIGKILLed after journaling K shards
//!
//! Options (verify):
//!   --against DIR        the reference journal to compare with
//!
//! Options (worker):
//!   --shard I/N          this worker's slot (self-schedules over the
//!                        journal: runs novel shards with index%N==I)
//!   --die-after K        fault injection: SIGKILL self after K shards
//! ```
//!
//! `<scenario>` is a corpus stem (e.g. `sweep-smoke`, resolving to
//! `scenarios/sweep-smoke.peas`) or a path to any `.peas` file. A sweep
//! interrupted at any point — worker SIGKILL, machine crash, ^C — resumes
//! with `--resume` and produces a merged report byte-identical to an
//! uninterrupted run (pinned by `tests/sweep_resume.rs` and the
//! `sweep-resume` CI job).

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::time::{Duration, Instant};

use peas_bench::cli::{corpus_dir, sigkill_self, Args};
use peas_bench::sweeps::run_slot;
use peas_scenario::{load_compiled, sample_fingerprint, CompiledScenario};
use peas_sim::{encode_report, fnv1a_parts, CacheScan, ResultCache, RunReport, SweepPlan};

const VALUE_FLAGS: &[&str] = &[
    "--journal",
    "--workers",
    "--retries",
    "--timeout-secs",
    "--kill-worker",
    "--against",
    "--shard",
    "--die-after",
];

/// FNV-1a over the per-run fingerprint renderings: one number that pins
/// the whole merged sweep.
fn sweep_fingerprint(reports: &[RunReport]) -> u64 {
    fnv1a_parts(
        reports
            .iter()
            .map(|report| format!("{:#018X}", sample_fingerprint(report))),
    )
}

/// Resolves `<scenario>` to a `.peas` path: a path is used as-is, a bare
/// stem resolves into the workspace `scenarios/` corpus.
fn scenario_path(arg: &str) -> PathBuf {
    let direct = Path::new(arg);
    if direct.extension().is_some_and(|ext| ext == "peas") {
        return direct.to_path_buf();
    }
    corpus_dir().join(format!("{arg}.peas"))
}

fn load_scenario(arg: &str) -> Result<CompiledScenario, String> {
    let path = scenario_path(arg);
    load_compiled(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A sweep's shard plan plus its journal: a private result store.
struct Journal {
    plan: SweepPlan,
    cache: ResultCache,
}

impl Journal {
    fn open(scenario: &CompiledScenario, dir: &Path) -> Result<Journal, String> {
        let runs = scenario
            .runs()
            .into_iter()
            .map(|run| (run.label, run.config));
        Ok(Journal {
            plan: SweepPlan::new(runs.collect()),
            cache: ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?,
        })
    }

    fn scan(&self) -> Result<CacheScan, String> {
        self.cache.scan().map_err(|e| e.to_string())
    }

    /// Bytes in worker slot `worker`'s segment (the watchdog's progress
    /// signal).
    fn segment_len(&self, worker: usize) -> u64 {
        std::fs::metadata(self.cache.segment_path(worker)).map_or(0, |m| m.len())
    }
}

/// Parses `I/N` (shard slot) or `W:K` (kill injection) pairs.
fn parse_pair(raw: &str, sep: char, what: &str) -> Result<(usize, usize), String> {
    raw.split_once(sep)
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("{what}: expected `A{sep}B`, got `{raw}`"))
}

fn cmd_worker(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let (worker, workers) = parse_pair(
        args.get("shard").ok_or("--shard I/N is required")?,
        '/',
        "--shard",
    )?;
    if workers == 0 || worker >= workers {
        return Err(format!("--shard: slot {worker}/{workers} out of range"));
    }
    let die_after: usize = args.get_parsed("die-after", usize::MAX)?;
    let journal = Journal::open(&load_scenario(scenario_arg)?, &args.dir("journal")?)?;
    let ran = run_slot(
        &journal.cache,
        &journal.plan,
        worker,
        workers,
        Some(die_after),
    )
    .map_err(|e| e.to_string())?;
    if ran >= die_after {
        sigkill_self();
    }
    eprintln!("[worker {worker}/{workers}] ran {ran} shard(s)");
    Ok(())
}

/// One supervised worker process.
struct Slot {
    worker: usize,
    child: Option<Child>,
    attempts: usize,
    /// Journal bytes in this worker's segment when progress last advanced.
    last_len: u64,
    last_advance: Instant,
}

fn spawn_worker(
    scenario_arg: &str,
    journal: &Path,
    worker: usize,
    workers: usize,
    die_after: Option<usize>,
) -> Result<Child, String> {
    let exe = env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg(scenario_arg)
        .arg("--journal")
        .arg(journal)
        .arg("--shard")
        .arg(format!("{worker}/{workers}"));
    if let Some(k) = die_after {
        cmd.arg("--die-after").arg(k.to_string());
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn worker {worker}: {e}"))
}

fn print_merge(scenario_name: &str, journal: &Journal, scan: &CacheScan) -> Result<(), String> {
    let reports = journal.plan.merged(scan).map_err(|e| e.to_string())?;
    for (shard, report) in journal.plan.shards().iter().zip(&reports) {
        println!("  {:<44} {:#018X}", shard.label, sample_fingerprint(report));
    }
    println!(
        "{scenario_name}: {} run(s) merged, sweep_fingerprint = {:#018X}",
        reports.len(),
        sweep_fingerprint(&reports)
    );
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn cmd_run(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let scenario = load_scenario(scenario_arg)?;
    let dir = args.dir("journal")?;
    let journal = Journal::open(&scenario, &dir)?;
    let total = journal.plan.len();

    let scan = journal.scan()?;
    if !scan.is_empty() && !args.has("resume") {
        return Err(format!(
            "journal {} already holds {} completed shard(s); \
             pass --resume to continue it or point --journal at a fresh directory",
            dir.display(),
            scan.len()
        ));
    }
    let done_before = journal.plan.cached(&scan);
    if done_before == total {
        println!("nothing to do: all {total} shard(s) already journaled");
        return print_merge(&scenario.name, &journal, &scan);
    }

    let default_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers: usize = args.get_parsed("workers", default_workers.min(total))?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let retries: usize = args.get_parsed("retries", 2)?;
    let timeout_secs: u64 = args.get_parsed("timeout-secs", 600)?;
    let kill = args
        .get("kill-worker")
        .map(|raw| parse_pair(raw, ':', "--kill-worker"))
        .transpose()?;

    println!(
        "{}: {total} shard(s) over {workers} worker(s){}",
        scenario.name,
        if done_before > 0 {
            format!(" (resuming, {done_before} already journaled)")
        } else {
            String::new()
        }
    );

    let mut slots = Vec::with_capacity(workers);
    for worker in 0..workers {
        let die_after = kill.and_then(|(w, k)| (w == worker).then_some(k));
        let child = spawn_worker(scenario_arg, &dir, worker, workers, die_after)?;
        slots.push(Slot {
            worker,
            child: Some(child),
            attempts: 1,
            last_len: journal.segment_len(worker),
            last_advance: Instant::now(),
        });
    }

    let mut deaths = 0usize;
    let mut last_reported = done_before;
    loop {
        let mut alive = false;
        for slot in &mut slots {
            let Some(child) = &mut slot.child else {
                continue;
            };
            // Progress watchdog: a worker whose segment hasn't grown for
            // the whole timeout is stuck inside one shard — kill it and
            // let the retry path re-run that shard.
            let len = journal.segment_len(slot.worker);
            if len > slot.last_len {
                slot.last_len = len;
                slot.last_advance = Instant::now();
            } else if timeout_secs > 0 && slot.last_advance.elapsed().as_secs() > timeout_secs {
                eprintln!(
                    "[sweep] worker {} made no progress for {timeout_secs}s; killing",
                    slot.worker
                );
                let _ = child.kill();
            }
            match child.try_wait().map_err(|e| e.to_string())? {
                None => alive = true,
                Some(status) if status.success() => slot.child = None,
                Some(status) => {
                    deaths += 1;
                    slot.child = None;
                    if slot.attempts <= retries {
                        eprintln!(
                            "[sweep] worker {} died ({status}); respawning (attempt {}/{})",
                            slot.worker,
                            slot.attempts + 1,
                            retries + 1
                        );
                        // Retries never re-inject the death fault: the
                        // injection models a one-off crash.
                        let child = spawn_worker(scenario_arg, &dir, slot.worker, workers, None)?;
                        slot.child = Some(child);
                        slot.attempts += 1;
                        slot.last_advance = Instant::now();
                        alive = true;
                    } else {
                        eprintln!(
                            "[sweep] worker {} died ({status}); retries exhausted",
                            slot.worker
                        );
                    }
                }
            }
        }
        let done = journal.plan.cached(&journal.scan()?);
        if done != last_reported {
            println!("[sweep] {done}/{total} shard(s) journaled");
            last_reported = done;
        }
        if !alive {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    if deaths > 0 {
        eprintln!("[sweep] {deaths} worker death(s) during the run");
    }
    let scan = journal.scan()?;
    match journal.plan.merged(&scan) {
        Ok(_) => print_merge(&scenario.name, &journal, &scan),
        Err(e) => Err(format!(
            "{e}; resume with: sweep run {scenario_arg} --journal {} --resume",
            dir.display()
        )),
    }
}

fn cmd_status(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let scenario = load_scenario(scenario_arg)?;
    let journal = Journal::open(&scenario, &args.dir("journal")?)?;
    let scan = journal.scan()?;
    println!(
        "{}: {}/{} shard(s) journaled",
        scenario.name,
        journal.plan.cached(&scan),
        journal.plan.len()
    );
    println!("journal: {scan}");
    let pending = journal.plan.novel(&scan);
    for shard in &pending {
        println!("  pending #{}: {}", shard.index, shard.label);
    }
    if pending.is_empty() {
        print_merge(&scenario.name, &journal, &scan)?;
    }
    Ok(())
}

fn cmd_verify(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let scenario = load_scenario(scenario_arg)?;
    let against = args
        .get("against")
        .ok_or("--against DIR is required for verify")?;
    let journal = Journal::open(&scenario, &args.dir("journal")?)?;
    let reference = Journal::open(&scenario, Path::new(against))?;
    let a = journal
        .plan
        .merged(&journal.scan()?)
        .map_err(|e| format!("--journal: {e}"))?;
    let b = reference
        .plan
        .merged(&reference.scan()?)
        .map_err(|e| format!("--against: {e}"))?;
    for (shard, (ra, rb)) in journal.plan.shards().iter().zip(a.iter().zip(&b)) {
        let (ea, eb) = (encode_report(ra), encode_report(rb));
        if ea != eb {
            return Err(format!(
                "shard #{} ({}) differs between the journals \
                 (fingerprints {:#018X} vs {:#018X})",
                shard.index,
                shard.label,
                sample_fingerprint(ra),
                sample_fingerprint(rb)
            ));
        }
    }
    println!(
        "verify ok: {} run(s) byte-identical, sweep_fingerprint = {:#018X}",
        a.len(),
        sweep_fingerprint(&a)
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = match Args::parse(&raw, VALUE_FLAGS) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let [command, scenario_arg] = &args.positional[..] else {
        eprintln!(
            "usage: sweep <run|status|verify|worker> <scenario> --journal DIR [options]\n\
             (e.g. `sweep run sweep-smoke --journal target/sweep --workers 2`; \
             see the module docs in crates/bench/src/bin/sweep.rs)"
        );
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(scenario_arg, &args),
        "status" => cmd_status(scenario_arg, &args),
        "verify" => cmd_verify(scenario_arg, &args),
        "worker" => cmd_worker(scenario_arg, &args),
        other => Err(format!(
            "unknown command `{other}`; expected run, status, verify or worker"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
