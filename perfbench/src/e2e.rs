//! The untraced run: end-to-end metrics a user of the simulator sees.
//!
//! `paper-480` builds and runs one world at a time, appending each report
//! to a fresh result cache the first time its seed comes up (the cold
//! pass). The sweep workload hands the whole plan to
//! `ResultCache::execute` on two workers. Both then resubmit their plan
//! against the cache (the warm pass), which must return every report
//! byte-identical. Every world and shard is checked against its pin; a
//! failed check is counted and its timings are left out of the medians.
//!
//! The warm pass is checked but not timed here: on a shared host its time
//! spread more from run to run than any regression bound allows. Its cost
//! is in the traced run's `cache.scan_s` and `cache.decode_us`.

use std::path::Path;
use std::time::{Duration, Instant};

use peas_sim::{encode_report, fnv1a, ResultCache, RunReport, SweepPlan, World};

use crate::metrics::{median, Values};
use crate::workload::{Pins, Plan};
use crate::{fresh_dir, peak_rss_mib, Outcome};

/// Worker threads for the sweep pool: the benchmark's load stays within
/// two threads in one process.
pub const SWEEP_WORKERS: usize = 2;

/// Each timing comes from at least this many repetitions, even when
/// `--seconds` runs out first.
const MIN_REPS: usize = 3;

/// Sweep set-ups timed before each cold pass.
const SETUP_REPS: usize = 25;

/// Whether one more repetition, expected to last as long as the median of
/// `past`, still ends within `budget` seconds of `start`.
fn fits(start: Instant, past: &[f64], budget: f64) -> bool {
    let next = if past.is_empty() { 0.0 } else { median(past) };
    start.elapsed().as_secs_f64() + next <= budget
}

/// Timings of one world built, run and reported in this process.
pub struct WorldTiming {
    pub setup: Duration,
    pub run: Duration,
    pub report: Duration,
}

/// Builds, runs and reports one world, timing the three phases apart.
pub fn run_world(config: peas_sim::ScenarioConfig) -> (RunReport, WorldTiming) {
    let horizon = config.horizon;
    let t0 = Instant::now();
    let mut world = World::new(config);
    let t1 = Instant::now();
    world.run_until(horizon);
    let t2 = Instant::now();
    let report = world.into_report();
    let t3 = Instant::now();
    let timing = WorldTiming {
        setup: t1 - t0,
        run: t2 - t1,
        report: t3 - t2,
    };
    (report, timing)
}

/// Runs `f`, turning a panic into an error so it counts as a failed check.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&p))))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

pub fn measure(plan: &Plan, pins: &Pins, seconds: f64, scratch: &Path) -> Outcome {
    if plan.workload.is_sweep() {
        measure_sweep(plan, pins, seconds, scratch)
    } else {
        measure_worlds(plan, pins, seconds, scratch)
    }
}

/// Warm resubmission: scan the cache, require every shard to be cached,
/// merge, and check each merged report's bytes against `expect_fnv`.
fn warm_pass(cache: &ResultCache, sweep: &SweepPlan, expect_fnv: &[u64]) -> Result<(), String> {
    let scan = cache.scan().map_err(|e| format!("scan: {e}"))?;
    let novel = sweep.novel(&scan);
    let merged = sweep.merged(&scan).map_err(|e| format!("merge: {e}"));
    if !novel.is_empty() || scan.quarantined != 0 {
        return Err(format!(
            "warm pass: {} novel shards, {} quarantined",
            novel.len(),
            scan.quarantined
        ));
    }
    for (report, want) in merged?.iter().zip(expect_fnv) {
        if fnv1a(encode_report(report).as_bytes()) != *want {
            return Err("warm report differs from the cold pass".to_string());
        }
    }
    Ok(())
}

/// One cache entry per plan run, keyed like the sweep service keys it.
fn sweep_plan(plan: &Plan) -> SweepPlan {
    SweepPlan::new(
        plan.runs
            .iter()
            .map(|r| (r.label.clone(), r.config.clone()))
            .collect(),
    )
}

fn measure_worlds(plan: &Plan, pins: &Pins, seconds: f64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let sweep = sweep_plan(plan);
    let cache_dir = scratch.join("cache");
    let cache = fresh_dir(&cache_dir)
        .and_then(|()| ResultCache::open(&cache_dir).map_err(|e| e.to_string()));
    let cache = match cache {
        Ok(c) => c,
        Err(e) => return Outcome::broken(e),
    };
    let mut writer = match cache.writer(0) {
        Ok(w) => w,
        Err(e) => return Outcome::broken(format!("cache writer: {e}")),
    };

    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = |i: usize, out: &mut Outcome, cold: bool| -> Option<(RunReport, Duration)> {
        let (shard, run) = (
            &sweep.shards()[i % sweep.len()],
            &plan.runs[i % plan.runs.len()],
        );
        out.attempted += 1;
        let result = guarded(|| {
            let (report, t) = run_world(run.config.clone());
            pins.check(plan, &run.label, &report)?;
            let mut append = Duration::ZERO;
            if cold {
                let t0 = Instant::now();
                writer
                    .append(shard.key, &shard.label, &report)
                    .map_err(|e| format!("append: {e}"))?;
                append = t0.elapsed();
            }
            Ok((report, t, append))
        });
        match result {
            Ok((report, t, append)) => {
                let total = t.setup + t.run + t.report;
                setup.push(t.setup.as_secs_f64());
                wall.push(total.as_secs_f64());
                rate.push(report.events_processed as f64 / t.run.as_secs_f64());
                Some((report, total + append))
            }
            Err(e) => {
                out.fail(e);
                None
            }
        }
    };

    // The first visit of each run is the cold pass: its report goes into
    // the cache. Later visits repeat worlds for steadier medians.
    let start = Instant::now();
    let mut cold_time = Duration::ZERO;
    let (mut stored, mut report_fnv, mut visits) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while i < MIN_REPS || fits(start, &visits, seconds) {
        let cold = i < plan.runs.len();
        if let Some((report, took)) = world(i, &mut out, cold) {
            visits.push(took.as_secs_f64());
            if cold {
                cold_time += took;
                let run = &plan.runs[i];
                stored.push((run.label.clone(), run.config.clone()));
                report_fnv.push(fnv1a(encode_report(&report).as_bytes()));
            }
        }
        i += 1;
    }

    let warm_sweep = SweepPlan::new(stored);
    if !warm_sweep.is_empty() {
        out.attempted += 1;
        if let Err(e) = warm_pass(&cache, &warm_sweep, &report_fnv) {
            out.fail(e);
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    if setup.is_empty() {
        out.fail("no valid timing".to_string());
        return out;
    }
    let mut v = Values::default();
    v.set("setup_s", median(&setup));
    v.set("wall_s", median(&wall));
    v.set("events_per_s", median(&rate));
    v.set(
        "cold_shards_per_s",
        warm_sweep.len() as f64 / cold_time.as_secs_f64(),
    );
    v.set("peak_rss_mib", peak_rss_mib());
    out.values = v;
    out
}

fn measure_sweep(plan: &Plan, pins: &Pins, seconds: f64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cache_dir = scratch.join("cache");

    // Set-up as a sweep user pays it: compile the scenario, expand and
    // key the plan, open the store. A batch runs before every cold pass,
    // so the median spans the whole run.
    let set_up = |setup: &mut Vec<f64>| -> Result<SweepPlan, String> {
        let mut sweep = None;
        for _ in 0..SETUP_REPS {
            fresh_dir(&cache_dir)?;
            let t0 = Instant::now();
            let p = crate::workload::plan(&plan.root, plan.workload, plan.seed, !plan.pinned)?;
            let s = sweep_plan(&p);
            ResultCache::open(&cache_dir).map_err(|e| e.to_string())?;
            setup.push(t0.elapsed().as_secs_f64());
            sweep = Some(s);
        }
        Ok(sweep.expect("SETUP_REPS > 0"))
    };
    let mut setup = Vec::new();
    let sweep = match set_up(&mut setup) {
        Ok(s) => s,
        Err(e) => return Outcome::broken(e),
    };
    let expect_fnv: Vec<u64> = plan
        .runs
        .iter()
        .map(|r| pins.get(plan.workload, &r.label).map(|p| p.report_fnv))
        .collect::<Option<Vec<u64>>>()
        .unwrap_or_default();

    let (mut cold, mut rate, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while cold.is_empty() || fits(start, &pass_s, seconds) {
        let pass_start = Instant::now();
        out.attempted += sweep.len();
        let pass = guarded(|| {
            if !cold.is_empty() {
                set_up(&mut setup)?;
            }
            fresh_dir(&cache_dir)?;
            let cache = ResultCache::open(&cache_dir).map_err(|e| e.to_string())?;
            let scan = cache.scan().map_err(|e| e.to_string())?;
            let novel = sweep.novel(&scan);
            let t0 = Instant::now();
            cache
                .execute(&novel, SWEEP_WORKERS)
                .map_err(|e| format!("execute: {e}"))?;
            let cold_s = t0.elapsed().as_secs_f64();
            // Check every shard the cold pass stored against its pin.
            let scan = cache.scan().map_err(|e| e.to_string())?;
            let merged = sweep.merged(&scan).map_err(|e| e.to_string())?;
            let mut events = 0;
            let mut fnvs = Vec::with_capacity(merged.len());
            for (run, report) in plan.runs.iter().zip(&merged) {
                pins.check(plan, &run.label, report)?;
                events += report.events_processed;
                fnvs.push(fnv1a(encode_report(report).as_bytes()));
            }
            if plan.pinned && fnvs != expect_fnv {
                return Err("cold reports differ from the pins".to_string());
            }
            warm_pass(&cache, &sweep, &fnvs)?;
            Ok((cold_s, events))
        });
        match pass {
            Ok((c, events)) => {
                pass_s.push(pass_start.elapsed().as_secs_f64());
                cold.push(c);
                rate.push(events as f64 / c);
            }
            Err(e) => {
                out.failed += sweep.len() - 1;
                out.fail(e);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    if cold.is_empty() {
        return out;
    }
    let setup_s = median(&setup);
    let cold_s = median(&cold);
    let mut v = Values::default();
    v.set("setup_s", setup_s);
    v.set("wall_s", setup_s + cold_s);
    v.set("events_per_s", median(&rate));
    v.set("cold_shards_per_s", sweep.len() as f64 / cold_s);
    v.set("peak_rss_mib", peak_rss_mib());
    out.values = v;
    out
}
