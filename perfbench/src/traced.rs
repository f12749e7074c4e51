//! The traced run: per-layer metrics, measured outside-in.
//!
//! A few of the workload's worlds run twice, once plain and once with a
//! recording [`peas_sim::TraceSink`] attached. The pair must agree (the
//! sink may not perturb the run) and the sink's totals must agree with
//! the world's `RunReport`. The first world's recorded stream then drives
//! each layer from outside (see [`crate::layers`]), and the cache layer is
//! exercised with the worlds' reports. A layer's share of the loop is its
//! call count × ns per call ÷ the plain world's loop time.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use peas_des::time::SimTime;
use peas_scenario::sample_fingerprint;
use peas_sim::cache::decode_cache_line;
use peas_sim::{
    decode_report, encode_report, FrameKind, ResultCache, RunReport, Runner, SweepPlan, TraceEvent,
    World,
};

use crate::e2e::{guarded, SWEEP_WORKERS};
use crate::layers;
use crate::metrics::{median, Values};
use crate::spans::{timer_overhead_ns, Spans};
use crate::workload::{Pins, Plan};
use crate::{fresh_dir, Outcome};

/// Fewest worlds run plain and traced (more run while the first half of
/// `--seconds` lasts); the first also feeds the layer replay.
const MIN_TRACED_WORLDS: usize = 4;

/// Most PEAS-machine inputs the closed-loop feed records.
const MAX_CORE_INPUTS: usize = 1_000_000;

/// What one world run exposes to an outside observer.
struct Observed {
    report: RunReport,
    loop_time: Duration,
    queue_high_water: usize,
    queue_bytes: usize,
    table_bytes: usize,
    /// (forwarded, dropped_budget, dropped_gradient, duplicates).
    grab: (u64, u64, u64, u64),
}

type Recording = Rc<RefCell<Vec<(SimTime, TraceEvent)>>>;

/// The first traced world: what it exposed, its recorded stream, its config.
type FirstWorld<'a> = (
    Observed,
    Vec<(SimTime, TraceEvent)>,
    &'a peas_sim::ScenarioConfig,
);

fn observe(config: &peas_sim::ScenarioConfig, sink: Option<Recording>) -> Observed {
    let mut world = World::new(config.clone());
    if let Some(rec) = sink {
        world.set_trace(move |t, e: &TraceEvent| rec.borrow_mut().push((t, *e)));
    }
    let t0 = Instant::now();
    world.run_until(config.horizon);
    let loop_time = t0.elapsed();
    Observed {
        loop_time,
        queue_high_water: world.queue_high_water(),
        queue_bytes: world.queue_memory_bytes(),
        table_bytes: world.topology_memory_bytes(),
        grab: world.grab_relay_totals(),
        report: world.into_report(),
    }
}

/// The sink's totals checked against the world's own report.
fn check_sink(events: &[(SimTime, TraceEvent)], r: &RunReport) -> Result<(), String> {
    let (mut frames, mut peas_frames, mut deaths) = (0u64, 0u64, 0u64);
    for (_, e) in events {
        match e {
            TraceEvent::FrameSent { kind, .. } => {
                frames += 1;
                if matches!(kind, FrameKind::Probe | FrameKind::Reply) {
                    peas_frames += 1;
                }
            }
            TraceEvent::Death { .. } => deaths += 1,
            TraceEvent::ModeChange { .. } => {}
        }
    }
    if frames != r.medium.frames_sent {
        return Err(format!(
            "sink saw {frames} frames, MediumStats {}",
            r.medium.frames_sent
        ));
    }
    // NodeStats counts the broadcasts the PEAS machine asked for; the
    // world drops a request whose node fell asleep or died before the
    // attempt, so frames on air can only be fewer.
    let asked = r.node_stats.probes_sent + r.node_stats.replies_sent;
    if peas_frames > asked {
        return Err(format!(
            "sink saw {peas_frames} PROBE+REPLY frames, NodeStats asked for {asked}"
        ));
    }
    if deaths != r.failures_injected + r.energy_deaths {
        return Err(format!(
            "sink saw {deaths} deaths, report {} failures + {} energy deaths",
            r.failures_injected, r.energy_deaths
        ));
    }
    Ok(())
}

pub fn measure(
    root: &Path,
    plan: &Plan,
    pins: &Pins,
    seconds: f64,
    scratch: &Path,
) -> (Outcome, String) {
    let mut out = Outcome::default();
    let mut spans = Spans::new(timer_overhead_ns());
    let run_span = spans.open(format!("traced-run {}", plan.workload.name()), None);
    let mut v = Values::default();

    // Plain and traced world pairs.
    let min_worlds = MIN_TRACED_WORLDS.min(plan.runs.len());
    let (mut plain_loop, mut traced_loop) = (Vec::new(), Vec::new());
    let mut first: Option<FirstWorld> = None;
    let mut reports = Vec::new();
    let start = Instant::now();
    for (i, run) in plan.runs.iter().enumerate() {
        if i >= min_worlds && start.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        out.attempted += 1;
        let result = guarded(|| {
            let rec: Recording = Rc::default();
            // Alternate which of the pair runs first.
            let order = if i % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            let (mut plain, mut traced) = (None, None);
            for traced_first in order {
                let s = spans.open(
                    format!(
                        "world {} {}",
                        run.label,
                        if traced_first { "traced" } else { "plain" }
                    ),
                    Some(run_span),
                );
                let o = observe(&run.config, traced_first.then(|| rec.clone()));
                spans.close(s);
                if traced_first {
                    traced = Some(o);
                } else {
                    plain = Some(o);
                }
            }
            let (plain, traced) = (plain.expect("ran plain"), traced.expect("ran traced"));
            pins.check(plan, &run.label, &plain.report)?;
            if sample_fingerprint(&traced.report) != sample_fingerprint(&plain.report) {
                return Err(format!(
                    "{}: attaching the sink changed the fingerprint",
                    run.label
                ));
            }
            let events = rec.take();
            check_sink(&events, &traced.report)?;
            Ok((plain, traced.loop_time, events))
        });
        match result {
            Ok((plain, traced_time, events)) => {
                plain_loop.push(plain.loop_time.as_secs_f64());
                traced_loop.push(traced_time.as_secs_f64());
                if reports.len() < min_worlds {
                    reports.push((run.label.clone(), run.config.clone(), plain.report.clone()));
                }
                if first.is_none() {
                    first = Some((plain, events, &run.config));
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let Some((world, events, cfg)) = first else {
        spans.close(run_span);
        return (out, spans.to_json());
    };
    let r = &world.report;
    let loop_ns = world.loop_time.as_nanos() as f64;
    v.set("sim.events", r.events_processed as f64);
    v.set(
        "sim.trace_overhead",
        traced_loop.iter().sum::<f64>() / plain_loop.iter().sum::<f64>(),
    );
    v.set("des.queue_high_water", world.queue_high_water as f64);
    v.set("des.queue_bytes", world.queue_bytes as f64);
    v.set("sim.table_bytes", world.table_bytes as f64);

    // Layers driven from outside with this world's inputs.
    let layer_span = spans.open("layers", Some(run_span));
    out.attempted += 1;
    let layered = guarded(|| {
        let rep = layers::replay(cfg, r, &events, &mut spans, layer_span)?;
        let (radio_build, csr_build) = layers::table_builds(cfg, 3, &mut spans, layer_span);
        let gap = r.end_secs * 1e9 / r.events_processed.max(1) as f64;
        let (hold, cancel) = layers::queue(
            world.queue_high_water,
            gap,
            cfg.seed,
            &mut spans,
            layer_span,
        );
        let on_input =
            layers::peas_machine(cfg, &r.node_stats, MAX_CORE_INPUTS, &mut spans, layer_span)?;
        Ok((rep, radio_build, csr_build, hold, cancel, on_input))
    });
    spans.close(layer_span);
    drop(events);
    match layered {
        Ok((rep, radio_build, csr_build, hold, cancel, on_input)) => {
            let share = |ns: f64| ns / loop_ns;
            let inputs = layers::core_inputs(&r.node_stats);
            let (copies, ok) = layers::radio_ratios(&r.medium);
            let (fwd, budget, gradient, dup) = world.grab;
            let decided = fwd + budget + gradient + dup;
            let shares = [
                ("des.share", share(r.events_processed as f64 * hold)),
                ("core.share", share(inputs as f64 * on_input)),
                (
                    "radio.share",
                    share(
                        rep.frames as f64
                            * (rep.carrier_busy_ns + rep.start_broadcast_ns + rep.complete_ns),
                    ),
                ),
                (
                    "geom.share",
                    share(
                        rep.transitions as f64 * rep.walk_ns
                            + rep.samples as f64 * rep.k_coverage_ns,
                    ),
                ),
                (
                    "grab.share",
                    share(
                        rep.adv_calls as f64 * rep.on_adv_ns
                            + rep.report_calls as f64 * rep.on_report_ns,
                    ),
                ),
                ("energy.share", share(rep.charges as f64 * rep.charge_ns)),
            ];
            for (name, s) in shares {
                v.set(name, s);
            }
            v.set(
                "sim.unattributed_share",
                1.0 - shares.iter().map(|(_, s)| s).sum::<f64>(),
            );
            v.set("des.hold_ns", hold);
            v.set("des.cancel_ns", cancel);
            v.set("core.on_input_ns", on_input);
            v.set("core.inputs", inputs as f64);
            v.set("radio.carrier_busy_ns", rep.carrier_busy_ns);
            v.set("radio.start_broadcast_ns", rep.start_broadcast_ns);
            v.set("radio.complete_ns", rep.complete_ns);
            v.set("radio.frames", r.medium.frames_sent as f64);
            v.set("radio.copies_per_frame", copies);
            v.set("radio.ok_ratio", ok);
            v.set("radio.build_s", radio_build);
            v.set("geom.coverage_csr_build_s", csr_build);
            v.set("geom.coverage_walk_ns", rep.walk_ns);
            v.set("geom.working_transitions", rep.transitions as f64);
            v.set("geom.k_coverage_ns", rep.k_coverage_ns);
            v.set("grab.on_adv_ns", rep.on_adv_ns);
            v.set("grab.on_report_ns", rep.on_report_ns);
            v.set(
                "grab.forward_ratio",
                if decided == 0 {
                    0.0
                } else {
                    fwd as f64 / decided as f64
                },
            );
            v.set("energy.charge_ns", rep.charge_ns);
        }
        Err(e) => out.fail(e),
    }

    // Cache layer and scenario compile.
    let cache_span = spans.open("cache", Some(run_span));
    out.attempted += 1;
    match guarded(|| cache_layer(plan, pins, &reports, scratch, &mut spans, cache_span)) {
        Ok(cache) => {
            for (name, value) in cache {
                v.set(name, value);
            }
        }
        Err(e) => out.fail(e),
    }
    spans.close(cache_span);
    let s = spans.open("scenario.compile", Some(run_span));
    let mut compile = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let c = peas_scenario::load_compiled(&root.join(plan.workload.scenario_file()));
        compile.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = c {
            out.fail(e.to_string());
        }
    }
    spans.close(s);
    v.set("scenario.compile_ms", median(&compile));
    spans.close(run_span);
    out.values = v;
    (out, spans.to_json())
}

/// Cold pass through the cache (run and append every shard on the
/// two-worker pool for the sweep; append the traced worlds' reports for
/// the sim workloads), then a warm resubmission whose merged reports must
/// be byte-identical to the cold ones.
fn cache_layer(
    plan: &Plan,
    pins: &Pins,
    worlds: &[(String, peas_sim::ScenarioConfig, RunReport)],
    scratch: &Path,
    spans: &mut Spans,
    parent: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let dir = scratch.join("traced-cache");
    fresh_dir(&dir)?;
    let cache = ResultCache::open(&dir).map_err(|e| e.to_string())?;
    let runs: Vec<(String, peas_sim::ScenarioConfig)> = if plan.workload.is_sweep() {
        plan.runs
            .iter()
            .map(|r| (r.label.clone(), r.config.clone()))
            .collect()
    } else {
        worlds
            .iter()
            .map(|(l, c, _)| (l.clone(), c.clone()))
            .collect()
    };
    let sweep = SweepPlan::new(runs);
    let shards = sweep.shards();
    let cold_span = spans.open("cache.cold", Some(parent));
    let t0 = Instant::now();
    // (index, shard run time, append time, report bytes) per shard.
    let per_shard: Vec<(usize, Duration, Duration, String)> = if plan.workload.is_sweep() {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let done = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..SWEEP_WORKERS)
                .map(|w| {
                    let (next, done, cache) = (&next, &done, &cache);
                    scope.spawn(move || -> Result<(), String> {
                        let mut writer = cache.writer(w).map_err(|e| e.to_string())?;
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(shard) = shards.get(i) else {
                                return Ok(());
                            };
                            let t0 = Instant::now();
                            let report = Runner::new(shard.config.clone()).run_single();
                            let t1 = Instant::now();
                            writer
                                .append(shard.key, &shard.label, &report)
                                .map_err(|e| e.to_string())?;
                            let t2 = Instant::now();
                            done.lock()
                                .expect("no worker panics while holding the lock")
                                .push((i, t1 - t0, t2 - t1, encode_report(&report)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().map_err(|_| "worker panicked".to_string())?)
                .collect::<Result<Vec<()>, String>>()
        })?;
        done.into_inner().expect("workers joined")
    } else {
        let mut writer = cache.writer(0).map_err(|e| e.to_string())?;
        let mut v = Vec::new();
        for (i, (shard, (_, _, report))) in shards.iter().zip(worlds).enumerate() {
            let t1 = Instant::now();
            writer
                .append(shard.key, &shard.label, report)
                .map_err(|e| e.to_string())?;
            // The world already ran in the traced pairs; its plain loop is
            // not re-timed here, so the serial pool holds one shard at a time.
            v.push((i, Duration::ZERO, t1.elapsed(), encode_report(report)));
        }
        v
    };
    let cold_wall = t0.elapsed();
    spans.close(cold_span);
    let mut cold: Vec<Option<String>> = vec![None; shards.len()];
    for (i, _, _, bytes) in &per_shard {
        cold[*i] = Some(bytes.clone());
    }
    for (shard, bytes) in shards.iter().zip(&cold) {
        let bytes = bytes.as_ref().ok_or("a shard was not run")?;
        let report = decode_report(bytes)?;
        pins.check(plan, &shard.label, &report)?;
    }
    let append: Vec<f64> = per_shard.iter().map(|s| s.2.as_secs_f64() * 1e6).collect();
    let busy: f64 = per_shard.iter().map(|s| (s.1 + s.2).as_secs_f64()).sum();
    let pool_busy = if plan.workload.is_sweep() {
        busy / (SWEEP_WORKERS as f64 * cold_wall.as_secs_f64())
    } else {
        // Sim workloads run their worlds one after another: one of the
        // pool's two lanes busy.
        1.0 / SWEEP_WORKERS as f64
    };

    // Warm resubmission.
    let warm_span = spans.open("cache.warm", Some(parent));
    let mut scan_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let scan = cache.scan().map_err(|e| e.to_string())?;
        scan_s.push(t0.elapsed().as_secs_f64());
        last = Some(scan);
    }
    let scan = last.expect("scanned three times");
    if !sweep.novel(&scan).is_empty() {
        return Err("warm resubmission found novel shards".to_string());
    }
    let merged = sweep.merged(&scan).map_err(|e| e.to_string())?;
    for (report, bytes) in merged.iter().zip(&cold) {
        if Some(encode_report(report)) != *bytes {
            return Err("warm report is not byte-identical to the cold pass".to_string());
        }
    }
    let hit_ratio = sweep.cached(&scan) as f64 / sweep.len() as f64;
    spans.close(warm_span);

    // Record decode, one line at a time, as the scan does it.
    let decode_span = spans.open("cache.decode", Some(parent));
    let (mut lines, mut bytes) = (0usize, 0usize);
    let mut decode = crate::spans::CallTimer::default();
    for w in 0..SWEEP_WORKERS {
        let Ok(text) = std::fs::read_to_string(cache.segment_path(w)) else {
            continue;
        };
        for line in text.lines() {
            lines += 1;
            bytes += line.len() + 1;
            decode.time(|| std::hint::black_box(decode_cache_line(line)));
        }
    }
    let decode_us = spans.calls("cache.decode_line", Some(decode_span), &decode) / 1e3;
    spans.close(decode_span);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(vec![
        ("cache.scan_s", median(&scan_s)),
        ("cache.decode_us", decode_us),
        ("cache.record_bytes", bytes as f64 / lines.max(1) as f64),
        ("cache.hit_ratio", hit_ratio),
        ("cache.quarantined", scan.quarantined as f64),
        ("cache.append_us", median(&append)),
        ("cache.pool_busy_frac", pool_busy),
    ])
}
