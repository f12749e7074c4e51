//! Drives each layer from outside the simulator with the inputs of one
//! workload world, timing the calls.
//!
//! * **Replay** (radio, geom, GRAB, energy): the traced world's recorded
//!   stream — every mode change, death and frame, with its time — is fed
//!   through a fresh [`Medium`], [`CoverageCsr`] and [`GrabRelay`] set
//!   built from the same deployment stream, range classes and config. The
//!   replay must reproduce the world's own `MediumStats` and every sampled
//!   K-coverage value, which shows it saw the same inputs.
//! * **Isolated feeds** (queue, PEAS machine): the [`EventQueue`] is
//!   held at the workload's queue depth with its mean event spacing; a
//!   population of [`PeasNode`]s with the workload's config is driven
//!   closed-loop, with frame fan-outs taken from the world's `NodeStats`.
//!
//! Time the world spends in code no outside call reaches (event dispatch,
//! the timer table, the send-job arena) is not measured here; it is what
//! `sim.unattributed_share` holds.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use peas::{Action, Input, Message, Mode, NodeStats, PeasNode, Timer, CONTROL_FRAME_BYTES};
use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_des::EventQueue;
use peas_geom::{CoverageCsr, CoverageGrid, Point};
use peas_grab::{GrabMessage, GrabRelay, GrabSink, GrabSource};
use peas_radio::{
    airtime, Battery, Delivery, EnergyCause, EnergyLedger, Medium, MediumStats, NodeId, RxInfo,
    TxId,
};
use peas_sim::{FrameKind, RunReport, ScenarioConfig, TraceEvent};

use crate::spans::{CallTimer, Spans};

/// Most energy operations kept for the batch-timed charge pass.
const MAX_ENERGY_OPS: usize = 2_000_000;

/// Deployment positions exactly as `World::new` lays them out: the
/// configured deployment drawn from seed stream 1, then (with GRAB) the
/// source and sink nudged inside opposite corners.
pub fn positions(cfg: &ScenarioConfig) -> Vec<Point> {
    let mut rng = SimRng::stream(cfg.seed, 1);
    let mut p = cfg.deployment.generate(cfg.field, cfg.node_count, &mut rng);
    if cfg.grab.is_some() {
        p.push(Point::new(0.5, 0.5));
        p.push(Point::new(
            cfg.field.width() - 0.5,
            cfg.field.height() - 0.5,
        ));
    }
    p
}

/// The transmission ranges the world declares to its medium.
fn range_classes(cfg: &ScenarioConfig) -> Vec<f64> {
    let mut classes = vec![cfg.peas.control_tx_range()];
    if let Some(g) = &cfg.grab {
        if !classes.contains(&g.data_range) {
            classes.push(g.data_range);
        }
    }
    classes
}

fn build_medium(cfg: &ScenarioConfig, positions: &[Point]) -> Medium {
    Medium::with_range_classes(
        cfg.field,
        positions,
        cfg.propagation.build(),
        cfg.bitrate_bps,
        cfg.loss_rate,
        &range_classes(cfg),
    )
}

/// Medians of `reps` timed table builds, in seconds: (medium, coverage CSR).
pub fn table_builds(
    cfg: &ScenarioConfig,
    reps: usize,
    spans: &mut Spans,
    parent: usize,
) -> (f64, f64) {
    let pos = positions(cfg);
    let grid = CoverageGrid::new(cfg.field, cfg.metrics.coverage_resolution);
    let (mut radio, mut geom) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let s = spans.open("radio.build", Some(parent));
        let t0 = Instant::now();
        black_box(build_medium(cfg, &pos));
        radio.push(t0.elapsed().as_secs_f64());
        spans.close(s);
        let s = spans.open("geom.coverage_csr_build", Some(parent));
        let t0 = Instant::now();
        black_box(CoverageCsr::build(
            &grid,
            &pos[..cfg.node_count],
            cfg.sensing_range,
        ));
        geom.push(t0.elapsed().as_secs_f64());
        spans.close(s);
    }
    (
        crate::metrics::median(&radio),
        crate::metrics::median(&geom),
    )
}

/// Per-call times and call counts from one replayed world.
pub struct Replay {
    pub carrier_busy_ns: f64,
    pub start_broadcast_ns: f64,
    pub complete_ns: f64,
    pub frames: u64,
    pub k_coverage_ns: f64,
    pub samples: u64,
    pub walk_ns: f64,
    pub transitions: u64,
    pub on_adv_ns: f64,
    pub adv_calls: u64,
    pub on_report_ns: f64,
    pub report_calls: u64,
    pub charge_ns: f64,
    pub charges: u64,
}

struct InFlight {
    tx: TxId,
    kind: FrameKind,
    grab: Option<GrabMessage>,
    airtime: SimDuration,
}

struct EnergyOp {
    node: u32,
    mw: f64,
    dur: SimDuration,
    cause: EnergyCause,
}

fn baseline(mode: Mode, cfg: &ScenarioConfig) -> Option<(f64, EnergyCause)> {
    match mode {
        Mode::Sleeping => Some((cfg.power.sleep_mw, EnergyCause::Sleep)),
        Mode::Probing => Some((cfg.power.idle_mw, EnergyCause::ProtocolIdle)),
        Mode::Working => Some((cfg.power.idle_mw, EnergyCause::WorkingIdle)),
        Mode::Dead => None,
    }
}

/// Replays `events` (the world's trace, in order) against fresh layer
/// instances. Errors if the replay does not reproduce the world's
/// `MediumStats` or sampled coverage.
pub fn replay(
    cfg: &ScenarioConfig,
    report: &RunReport,
    events: &[(SimTime, TraceEvent)],
    spans: &mut Spans,
    parent: usize,
) -> Result<Replay, String> {
    let n = cfg.node_count;
    let pos = positions(cfg);
    let mut medium = build_medium(cfg, &pos);
    let grid = CoverageGrid::new(cfg.field, cfg.metrics.coverage_resolution);
    let csr = CoverageCsr::build(&grid, &pos[..n], cfg.sensing_range);
    let mut counts = vec![0u32; grid.sample_count()];
    let (source_idx, sink_idx) = (n as u32, n as u32 + 1);
    let grab_cfg = cfg.grab.clone();
    let mut relays: Vec<GrabRelay> = match &grab_cfg {
        Some(g) => (0..n).map(|_| GrabRelay::new(g.clone())).collect(),
        None => Vec::new(),
    };
    let mut source = grab_cfg
        .clone()
        .map(|g| GrabSource::new(NodeId(source_idx), g));
    let mut sink = GrabSink::new();
    let mut outbox: Vec<VecDeque<GrabMessage>> = vec![VecDeque::new(); relays.len()];
    let mut relay_rng: Vec<SimRng> = (0..relays.len())
        .map(|i| SimRng::stream(cfg.seed ^ 0x5EED, i as u64))
        .collect();
    let mut radio_rng = SimRng::stream(cfg.seed, 3);

    let mut mode = vec![Mode::Sleeping; n];
    let mut last_account = vec![SimTime::ZERO; n];
    let mut transitions: Vec<(u32, bool)> = Vec::new();
    let mut energy: Vec<EnergyOp> = Vec::new();
    let mut charges = 0u64;
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut pending: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut deliveries: Vec<Delivery> = Vec::new();
    let (mut t_carrier, mut t_start, mut t_complete) = (
        CallTimer::default(),
        CallTimer::default(),
        CallTimer::default(),
    );
    let (mut t_adv, mut t_report, mut t_kcov) = (
        CallTimer::default(),
        CallTimer::default(),
        CallTimer::default(),
    );
    let mut samples = report.samples.iter().enumerate().peekable();
    let mut coverage_mismatch = None;

    let mut charge = |energy: &mut Vec<EnergyOp>, op: EnergyOp| {
        charges += 1;
        if energy.len() < MAX_ENERGY_OPS {
            energy.push(op);
        }
    };
    // Baseline accounting for a sensor up to `t`, in its current mode.
    let account = |energy: &mut Vec<EnergyOp>,
                   charge: &mut dyn FnMut(&mut Vec<EnergyOp>, EnergyOp),
                   last: &mut SimTime,
                   m: Mode,
                   node: u32,
                   t: SimTime| {
        let dur = t.saturating_since(*last);
        *last = t;
        if let (false, Some((mw, cause))) = (dur.is_zero(), baseline(m, cfg)) {
            charge(
                energy,
                EnergyOp {
                    node,
                    mw,
                    dur,
                    cause,
                },
            );
        }
    };
    let leave_working = |node: usize,
                         transitions: &mut Vec<(u32, bool)>,
                         relays: &mut Vec<GrabRelay>,
                         outbox: &mut Vec<VecDeque<GrabMessage>>| {
        transitions.push((node as u32, false));
        if let Some(r) = relays.get_mut(node) {
            r.reset();
            outbox[node].clear();
        }
    };

    let replay_span = spans.open("replay.stream", Some(parent));
    // The world delivers events strictly before its horizon, or stops at
    // the sample that found every sensor dead; frames still on the air
    // then never complete.
    let died = report.samples.last().filter(|s| s.alive == 0);
    let end = match died {
        Some(s) => SimTime::from_secs_f64(s.t_secs),
        None => SimTime::from_nanos(cfg.horizon.as_nanos().saturating_sub(1)),
    };
    for (t, ev) in events
        .iter()
        .map(|(t, e)| (*t, Some(e)))
        .chain([(end, None)])
    {
        // Frames whose airtime ended by `t` complete first.
        while let Some(&Reverse((done, slot))) = pending.peek() {
            if done > t {
                break;
            }
            pending.pop();
            let f = &in_flight[slot];
            t_complete.time(|| medium.complete_into(f.tx, &mut deliveries));
            for d in deliveries.iter().filter(|d| d.is_ok()) {
                let rx = d.receiver.0;
                if rx == sink_idx {
                    if let Some(GrabMessage::Report(r)) = f.grab {
                        sink.on_report(r);
                    }
                    continue;
                }
                if rx == source_idx {
                    if let (Some(GrabMessage::Adv { epoch, cost }), Some(s)) =
                        (f.grab, source.as_mut())
                    {
                        s.on_adv(epoch, cost);
                    }
                    continue;
                }
                let r = rx as usize;
                if !matches!(mode[r], Mode::Probing | Mode::Working) {
                    continue;
                }
                account(
                    &mut energy,
                    &mut charge,
                    &mut last_account[r],
                    mode[r],
                    rx,
                    done,
                );
                let rx_cause = match f.kind {
                    FrameKind::Probe | FrameKind::Reply => EnergyCause::ProtocolRx,
                    FrameKind::Adv | FrameKind::Report => EnergyCause::AppRx,
                };
                charge(
                    &mut energy,
                    EnergyOp {
                        node: rx,
                        mw: cfg.power.rx_mw,
                        dur: f.airtime,
                        cause: rx_cause,
                    },
                );
                if mode[r] != Mode::Working || relays.is_empty() {
                    continue;
                }
                let rng = &mut relay_rng[r];
                let relay = &mut relays[r];
                let out = match f.grab {
                    Some(GrabMessage::Adv { epoch, cost }) => {
                        t_adv.time(|| relay.on_adv(epoch, cost, rng))
                    }
                    Some(GrabMessage::Report(rep)) => t_report.time(|| relay.on_report(rep, rng)),
                    None => None,
                };
                if let Some(o) = out {
                    outbox[r].push_back(o.msg);
                }
            }
        }
        // Samples at or before the next event's time (deaths the sample
        // itself discovers share its timestamp and were applied already).
        while let Some(&(i, s)) = samples.peek() {
            let st = SimTime::from_secs_f64(s.t_secs);
            if st >= t && ev.is_some() {
                break;
            }
            samples.next();
            for node in 0..n {
                if mode[node] != Mode::Dead {
                    account(
                        &mut energy,
                        &mut charge,
                        &mut last_account[node],
                        mode[node],
                        node as u32,
                        st,
                    );
                }
            }
            let cov = t_kcov.time(|| grid.k_coverages_from_counts(&counts, cfg.metrics.max_k));
            if cov != s.coverage && coverage_mismatch.is_none() {
                coverage_mismatch = Some(i);
            }
        }
        let Some(ev) = ev else { break };
        match *ev {
            TraceEvent::ModeChange { node, from, to } => {
                let i = node as usize;
                account(
                    &mut energy,
                    &mut charge,
                    &mut last_account[i],
                    mode[i],
                    node,
                    t,
                );
                if from == Mode::Working {
                    csr.remove_into(i, &mut counts);
                    leave_working(i, &mut transitions, &mut relays, &mut outbox);
                }
                if to == Mode::Working {
                    csr.add_into(i, &mut counts);
                    transitions.push((node, true));
                }
                mode[i] = to;
            }
            TraceEvent::Death { node, .. } => {
                let i = node as usize;
                if mode[i] == Mode::Working {
                    csr.remove_into(i, &mut counts);
                    leave_working(i, &mut transitions, &mut relays, &mut outbox);
                }
                mode[i] = Mode::Dead;
            }
            TraceEvent::FrameSent { node, kind, range } => {
                let size = match (kind, &grab_cfg) {
                    (FrameKind::Probe | FrameKind::Reply, _) => CONTROL_FRAME_BYTES,
                    (FrameKind::Adv, Some(g)) => g.adv_bytes,
                    (FrameKind::Report, Some(g)) => g.report_bytes,
                    (_, None) => return Err("GRAB frame in a world without GRAB".to_string()),
                };
                let grab = match kind {
                    FrameKind::Probe | FrameKind::Reply => None,
                    _ if node == sink_idx => Some(sink.next_adv()),
                    _ if node == source_idx => source
                        .as_mut()
                        .and_then(|s| s.generate())
                        .map(GrabMessage::Report),
                    _ => outbox.get_mut(node as usize).and_then(|o| o.pop_front()),
                };
                let id = NodeId(node);
                t_carrier.time(|| medium.carrier_busy(id, t));
                let tx =
                    t_start.time(|| medium.start_broadcast(t, id, range, size, &mut radio_rng));
                if node < source_idx {
                    let cause = match kind {
                        FrameKind::Probe | FrameKind::Reply => EnergyCause::ProtocolTx,
                        _ => EnergyCause::AppTx,
                    };
                    let i = node as usize;
                    account(
                        &mut energy,
                        &mut charge,
                        &mut last_account[i],
                        mode[i],
                        node,
                        t,
                    );
                    charge(
                        &mut energy,
                        EnergyOp {
                            node,
                            mw: cfg.power.tx_mw,
                            dur: tx.airtime,
                            cause,
                        },
                    );
                }
                pending.push(Reverse((tx.end, in_flight.len())));
                in_flight.push(InFlight {
                    tx: tx.id,
                    kind,
                    grab,
                    airtime: tx.airtime,
                });
            }
        }
    }
    spans.close(replay_span);

    if medium.stats() != report.medium {
        return Err(format!(
            "replayed medium stats {:?} differ from the world's {:?}",
            medium.stats(),
            report.medium
        ));
    }
    if let Some(i) = coverage_mismatch {
        return Err(format!(
            "replayed K-coverage differs from the world's at sample {i}"
        ));
    }

    // Batch passes: the coverage walk and the energy charges replay their
    // recorded operation streams on fresh state in a tight loop.
    let s = spans.open("geom.coverage_walk", Some(parent));
    let mut fresh = vec![0u32; grid.sample_count()];
    let t0 = Instant::now();
    for &(node, add) in &transitions {
        if add {
            csr.add_into(node as usize, &mut fresh);
        } else {
            csr.remove_into(node as usize, &mut fresh);
        }
    }
    let t1 = Instant::now();
    black_box(&fresh);
    spans.close(s);
    let mut walk = CallTimer::default();
    walk.add_batch(transitions.len() as u64, t0, t1);

    let s = spans.open("energy.charge", Some(parent));
    let mut battery_rng = SimRng::stream(cfg.seed, 4);
    let mut batteries: Vec<Battery> = (0..n)
        .map(|_| Battery::new(cfg.battery.draw(&mut battery_rng)))
        .collect();
    let mut ledgers = vec![EnergyLedger::new(); n];
    let t0 = Instant::now();
    for op in &energy {
        let i = op.node as usize;
        black_box(batteries[i].drain_timed(op.mw, op.dur, op.cause, &mut ledgers[i]));
    }
    let t1 = Instant::now();
    spans.close(s);
    let mut charge_t = CallTimer::default();
    charge_t.add_batch(energy.len() as u64, t0, t1);

    Ok(Replay {
        carrier_busy_ns: spans.calls("radio.carrier_busy", Some(replay_span), &t_carrier),
        start_broadcast_ns: spans.calls("radio.start_broadcast", Some(replay_span), &t_start),
        complete_ns: spans.calls("radio.complete", Some(replay_span), &t_complete),
        frames: t_start.calls,
        k_coverage_ns: spans.calls("geom.k_coverage", Some(replay_span), &t_kcov),
        samples: t_kcov.calls,
        walk_ns: walk.ns_per_call(0.0),
        transitions: walk.calls,
        on_adv_ns: spans.calls("grab.on_adv", Some(replay_span), &t_adv),
        adv_calls: t_adv.calls,
        on_report_ns: spans.calls("grab.on_report", Some(replay_span), &t_report),
        report_calls: t_report.calls,
        charge_ns: charge_t.ns_per_call(0.0),
        charges,
    })
}

/// Hold and cancel cost of the event queue at `depth` pending events,
/// with the mean event spacing of the workload: (hold ns, cancel ns).
/// A hold is one `pop_before` plus one `schedule`, the event loop's
/// steady state.
pub fn queue(
    depth: usize,
    mean_gap_ns: f64,
    seed: u64,
    spans: &mut Spans,
    parent: usize,
) -> (f64, f64) {
    let depth = depth.max(1);
    let mean_inc = mean_gap_ns * depth as f64;
    let mut rng = SimRng::new(seed);
    let mut inc = || (rng.exp_secs(1.0) * mean_inc) as u64 + 1;
    let mut q: EventQueue<[u32; 4]> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(inc()), [i as u32; 4]);
    }
    let ops = (4 * depth).max(400_000);
    let incs: Vec<u64> = (0..2 * ops).map(|_| inc()).collect();
    let (warm, timed) = incs.split_at(ops);
    let hold = |incs: &[u64], q: &mut EventQueue<[u32; 4]>| {
        for &d in incs {
            let f = q
                .pop_before(SimTime::MAX)
                .expect("the queue holds `depth` events");
            q.schedule(
                SimTime::from_nanos(f.time.as_nanos() + d),
                black_box(f.payload),
            );
        }
    };
    hold(warm, &mut q);
    let s = spans.open("des.hold", Some(parent));
    let t0 = Instant::now();
    hold(timed, &mut q);
    let t1 = Instant::now();
    spans.close(s);
    let mut hold_t = CallTimer::default();
    hold_t.add_batch(timed.len() as u64, t0, t1);

    // Cancel a batch of events scheduled among the held ones.
    let now = q.peek_time().unwrap_or(SimTime::ZERO).as_nanos();
    let batch = depth.clamp(10_000, 200_000);
    let ids: Vec<_> = (0..batch)
        .map(|i| q.schedule(SimTime::from_nanos(now + incs[i]), [0; 4]))
        .collect();
    let s = spans.open("des.cancel", Some(parent));
    let t0 = Instant::now();
    for &id in &ids {
        black_box(q.cancel(id));
    }
    let t1 = Instant::now();
    spans.close(s);
    let mut cancel_t = CallTimer::default();
    cancel_t.add_batch(batch as u64, t0, t1);
    (hold_t.ns_per_call(0.0), cancel_t.ns_per_call(0.0))
}

/// The PEAS-machine inputs a world's `NodeStats` account for: timer
/// firings (wakeups, probe sends, closed reply windows, reply backoffs)
/// plus the PROBE and REPLY frames the machine accepted. Frames dropped
/// by the threshold filter before counting are not included, so this is
/// a lower bound on `on_input` calls.
pub fn core_inputs(s: &NodeStats) -> u64 {
    s.wakeups
        + s.probes_sent
        + s.window_with_reply
        + s.window_silent
        + s.replies_sent
        + s.probes_heard
        + s.replies_heard
        + s.replies_overheard
}

/// `on_input` cost for a population of `cfg.node_count` machines with the
/// workload's PEAS config, driven closed-loop: each machine's own timers
/// fire when it asked, and each broadcast reaches as many working or
/// probing peers as the world's `NodeStats` say a frame reaches on
/// average. The input stream is recorded, then fed again to fresh copies
/// of the machines in a tight timed loop. Returns ns per input.
pub fn peas_machine(
    cfg: &ScenarioConfig,
    mix: &NodeStats,
    max_inputs: usize,
    spans: &mut Spans,
    parent: usize,
) -> Result<f64, String> {
    let n = cfg.node_count;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let probe_fanout = ratio(mix.probes_heard, mix.probes_sent);
    let reply_fanout = ratio(mix.replies_heard, mix.replies_sent);
    let overheard_fanout = ratio(mix.replies_overheard, mix.replies_sent);
    let airtime = airtime(CONTROL_FRAME_BYTES, cfg.bitrate_bps);

    let mut rng = SimRng::stream(cfg.seed, 0xC0DE);
    let mut nodes: Vec<PeasNode> = (0..n)
        .map(|i| PeasNode::new(NodeId(i as u32), cfg.peas.clone()))
        .collect();
    let mut rngs: Vec<SimRng> = (0..n)
        .map(|i| SimRng::stream(cfg.seed, 100 + i as u64))
        .collect();
    let mut queue: BinaryHeap<Reverse<(SimTime, u64, u32, Pending)>> = BinaryHeap::new();
    let mut gen = vec![[0u32; 4]; n];
    let mut seq = 0u64;
    let start_actions: Vec<Vec<Action>> = nodes
        .iter_mut()
        .zip(&mut rngs)
        .map(|(p, r)| p.start(r))
        .collect();
    let (nodes0, rngs0) = (nodes.clone(), rngs.clone());
    // Members of each awake mode, for picking frame receivers.
    let mut members: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut slot = vec![u32::MAX; n];
    let mut recorded: Vec<(u32, SimTime, Input)> = Vec::with_capacity(max_inputs);

    let mut push = |queue: &mut BinaryHeap<_>, t: SimTime, node: u32, p: Pending| {
        seq += 1;
        queue.push(Reverse((t, seq, node, p)));
    };
    let timer_ix = |t: Timer| match t {
        Timer::Wake => 0,
        Timer::ProbeSend => 1,
        Timer::ReplyWindow => 2,
        Timer::ReplyBackoff => 3,
    };
    for (i, actions) in start_actions.into_iter().enumerate() {
        for a in actions {
            if let Action::Schedule { timer, after } = a {
                push(
                    &mut queue,
                    SimTime::ZERO + after,
                    i as u32,
                    Pending::Timer(timer, 0),
                );
            }
        }
    }
    while recorded.len() < max_inputs {
        let Some(Reverse((now, _, node, p))) = queue.pop() else {
            break;
        };
        let i = node as usize;
        let input = match p {
            Pending::Timer(timer, g) => {
                if gen[i][timer_ix(timer)] != g {
                    continue; // cancelled
                }
                match timer {
                    Timer::Wake => Input::WakeUp,
                    Timer::ProbeSend => Input::ProbeSendTimer,
                    Timer::ReplyWindow => Input::ReplyWindowClosed,
                    Timer::ReplyBackoff => Input::ReplyBackoff,
                }
            }
            Pending::Frame(from, msg, distance) => Input::Frame {
                from: NodeId(from),
                msg,
                info: RxInfo {
                    distance,
                    effective_distance: distance,
                },
            },
        };
        let before = nodes[i].mode();
        let actions = nodes[i].on_input(now, input, &mut rngs[i]);
        recorded.push((node, now, input));
        let after = nodes[i].mode();
        if before != after {
            let lists = [(Mode::Working, 0), (Mode::Probing, 1)];
            for (m, list) in lists {
                if before == m {
                    let s = slot[i] as usize;
                    members[list].swap_remove(s);
                    if let Some(&moved) = members[list].get(s) {
                        slot[moved as usize] = s as u32;
                    }
                }
            }
            for (m, list) in lists {
                if after == m {
                    slot[i] = members[list].len() as u32;
                    members[list].push(node);
                }
            }
        }
        for a in actions {
            match a {
                Action::Schedule { timer, after } => {
                    let g = gen[i][timer_ix(timer)];
                    push(&mut queue, now + after, node, Pending::Timer(timer, g));
                }
                Action::Cancel(timer) => gen[i][timer_ix(timer)] += 1,
                Action::Broadcast { msg, range } => {
                    let targets: &[(usize, f64)] = match msg {
                        Message::Probe => &[(0, probe_fanout)],
                        Message::Reply(_) => &[(1, reply_fanout), (0, overheard_fanout)],
                    };
                    for &(list, fanout) in targets {
                        let copies =
                            fanout.floor() as usize + usize::from(rng.bernoulli(fanout.fract()));
                        for _ in 0..copies {
                            if let Some(&rx) = rng.choose(&members[list]) {
                                if rx != node {
                                    let d = rng.range_f64(0.0, range);
                                    push(
                                        &mut queue,
                                        now + airtime,
                                        rx,
                                        Pending::Frame(node, msg, d),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let (mut fresh, mut fresh_rngs) = (nodes0, rngs0);
    let s = spans.open("core.on_input", Some(parent));
    let t0 = Instant::now();
    for &(node, now, input) in &recorded {
        let i = node as usize;
        black_box(fresh[i].on_input(now, input, &mut fresh_rngs[i]));
    }
    let t1 = Instant::now();
    spans.close(s);
    if fresh
        .iter()
        .zip(&nodes)
        .any(|(a, b)| a.stats() != b.stats())
    {
        return Err("PEAS machines diverged when fed the same inputs twice".to_string());
    }
    let mut t = CallTimer::default();
    t.add_batch(recorded.len() as u64, t0, t1);
    Ok(t.ns_per_call(0.0))
}

/// A pending input of the closed-loop feed: a timer with its arming generation, or a
/// frame copy (sender, message, distance).
#[derive(Clone, Copy, Debug)]
enum Pending {
    Timer(Timer, u32),
    Frame(u32, Message, f64),
}

impl PartialEq for Pending {
    fn eq(&self, _: &Pending) -> bool {
        true
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Pending) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    /// Heap entries are ordered by (time, sequence) first, which are
    /// unique, so the payload never decides.
    fn cmp(&self, _: &Pending) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Medium stats the world reported, for the radio ratios.
pub fn radio_ratios(m: &MediumStats) -> (f64, f64) {
    let copies = m.deliveries_ok + m.collisions + m.random_losses;
    let per_frame = if m.frames_sent == 0 {
        0.0
    } else {
        copies as f64 / m.frames_sent as f64
    };
    let ok = if copies == 0 {
        0.0
    } else {
        m.deliveries_ok as f64 / copies as f64
    };
    (per_frame, ok)
}
