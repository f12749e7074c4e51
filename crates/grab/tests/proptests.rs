//! Property-based tests for the GRAB forwarding substrate.

use proptest::prelude::*;

use peas_des::rng::SimRng;
use peas_grab::{CostState, GrabConfig, GrabMessage, GrabRelay, GrabSink, GrabSource, Report};
use peas_radio::NodeId;

proptest! {
    /// Cost state only improves within an epoch and epochs are monotone.
    #[test]
    fn cost_state_monotone(advs in prop::collection::vec((0u32..5, 0u32..20), 1..60)) {
        let mut cs = CostState::new();
        let mut best_per_epoch: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        let mut max_epoch = 0u32;
        for (epoch, cost) in advs {
            let before = cs.cost();
            let improved = cs.observe_adv(epoch, cost);
            // Never regress to an older epoch.
            if let Some(e) = cs.epoch() {
                prop_assert!(e >= max_epoch.min(e));
                max_epoch = max_epoch.max(e);
            }
            if let Some(new_cost) = improved {
                prop_assert_eq!(new_cost, cost + 1);
                prop_assert_eq!(cs.cost(), Some(new_cost));
                let entry = best_per_epoch.entry(epoch).or_insert(u32::MAX);
                prop_assert!(new_cost < *entry || cs.epoch() == Some(epoch));
                *entry = (*entry).min(new_cost);
            } else if cs.epoch() == Some(epoch) {
                // Same epoch, no improvement: cost unchanged.
                prop_assert_eq!(cs.cost(), before);
            }
        }
    }

    /// A relay forwards a given (source, seq) at most once, ever.
    #[test]
    fn relay_forwards_each_report_once(
        seqs in prop::collection::vec(0u64..10, 1..80),
        my_cost_adv in 0u32..10,
    ) {
        let mut rng = SimRng::new(1);
        let mut relay = GrabRelay::new(GrabConfig::paper());
        relay.on_adv(1, my_cost_adv, &mut rng);
        let my_cost = relay.cost().unwrap();
        let mut forwarded: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for seq in seqs {
            let report = Report {
                source: NodeId(3),
                seq,
                sender_cost: my_cost + 1,
                hops: 1,
                budget: 1_000,
            };
            if let Some(out) = relay.on_report(report, &mut rng) {
                prop_assert!(forwarded.insert(seq), "seq {seq} forwarded twice");
                let GrabMessage::Report(fwd) = out.msg else {
                    return Err(TestCaseError::fail("non-report forwarded"));
                };
                prop_assert_eq!(fwd.sender_cost, my_cost);
                prop_assert_eq!(fwd.hops, 2);
            }
        }
    }

    /// Forwarded copies always descend the cost field and never exceed the
    /// budget.
    #[test]
    fn forwarding_descends_and_respects_budget(
        sender_cost in 1u32..20,
        my_adv in 0u32..20,
        hops in 0u32..20,
        budget in 1u32..40,
    ) {
        let mut rng = SimRng::new(2);
        let mut relay = GrabRelay::new(GrabConfig::paper());
        relay.on_adv(1, my_adv, &mut rng);
        let my_cost = relay.cost().unwrap();
        let report = Report {
            source: NodeId(5),
            seq: 1,
            sender_cost,
            hops,
            budget,
        };
        match relay.on_report(report, &mut rng) {
            Some(out) => {
                let GrabMessage::Report(fwd) = out.msg else {
                    return Err(TestCaseError::fail("non-report forwarded"));
                };
                prop_assert!(my_cost < sender_cost, "uphill forward");
                prop_assert!(hops + my_cost <= budget, "budget violated");
                prop_assert_eq!(fwd.hops, hops + 1);
            }
            None => {
                // Must have been blocked by gradient, budget, or dedup.
                let blocked = my_cost >= sender_cost || hops + my_cost > budget;
                prop_assert!(blocked, "forwardable report dropped");
            }
        }
    }

    /// The sink counts each sequence exactly once no matter how many
    /// copies arrive.
    #[test]
    fn sink_deduplicates(copies in prop::collection::vec(0u64..15, 1..100)) {
        let mut sink = GrabSink::new();
        let distinct: std::collections::HashSet<u64> = copies.iter().copied().collect();
        for seq in &copies {
            sink.on_report(Report {
                source: NodeId(1),
                seq: *seq,
                sender_cost: 1,
                hops: 3,
                budget: 10,
            });
        }
        prop_assert_eq!(sink.delivered_count(), distinct.len() as u64);
        prop_assert_eq!(
            sink.duplicate_arrivals(),
            (copies.len() - distinct.len()) as u64
        );
    }

    /// Source sequence numbers are strictly increasing and budgets follow
    /// the configured α.
    #[test]
    fn source_reports_well_formed(cost_adv in 0u32..30, count in 1usize..20) {
        let config = GrabConfig::paper();
        let mut source = GrabSource::new(NodeId(0), config.clone());
        source.on_adv(1, cost_adv);
        let mut last_seq = None;
        for _ in 0..count {
            let r = source.generate().unwrap();
            if let Some(prev) = last_seq {
                prop_assert_eq!(r.seq, prev + 1);
            }
            last_seq = Some(r.seq);
            prop_assert_eq!(r.hops, 1);
            prop_assert_eq!(r.budget, config.hop_budget(r.sender_cost));
        }
        prop_assert_eq!(source.generated(), count as u64);
    }
}

/// The relay's duplicate suppression restated over a `BTreeSet`: the
/// same cost, gradient and budget rules, with set membership done the
/// obvious way.
struct ModelRelay {
    cost: CostState,
    seen: std::collections::BTreeSet<(u32, u64)>,
    counters: [u64; 4],
}

impl ModelRelay {
    fn on_report(&mut self, report: Report) -> Option<(u32, u32)> {
        let key = (report.source.0, report.seq);
        if self.seen.contains(&key) {
            self.counters[3] += 1;
            return None;
        }
        let my_cost = self.cost.cost()?;
        if my_cost >= report.sender_cost {
            self.counters[2] += 1;
            return None;
        }
        if !report.forwardable_at(my_cost) {
            self.counters[1] += 1;
            return None;
        }
        self.seen.insert(key);
        self.counters[0] += 1;
        Some((my_cost, report.hops + 1))
    }
}

proptest! {
    /// The sorted-vector duplicate check agrees with a `BTreeSet` model on
    /// out-of-order `(source, seq)` streams with interleaved ADVs and
    /// resets: same forwarded frames, same delay draws, same counters.
    #[test]
    fn sorted_seen_reports_match_a_btreeset_model(
        ops in prop::collection::vec((0u8..16, 0u32..4, 0u64..24, 0u32..8, 0u32..12), 1..200),
        seed in any::<u64>(),
    ) {
        let mut relay = GrabRelay::new(GrabConfig::paper());
        let mut model = ModelRelay {
            cost: CostState::new(),
            seen: std::collections::BTreeSet::new(),
            counters: [0; 4],
        };
        let mut rng = SimRng::new(seed);
        let mut model_rng = SimRng::new(seed);
        for (kind, source, seq, cost, budget) in ops {
            match kind {
                0 => {
                    relay.reset();
                    model.cost.reset();
                    model.seen.clear();
                }
                1 | 2 => {
                    let got = relay.on_adv(kind.into(), cost, &mut rng);
                    let improved = model.cost.observe_adv(kind.into(), cost);
                    prop_assert_eq!(got.is_some(), improved.is_some());
                    if got.is_some() {
                        model_rng.range_duration(
                            peas_des::time::SimDuration::ZERO,
                            GrabConfig::paper().adv_delay_max,
                        );
                    }
                }
                _ => {
                    let report = Report {
                        source: NodeId(source),
                        seq,
                        sender_cost: cost,
                        hops: 1,
                        budget,
                    };
                    let got = relay.on_report(report, &mut rng);
                    let want = model.on_report(report);
                    match (got, want) {
                        (None, None) => {}
                        (Some(out), Some((sender_cost, hops))) => {
                            let delay = model_rng.range_duration(
                                peas_des::time::SimDuration::ZERO,
                                GrabConfig::paper().forward_delay_max,
                            );
                            prop_assert_eq!(out.delay, delay);
                            prop_assert_eq!(
                                out.msg,
                                GrabMessage::Report(Report { sender_cost, hops, ..report })
                            );
                        }
                        (got, want) => prop_assert!(false, "relay {:?} vs model {:?}", got, want),
                    }
                }
            }
            prop_assert_eq!(
                [relay.forwarded(), relay.dropped_budget(), relay.dropped_gradient(), relay.duplicates()],
                model.counters
            );
        }
    }
}
