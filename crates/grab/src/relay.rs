//! The GRAB relay: cost-field maintenance and mesh forwarding.
//!
//! Every *working* PEAS node runs one relay. Sleeping nodes hear nothing;
//! when a node is turned off its relay state is reset — it re-learns its
//! cost from the next ADV epoch after it starts working again.

use peas_des::rng::SimRng;
use peas_des::time::SimDuration;

use crate::config::GrabConfig;
use crate::msg::{GrabMessage, Report};

/// A frame the relay wants transmitted after a small random delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outgoing {
    /// The frame to broadcast.
    pub msg: GrabMessage,
    /// Desynchronization delay before transmitting.
    pub delay: SimDuration,
}

/// Cost-field state shared by relays and sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostState {
    state: Option<(u32, u32)>, // (epoch, cost)
}

impl CostState {
    /// No cost known yet.
    pub fn new() -> CostState {
        CostState::default()
    }

    /// Current cost if one is known for the latest epoch seen.
    pub fn cost(&self) -> Option<u32> {
        self.state.map(|(_, c)| c)
    }

    /// The epoch the current cost belongs to.
    pub fn epoch(&self) -> Option<u32> {
        self.state.map(|(e, _)| e)
    }

    /// Observes an ADV from a neighbor at `cost` in `epoch`. Returns the
    /// node's new cost if it improved (meaning the ADV should be
    /// rebroadcast), `None` if the ADV brought nothing new.
    pub fn observe_adv(&mut self, epoch: u32, neighbor_cost: u32) -> Option<u32> {
        let my_cost = neighbor_cost.saturating_add(1);
        match self.state {
            Some((e, _)) if e > epoch => None,                  // stale epoch
            Some((e, c)) if e == epoch && c <= my_cost => None, // no improvement
            _ => {
                self.state = Some((epoch, my_cost));
                Some(my_cost)
            }
        }
    }

    /// Forgets everything (node went to sleep / died).
    pub fn reset(&mut self) {
        self.state = None;
    }
}

/// One working node's GRAB forwarding state.
///
/// # Examples
///
/// ```
/// use peas_des::rng::SimRng;
/// use peas_grab::{GrabConfig, GrabMessage, GrabRelay};
///
/// let mut relay = GrabRelay::new(GrabConfig::paper());
/// let mut rng = SimRng::new(1);
/// // An ADV from a sink-adjacent node (cost 1): we adopt cost 2 and
/// // rebroadcast.
/// let out = relay.on_adv(5, 1, &mut rng).expect("improved cost");
/// assert_eq!(out.msg, GrabMessage::Adv { epoch: 5, cost: 2 });
/// assert_eq!(relay.cost(), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct GrabRelay {
    config: GrabConfig,
    cost: CostState,
    /// `(source, seq)` of every report relayed this working session,
    /// sorted ascending. Sequence numbers mostly arrive in order, so the
    /// common lookup is against the last key (see `GrabRelay::seen`).
    seen_reports: Vec<(u32, u64)>,
    forwarded: u64,
    dropped_budget: u64,
    dropped_gradient: u64,
    duplicates: u64,
}

impl GrabRelay {
    /// Creates a relay with no cost knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: GrabConfig) -> GrabRelay {
        if let Err(e) = config.validate() {
            panic!("invalid GRAB configuration: {e}");
        }
        GrabRelay {
            config,
            cost: CostState::new(),
            seen_reports: Vec::new(),
            forwarded: 0,
            dropped_budget: 0,
            dropped_gradient: 0,
            duplicates: 0,
        }
    }

    /// Handles a received ADV; returns the rebroadcast if the cost improved.
    pub fn on_adv(&mut self, epoch: u32, neighbor_cost: u32, rng: &mut SimRng) -> Option<Outgoing> {
        self.cost
            .observe_adv(epoch, neighbor_cost)
            .map(|my_cost| Outgoing {
                msg: GrabMessage::Adv {
                    epoch,
                    cost: my_cost,
                },
                delay: rng.range_duration(SimDuration::ZERO, self.config.adv_delay_max),
            })
    }

    /// Handles a received report copy; returns the forwarded copy when the
    /// gradient and credit rules allow it and this report was not relayed
    /// before.
    pub fn on_report(&mut self, report: Report, rng: &mut SimRng) -> Option<Outgoing> {
        let key = (report.source.0, report.seq);
        let slot = self.seen(key);
        if slot.is_ok() {
            self.duplicates += 1;
            return None;
        }
        let Some(my_cost) = self.cost.cost() else {
            return None; // no gradient yet; cannot route
        };
        if my_cost >= report.sender_cost {
            self.dropped_gradient += 1;
            return None;
        }
        if !report.forwardable_at(my_cost) {
            self.dropped_budget += 1;
            return None;
        }
        if let Err(at) = slot {
            self.seen_reports.insert(at, key);
        }
        self.forwarded += 1;
        Some(Outgoing {
            msg: GrabMessage::Report(Report {
                sender_cost: my_cost,
                hops: report.hops + 1,
                ..report
            }),
            delay: rng.range_duration(SimDuration::ZERO, self.config.forward_delay_max),
        })
    }

    /// Where `key` sits in the sorted `seen_reports`: `Ok` if present,
    /// `Err(insertion point)` if not. A key past the last element (a new
    /// report) or equal to it (another copy of the newest) is answered
    /// without a search.
    fn seen(&self, key: (u32, u64)) -> Result<usize, usize> {
        match self.seen_reports.last() {
            None => Err(0),
            Some(&last) if key > last => Err(self.seen_reports.len()),
            Some(&last) if key == last => Ok(self.seen_reports.len() - 1),
            Some(_) => self.seen_reports.binary_search(&key),
        }
    }

    /// The node's current hop distance to the sink, if known.
    pub fn cost(&self) -> Option<u32> {
        self.cost.cost()
    }

    /// Clears all state (call when the node stops working).
    pub fn reset(&mut self) {
        self.cost.reset();
        self.seen_reports.clear();
    }

    /// Reports forwarded by this relay.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Copies dropped because the budget was exhausted.
    pub fn dropped_budget(&self) -> u64 {
        self.dropped_budget
    }

    /// Copies dropped because the sender was closer to the sink already.
    pub fn dropped_gradient(&self) -> u64 {
        self.dropped_gradient
    }

    /// Duplicate copies suppressed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peas_radio::NodeId;

    fn relay() -> GrabRelay {
        GrabRelay::new(GrabConfig::paper())
    }

    fn report(seq: u64, sender_cost: u32, hops: u32, budget: u32) -> Report {
        Report {
            source: NodeId(9),
            seq,
            sender_cost,
            hops,
            budget,
        }
    }

    #[test]
    fn cost_state_adopts_and_improves() {
        let mut cs = CostState::new();
        assert_eq!(cs.cost(), None);
        assert_eq!(cs.observe_adv(1, 4), Some(5));
        // Worse or equal path in same epoch: ignored.
        assert_eq!(cs.observe_adv(1, 4), None);
        assert_eq!(cs.observe_adv(1, 7), None);
        // Better path: improved.
        assert_eq!(cs.observe_adv(1, 2), Some(3));
        assert_eq!(cs.cost(), Some(3));
    }

    #[test]
    fn cost_state_new_epoch_supersedes() {
        let mut cs = CostState::new();
        cs.observe_adv(1, 2);
        // New epoch with a worse cost still replaces the old field.
        assert_eq!(cs.observe_adv(2, 9), Some(10));
        assert_eq!(cs.epoch(), Some(2));
        // Stale epoch ignored entirely.
        assert_eq!(cs.observe_adv(1, 0), None);
        assert_eq!(cs.cost(), Some(10));
    }

    #[test]
    fn relay_rebroadcasts_improving_advs_only() {
        let mut r = relay();
        let mut rng = SimRng::new(1);
        assert!(r.on_adv(1, 0, &mut rng).is_some());
        assert!(r.on_adv(1, 0, &mut rng).is_none(), "same ADV suppressed");
        assert!(r.on_adv(1, 5, &mut rng).is_none(), "worse ADV suppressed");
        assert_eq!(r.cost(), Some(1));
    }

    #[test]
    fn relay_forwards_descending_reports_once() {
        let mut r = relay();
        let mut rng = SimRng::new(2);
        r.on_adv(1, 2, &mut rng); // cost = 3
        let out = r.on_report(report(1, 5, 1, 100), &mut rng).unwrap();
        match out.msg {
            GrabMessage::Report(fwd) => {
                assert_eq!(fwd.sender_cost, 3);
                assert_eq!(fwd.hops, 2);
                assert_eq!(fwd.seq, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Duplicate copy (e.g. from another neighbor) suppressed.
        assert!(r.on_report(report(1, 7, 2, 100), &mut rng).is_none());
        assert_eq!(r.duplicates(), 1);
        assert_eq!(r.forwarded(), 1);
    }

    #[test]
    fn relay_drops_uphill_reports() {
        let mut r = relay();
        let mut rng = SimRng::new(3);
        r.on_adv(1, 4, &mut rng); // cost = 5
        assert!(r.on_report(report(1, 5, 1, 100), &mut rng).is_none());
        assert!(r.on_report(report(2, 3, 1, 100), &mut rng).is_none());
        assert_eq!(r.dropped_gradient(), 2);
    }

    #[test]
    fn relay_respects_budget() {
        let mut r = relay();
        let mut rng = SimRng::new(4);
        r.on_adv(1, 4, &mut rng); // cost = 5
                                  // budget 7, hops 3 consumed, 5 more needed -> 8 > 7: drop.
        assert!(r.on_report(report(1, 6, 3, 7), &mut rng).is_none());
        assert_eq!(r.dropped_budget(), 1);
        // budget 8 affords it exactly: forward.
        assert!(r.on_report(report(2, 6, 3, 8), &mut rng).is_some());
    }

    #[test]
    fn relay_without_cost_cannot_route() {
        let mut r = relay();
        let mut rng = SimRng::new(5);
        assert!(r.on_report(report(1, 5, 1, 100), &mut rng).is_none());
    }

    #[test]
    fn reset_clears_cost_and_dedup() {
        let mut r = relay();
        let mut rng = SimRng::new(6);
        r.on_adv(3, 1, &mut rng);
        r.on_report(report(1, 5, 1, 100), &mut rng);
        r.reset();
        assert_eq!(r.cost(), None);
        // After reset and a fresh ADV the same seq forwards again (the node
        // "rebooted" its working session).
        r.on_adv(4, 1, &mut rng);
        assert!(r.on_report(report(1, 5, 1, 100), &mut rng).is_some());
    }

    #[test]
    fn delays_are_within_config_bounds() {
        let mut r = relay();
        let mut rng = SimRng::new(7);
        let out = r.on_adv(1, 0, &mut rng).unwrap();
        assert!(out.delay < GrabConfig::paper().adv_delay_max);
        let out = r.on_report(report(1, 9, 1, 100), &mut rng).unwrap();
        assert!(out.delay < GrabConfig::paper().forward_delay_max);
    }
}
