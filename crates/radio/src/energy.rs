//! Per-node batteries and the cause-attributed energy ledger.
//!
//! Table 1 of the paper reports PEAS's energy *overhead ratio* — probing
//! energy as a fraction of total consumption. To measure (not estimate)
//! that, every joule drained from a battery is attributed to a cause.

use std::fmt;

use peas_des::time::SimDuration;

use crate::power::PowerProfile;

/// What a unit of energy was spent on.
///
/// `Protocol*` causes are PEAS overhead (PROBE/REPLY traffic plus the awake
/// time a probing node spends waiting for REPLYs); everything else is the
/// cost the network would pay anyway.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnergyCause {
    /// Transmitting a PEAS control frame (PROBE or REPLY).
    ProtocolTx,
    /// Receiving a PEAS control frame.
    ProtocolRx,
    /// Idle-listening during a probing node's REPLY-collection window.
    ProtocolIdle,
    /// Transmitting application (data/ADV) frames.
    AppTx,
    /// Receiving application frames.
    AppRx,
    /// Baseline idle listening while in the working mode.
    WorkingIdle,
    /// Sleep-mode draw.
    Sleep,
}

impl EnergyCause {
    /// All causes, for iteration in reports.
    pub const ALL: [EnergyCause; 7] = [
        EnergyCause::ProtocolTx,
        EnergyCause::ProtocolRx,
        EnergyCause::ProtocolIdle,
        EnergyCause::AppTx,
        EnergyCause::AppRx,
        EnergyCause::WorkingIdle,
        EnergyCause::Sleep,
    ];

    /// Whether this cause counts as PEAS protocol overhead (Table 1).
    pub fn is_protocol_overhead(self) -> bool {
        matches!(
            self,
            EnergyCause::ProtocolTx | EnergyCause::ProtocolRx | EnergyCause::ProtocolIdle
        )
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            EnergyCause::ProtocolTx => 0,
            EnergyCause::ProtocolRx => 1,
            EnergyCause::ProtocolIdle => 2,
            EnergyCause::AppTx => 3,
            EnergyCause::AppRx => 4,
            EnergyCause::WorkingIdle => 5,
            EnergyCause::Sleep => 6,
        }
    }
}

impl fmt::Display for EnergyCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergyCause::ProtocolTx => "protocol-tx",
            EnergyCause::ProtocolRx => "protocol-rx",
            EnergyCause::ProtocolIdle => "protocol-idle",
            EnergyCause::AppTx => "app-tx",
            EnergyCause::AppRx => "app-rx",
            EnergyCause::WorkingIdle => "working-idle",
            EnergyCause::Sleep => "sleep",
        };
        f.write_str(name)
    }
}

/// Energy drained per cause, in joules.
///
/// # Examples
///
/// ```
/// use peas_radio::{EnergyCause, EnergyLedger};
///
/// let mut ledger = EnergyLedger::new();
/// ledger.add(EnergyCause::ProtocolTx, 0.0006);
/// ledger.add(EnergyCause::WorkingIdle, 0.5);
/// assert!(ledger.protocol_overhead_j() < 0.01 * ledger.total_j() + 0.001);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    by_cause: [f64; 7],
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> EnergyLedger {
        EnergyLedger::default()
    }

    /// Records `joules` drained for `cause`.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    #[inline]
    pub fn add(&mut self, cause: EnergyCause, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "energy must be non-negative and finite, got {joules}"
        );
        self.by_cause[cause.index()] += joules;
    }

    /// Joules drained for one cause.
    pub fn for_cause(&self, cause: EnergyCause) -> f64 {
        self.by_cause[cause.index()]
    }

    /// Total joules drained.
    pub fn total_j(&self) -> f64 {
        self.by_cause.iter().sum()
    }

    /// Joules attributable to PEAS overhead (Table 1 numerator).
    pub fn protocol_overhead_j(&self) -> f64 {
        EnergyCause::ALL
            .iter()
            .filter(|c| c.is_protocol_overhead())
            .map(|&c| self.for_cause(c))
            .sum()
    }

    /// Overhead ratio = protocol overhead / total (Table 1 last column).
    /// Returns 0 when nothing was consumed.
    pub fn overhead_ratio(&self) -> f64 {
        let total = self.total_j();
        if total == 0.0 {
            0.0
        } else {
            self.protocol_overhead_j() / total
        }
    }

    /// Accumulates another ledger into this one (for fleet-wide totals).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (dst, src) in self.by_cause.iter_mut().zip(other.by_cause.iter()) {
            *dst += src;
        }
    }
}

/// A node's finite energy reserve.
///
/// The paper draws initial energy uniformly from 54–60 J to model battery
/// variance; see [`Battery::paper_random`].
#[derive(Clone, Debug, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// A battery holding `joules`.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn new(joules: f64) -> Battery {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "battery capacity must be non-negative, got {joules}"
        );
        Battery {
            capacity_j: joules,
            remaining_j: joules,
        }
    }

    /// A battery drawn uniformly from the paper's 54–60 J range.
    pub fn paper_random(rng: &mut peas_des::rng::SimRng) -> Battery {
        Battery::new(rng.range_f64(54.0, 60.0))
    }

    /// An effectively infinite battery (for source/sink infrastructure
    /// nodes that the paper places at the field corners).
    pub fn unlimited() -> Battery {
        Battery::new(f64::MAX / 4.0)
    }

    /// Initial capacity in joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining energy in joules.
    pub fn remaining_j(&self) -> f64 {
        self.remaining_j
    }

    /// Energy consumed so far in joules.
    pub fn consumed_j(&self) -> f64 {
        self.capacity_j - self.remaining_j
    }

    /// Whether the battery is exhausted.
    pub fn is_depleted(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Drains `joules`; the battery floors at zero. Returns `true` while
    /// energy remains afterwards, `false` if this drain (or an earlier one)
    /// depleted the battery.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    #[inline]
    pub fn drain(&mut self, joules: f64) -> bool {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "drain must be non-negative, got {joules}"
        );
        self.remaining_j = (self.remaining_j - joules).max(0.0);
        !self.is_depleted()
    }

    /// How long the battery sustains a constant `mw` draw, as a duration.
    pub fn lifetime_at(&self, mw: f64) -> SimDuration {
        assert!(mw > 0.0, "power draw must be positive");
        SimDuration::from_secs_f64(self.remaining_j / (mw * 1e-3))
    }

    /// Convenience: drains energy for holding `profile_mw` over `d` and
    /// records it in `ledger` under `cause`, exactly as
    /// [`Battery::drain_j`] of [`PowerProfile::energy_j`]`(profile_mw, d)`.
    /// Returns `true` while alive.
    #[inline]
    pub fn drain_timed(
        &mut self,
        profile_mw: f64,
        d: SimDuration,
        cause: EnergyCause,
        ledger: &mut EnergyLedger,
    ) -> bool {
        self.drain_j(PowerProfile::energy_j(profile_mw, d), cause, ledger)
    }

    /// Drains `joules` and records them in `ledger` under `cause`. Only
    /// the energy the battery actually held is recorded — a dying node
    /// cannot spend more than it has, so ledgers always balance battery
    /// consumption exactly. Returns `true` while alive.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    #[inline]
    pub fn drain_j(&mut self, joules: f64, cause: EnergyCause, ledger: &mut EnergyLedger) -> bool {
        // `remaining_j` is always finite and non-negative, so once `drain`
        // has checked `joules` the recorded share needs no check of its own.
        let held = joules.min(self.remaining_j);
        let alive = self.drain(joules);
        ledger.by_cause[cause.index()] += held;
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peas_des::rng::SimRng;

    #[test]
    fn battery_drains_to_zero_and_floors() {
        let mut b = Battery::new(1.0);
        assert!(b.drain(0.4));
        assert!((b.remaining_j() - 0.6).abs() < 1e-12);
        assert!(!b.drain(0.7));
        assert_eq!(b.remaining_j(), 0.0);
        assert!(b.is_depleted());
        assert_eq!(b.consumed_j(), 1.0);
    }

    #[test]
    fn paper_random_battery_in_range() {
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            let b = Battery::paper_random(&mut rng);
            assert!((54.0..60.0).contains(&b.capacity_j()));
        }
    }

    #[test]
    fn lifetime_at_idle_matches_paper() {
        let b = Battery::new(54.0);
        let life = b.lifetime_at(12.0);
        assert!((life.as_secs_f64() - 4500.0).abs() < 1e-6);
    }

    #[test]
    fn ledger_attributes_and_totals() {
        let mut l = EnergyLedger::new();
        l.add(EnergyCause::ProtocolTx, 1.0);
        l.add(EnergyCause::ProtocolRx, 2.0);
        l.add(EnergyCause::ProtocolIdle, 3.0);
        l.add(EnergyCause::WorkingIdle, 94.0);
        assert_eq!(l.protocol_overhead_j(), 6.0);
        assert_eq!(l.total_j(), 100.0);
        assert!((l.overhead_ratio() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_ratio_is_zero() {
        assert_eq!(EnergyLedger::new().overhead_ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyLedger::new();
        a.add(EnergyCause::Sleep, 1.5);
        let mut b = EnergyLedger::new();
        b.add(EnergyCause::Sleep, 2.5);
        b.add(EnergyCause::AppTx, 1.0);
        a.merge(&b);
        assert_eq!(a.for_cause(EnergyCause::Sleep), 4.0);
        assert_eq!(a.for_cause(EnergyCause::AppTx), 1.0);
    }

    #[test]
    fn drain_timed_records_and_drains() {
        let mut b = Battery::new(10.0);
        let mut l = EnergyLedger::new();
        let alive = b.drain_timed(
            12.0,
            SimDuration::from_secs(100),
            EnergyCause::WorkingIdle,
            &mut l,
        );
        assert!(alive);
        assert!((b.remaining_j() - 8.8).abs() < 1e-12);
        assert!((l.for_cause(EnergyCause::WorkingIdle) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn drain_timed_records_only_what_the_battery_held() {
        let mut b = Battery::new(0.5);
        let mut l = EnergyLedger::new();
        // Requesting 1.2 J from a 0.5 J battery: ledger gets 0.5 J only.
        let alive = b.drain_timed(
            12.0,
            SimDuration::from_secs(100),
            EnergyCause::WorkingIdle,
            &mut l,
        );
        assert!(!alive);
        assert_eq!(b.remaining_j(), 0.0);
        assert!((l.total_j() - 0.5).abs() < 1e-12);
        assert!((l.total_j() - b.consumed_j()).abs() < 1e-12);
    }

    #[test]
    fn drain_j_of_energy_j_is_bit_identical_to_drain_timed() {
        // A live battery, one this charge depletes, and a zero-length
        // charge, each from a fresh and from an already-used ledger.
        let cases = [
            (10.0, 12.0, SimDuration::from_millis(10)),
            (0.0005, 60.0, SimDuration::from_millis(10)),
            (3.0, 12.0, SimDuration::ZERO),
        ];
        for (capacity, mw, d) in cases {
            for cause in EnergyCause::ALL {
                let mut timed = (Battery::new(capacity), EnergyLedger::new());
                timed.1.add(EnergyCause::Sleep, 0.125);
                let mut direct = timed.clone();
                for _ in 0..3 {
                    let a = timed.0.drain_timed(mw, d, cause, &mut timed.1);
                    let j = PowerProfile::energy_j(mw, d);
                    let b = direct.0.drain_j(j, cause, &mut direct.1);
                    assert_eq!(a, b);
                    assert_eq!(
                        timed.0.remaining_j().to_bits(),
                        direct.0.remaining_j().to_bits()
                    );
                    for c in EnergyCause::ALL {
                        assert_eq!(
                            timed.1.for_cause(c).to_bits(),
                            direct.1.for_cause(c).to_bits(),
                            "{c} after charging {cause} from {capacity} J"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unlimited_battery_survives_heavy_drain() {
        let mut b = Battery::unlimited();
        assert!(b.drain(1e12));
        assert!(!b.is_depleted());
    }

    #[test]
    fn overhead_causes_classified() {
        assert!(EnergyCause::ProtocolTx.is_protocol_overhead());
        assert!(EnergyCause::ProtocolIdle.is_protocol_overhead());
        assert!(!EnergyCause::AppTx.is_protocol_overhead());
        assert!(!EnergyCause::Sleep.is_protocol_overhead());
    }

    #[test]
    fn cause_display_names_are_stable() {
        let names: Vec<String> = EnergyCause::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "protocol-tx",
                "protocol-rx",
                "protocol-idle",
                "app-tx",
                "app-rx",
                "working-idle",
                "sleep"
            ]
        );
    }
}
