//! Radio power profiles.
//!
//! Section 5.1 of the paper: "The node power consumptions in transmission,
//! reception, idle and sleep modes are 60mW, 12mW, 12mW and 0.03mW,
//! respectively" — parameters "similar to Berkeley Motes".

use peas_des::time::SimDuration;

/// Power draw of each radio mode, in milliwatts.
///
/// # Examples
///
/// ```
/// use peas_des::time::SimDuration;
/// use peas_radio::PowerProfile;
///
/// let p = PowerProfile::motes();
/// // A 25-byte frame at 20 kbps is on the air for 10 ms; transmitting it
/// // costs 60 mW x 10 ms = 0.6 mJ.
/// let e = p.tx_energy(SimDuration::from_millis(10));
/// assert!((e - 0.0006).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerProfile {
    /// Transmit power draw, mW.
    pub tx_mw: f64,
    /// Receive power draw, mW.
    pub rx_mw: f64,
    /// Idle-listening power draw, mW.
    pub idle_mw: f64,
    /// Sleep power draw, mW.
    pub sleep_mw: f64,
}

impl PowerProfile {
    /// The Berkeley-Motes-like profile from Section 5.1:
    /// tx 60 mW, rx 12 mW, idle 12 mW, sleep 0.03 mW.
    pub fn motes() -> PowerProfile {
        PowerProfile {
            tx_mw: 60.0,
            rx_mw: 12.0,
            idle_mw: 12.0,
            sleep_mw: 0.03,
        }
    }

    /// Energy in joules for drawing `mw` milliwatts over `d`.
    #[inline]
    pub fn energy_j(mw: f64, d: SimDuration) -> f64 {
        mw * 1e-3 * d.as_secs_f64()
    }

    /// Energy to transmit for duration `d`, in joules.
    pub fn tx_energy(&self, d: SimDuration) -> f64 {
        Self::energy_j(self.tx_mw, d)
    }

    /// Energy to receive for duration `d`, in joules.
    pub fn rx_energy(&self, d: SimDuration) -> f64 {
        Self::energy_j(self.rx_mw, d)
    }

    /// Energy to idle-listen for duration `d`, in joules.
    pub fn idle_energy(&self, d: SimDuration) -> f64 {
        Self::energy_j(self.idle_mw, d)
    }

    /// Energy to sleep for duration `d`, in joules.
    pub fn sleep_energy(&self, d: SimDuration) -> f64 {
        Self::energy_j(self.sleep_mw, d)
    }

    /// The *extra* energy transmitting costs over idling for `d` — useful
    /// when a node's base idle draw is accounted separately.
    pub fn tx_surcharge(&self, d: SimDuration) -> f64 {
        Self::energy_j((self.tx_mw - self.idle_mw).max(0.0), d)
    }

    /// How long a battery of `joules` lasts at idle draw, in seconds.
    ///
    /// The paper notes 54–60 J "allowing the node to operate about
    /// 4500 ~ 5000 seconds in reception/idle modes".
    pub fn idle_lifetime_secs(&self, joules: f64) -> f64 {
        joules / (self.idle_mw * 1e-3)
    }
}

impl Default for PowerProfile {
    fn default() -> Self {
        PowerProfile::motes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motes_profile_matches_section_5_1() {
        let p = PowerProfile::motes();
        assert_eq!(p.tx_mw, 60.0);
        assert_eq!(p.rx_mw, 12.0);
        assert_eq!(p.idle_mw, 12.0);
        assert_eq!(p.sleep_mw, 0.03);
    }

    #[test]
    fn idle_lifetime_matches_paper_battery_range() {
        let p = PowerProfile::motes();
        assert!((p.idle_lifetime_secs(54.0) - 4500.0).abs() < 1e-9);
        assert!((p.idle_lifetime_secs(60.0) - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let p = PowerProfile::motes();
        let second = SimDuration::from_secs(1);
        assert!((p.tx_energy(second) - 0.060).abs() < 1e-15);
        assert!((p.rx_energy(second) - 0.012).abs() < 1e-15);
        assert!((p.idle_energy(second) - 0.012).abs() < 1e-15);
        assert!((p.sleep_energy(second) - 3e-5).abs() < 1e-15);
    }

    #[test]
    fn tx_surcharge_is_tx_minus_idle() {
        let p = PowerProfile::motes();
        let d = SimDuration::from_millis(10);
        assert!((p.tx_surcharge(d) - (0.060 - 0.012) * 1e-2 * 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_wakeup_energy_estimate_holds() {
        // Section 5.2: "a probing node transmits three PROBEs and waits for
        // 100ms ... the amount is 0.00316 Joule per wakeup". Reconstruct:
        // 3 probe transmissions (10 ms each) + 100 ms idle wait + receiving
        // one 10 ms REPLY ≈ 3.16 mJ.
        let p = PowerProfile::motes();
        let frame = SimDuration::from_millis(10);
        let wakeup = 3.0 * p.tx_energy(frame)
            + p.idle_energy(SimDuration::from_millis(100))
            + p.rx_energy(frame)
            + p.rx_energy(SimDuration::from_millis(3)); // processing slack
        assert!(
            (wakeup - 0.00316).abs() < 2e-4,
            "reconstructed wakeup energy {wakeup} J"
        );
    }
}
