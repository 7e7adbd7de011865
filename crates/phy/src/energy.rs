//! Radio energy accounting.
//!
//! §6.2.1 of the paper reports that "energy measurements in the
//! IoT-LAB show no difference between QMA and unslotted CSMA/CA in
//! terms of power consumption … both multiple access schemes conduct
//! about the same number of transmission attempts". We account energy
//! the same way: integrate per-state power over time and count the
//! discrete radio operations (transmission attempts, CCAs) that
//! dominate consumption.

/// What the radio is doing, for energy-integration purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioActivity {
    /// Radio powered down.
    Sleep,
    /// Receiver on, listening or receiving.
    Listen,
    /// Transmitting.
    Transmit,
}

/// Per-state power draw in milliwatts.
///
/// Defaults follow the AT86RF231 transceiver on the IoT-LAB M3 node
/// (rx ≈ 12.3 mA, tx@3dBm ≈ 14 mA at 3 V ≈ 37/42 mW; sleep ≈ 20 nW,
/// rounded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Power while sleeping, mW.
    pub sleep_mw: f64,
    /// Power while listening/receiving, mW.
    pub listen_mw: f64,
    /// Power while transmitting, mW.
    pub transmit_mw: f64,
}

impl Default for PowerProfile {
    fn default() -> Self {
        PowerProfile {
            sleep_mw: 0.0001,
            listen_mw: 37.0,
            transmit_mw: 42.0,
        }
    }
}

impl PowerProfile {
    /// Power draw for an activity, mW.
    pub fn power_mw(&self, activity: RadioActivity) -> f64 {
        match activity {
            RadioActivity::Sleep => self.sleep_mw,
            RadioActivity::Listen => self.listen_mw,
            RadioActivity::Transmit => self.transmit_mw,
        }
    }
}

/// Integrates radio energy for one node.
///
/// The meter integrates time only, at the power of a [`PowerProfile`]
/// its owner passes to every call: a world of many nodes keeps one
/// profile, not one per meter, so a meter is 48 B. The discrete
/// operations the paper compares (§6.2.1), transmission attempts and
/// CCAs, are counted by whoever drives the radio;
/// [`EnergyMeter::finish`] leaves them at zero for the caller to fill
/// in.
///
/// # Examples
///
/// ```
/// use qma_phy::{EnergyMeter, PowerProfile, RadioActivity};
///
/// let power = PowerProfile::default();
/// let mut meter = EnergyMeter::new();
/// meter.set_activity(&power, 0, RadioActivity::Listen);
/// meter.set_activity(&power, 1_000_000, RadioActivity::Transmit); // after 1 s
/// meter.set_activity(&power, 1_004_256, RadioActivity::Listen);   // 4.256 ms tx
/// let report = meter.finish(&power, 2_000_000);
/// assert!(report.total_mj > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    current: RadioActivity,
    since_us: u64,
    energy_uj: f64, // microjoules = mW × µs / 1000... see note below
    listen_us: u64,
    transmit_us: u64,
    sleep_us: u64,
}

/// Summary of one node's radio usage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Total consumed energy in millijoules.
    pub total_mj: f64,
    /// Number of frame transmission attempts.
    pub tx_attempts: u64,
    /// Number of clear-channel assessments performed.
    pub ccas: u64,
    /// Time spent listening, µs.
    pub listen_us: u64,
    /// Time spent transmitting, µs.
    pub transmit_us: u64,
    /// Time spent sleeping, µs.
    pub sleep_us: u64,
}

impl Default for EnergyMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyMeter {
    /// Creates a meter; the radio starts in [`RadioActivity::Listen`]
    /// at time 0 (contention MACs keep the transceiver on during the
    /// CAP, as the paper notes in §4).
    pub fn new() -> Self {
        EnergyMeter {
            current: RadioActivity::Listen,
            since_us: 0,
            energy_uj: 0.0,
            listen_us: 0,
            transmit_us: 0,
            sleep_us: 0,
        }
    }

    /// Switches activity at absolute time `now_us`, accruing energy
    /// for the elapsed interval at `power`.
    pub fn set_activity(&mut self, power: &PowerProfile, now_us: u64, next: RadioActivity) {
        self.accrue(power, now_us);
        self.current = next;
    }

    /// Closes the accounting period at `end_us`, accruing at `power`,
    /// and returns the report, with `tx_attempts` and `ccas` at zero.
    /// The meter can continue to be used afterwards.
    pub fn finish(&mut self, power: &PowerProfile, end_us: u64) -> EnergyReport {
        self.accrue(power, end_us);
        EnergyReport {
            // mW × µs = nJ; → mJ by 1e-6.
            total_mj: self.energy_uj * 1e-6,
            tx_attempts: 0,
            ccas: 0,
            listen_us: self.listen_us,
            transmit_us: self.transmit_us,
            sleep_us: self.sleep_us,
        }
    }

    fn accrue(&mut self, power: &PowerProfile, now_us: u64) {
        let dt = now_us.saturating_sub(self.since_us);
        if dt == 0 {
            self.since_us = self.since_us.max(now_us);
            return;
        }
        self.energy_uj += power.power_mw(self.current) * dt as f64;
        match self.current {
            RadioActivity::Sleep => self.sleep_us += dt,
            RadioActivity::Listen => self.listen_us += dt,
            RadioActivity::Transmit => self.transmit_us += dt,
        }
        self.since_us = now_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_listening_energy() {
        let p = PowerProfile::default();
        let mut m = EnergyMeter::new();
        let r = m.finish(&p, 1_000_000); // 1 s of listening at 37 mW
        assert!((r.total_mj - 37.0).abs() < 1e-9);
        assert_eq!(r.listen_us, 1_000_000);
        assert_eq!(r.transmit_us, 0);
    }

    #[test]
    fn mixed_states_integrate() {
        let p = PowerProfile {
            sleep_mw: 0.0,
            listen_mw: 10.0,
            transmit_mw: 100.0,
        };
        let mut m = EnergyMeter::new();
        m.set_activity(&p, 500_000, RadioActivity::Transmit); // 0.5 s listen
        m.set_activity(&p, 600_000, RadioActivity::Sleep); // 0.1 s tx
        let r = m.finish(&p, 1_000_000); // 0.4 s sleep
                                         // 0.5 s·10 mW + 0.1 s·100 mW = 5 + 10 = 15 mJ.
        assert!((r.total_mj - 15.0).abs() < 1e-9);
        assert_eq!(r.listen_us, 500_000);
        assert_eq!(r.transmit_us, 100_000);
        assert_eq!(r.sleep_us, 400_000);
    }

    #[test]
    fn out_of_order_updates_are_clamped() {
        let p = PowerProfile::default();
        let mut m = EnergyMeter::new();
        m.set_activity(&p, 1000, RadioActivity::Transmit);
        m.set_activity(&p, 500, RadioActivity::Listen); // late event
        let r = m.finish(&p, 1000);
        assert_eq!(r.listen_us, 1000);
        assert_eq!(r.transmit_us, 0);
    }

    #[test]
    fn finish_is_resumable() {
        let p = PowerProfile::default();
        let mut m = EnergyMeter::new();
        let r1 = m.finish(&p, 1_000_000);
        let r2 = m.finish(&p, 2_000_000);
        assert!(r2.total_mj > r1.total_mj);
        assert_eq!(r2.listen_us, 2_000_000);
    }
}
