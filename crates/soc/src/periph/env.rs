//! Environmental sensors: voltage, clock and temperature.
//!
//! Table I lists "voltage, clock and temperature monitors" among the
//! existing passive response landscape. Fault-injection attacks (glitching)
//! show up here as out-of-envelope readings; the environment monitor in
//! `cres-monitor` thresholds them.

use cres_sim::{DetRng, SimTime};
use serde::{Deserialize, Serialize};

/// A physical tamper/fault-injection mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnvTamper {
    /// Supply-voltage glitch to `volts`.
    VoltageGlitch(f64),
    /// Clock overclocked/underclocked to `mhz`.
    ClockSkew(f64),
    /// Heating/cooling attack to `celsius`.
    Thermal(f64),
}

/// One sample of the environmental sensors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvReading {
    /// Core supply voltage in volts.
    pub voltage: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Die temperature in °C.
    pub temp_c: f64,
    /// When the sample was taken.
    pub at: SimTime,
}

/// The environmental sensor block.
#[derive(Debug, Clone)]
pub struct EnvSensors {
    nominal_voltage: f64,
    nominal_clock: f64,
    nominal_temp: f64,
    tamper: Option<EnvTamper>,
}

impl Default for EnvSensors {
    fn default() -> Self {
        Self::new(3.3, 100.0, 45.0)
    }
}

impl EnvSensors {
    /// Creates the block with the given nominal operating point.
    pub fn new(voltage: f64, clock_mhz: f64, temp_c: f64) -> Self {
        EnvSensors {
            nominal_voltage: voltage,
            nominal_clock: clock_mhz,
            nominal_temp: temp_c,
            tamper: None,
        }
    }

    /// The nominal operating point `(V, MHz, °C)`.
    pub fn nominal(&self) -> (f64, f64, f64) {
        (self.nominal_voltage, self.nominal_clock, self.nominal_temp)
    }

    /// Samples the sensors with small gaussian measurement noise.
    pub fn sample(&self, at: SimTime, rng: &mut DetRng) -> EnvReading {
        let mut r = EnvReading {
            voltage: self.nominal_voltage + rng.normal(0.0, 0.01),
            clock_mhz: self.nominal_clock + rng.normal(0.0, 0.05),
            temp_c: self.nominal_temp + rng.normal(0.0, 0.3),
            at,
        };
        match self.tamper {
            Some(EnvTamper::VoltageGlitch(v)) => r.voltage = v,
            Some(EnvTamper::ClockSkew(mhz)) => r.clock_mhz = mhz,
            Some(EnvTamper::Thermal(c)) => r.temp_c = c,
            None => {}
        }
        r
    }

    /// Applies a tamper mode (attack injector hook).
    pub fn tamper(&mut self, mode: EnvTamper) {
        self.tamper = Some(mode);
    }

    /// True while tampered.
    pub fn is_tampered(&self) -> bool {
        self.tamper.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_cluster_around_nominal() {
        let env = EnvSensors::default();
        let mut rng = DetRng::seed_from(1);
        for i in 0..100 {
            let r = env.sample(SimTime::at_cycle(i), &mut rng);
            assert!((r.voltage - 3.3).abs() < 0.1);
            assert!((r.clock_mhz - 100.0).abs() < 1.0);
            assert!((r.temp_c - 45.0).abs() < 3.0);
        }
    }

    #[test]
    fn voltage_glitch_shows_up() {
        let mut env = EnvSensors::default();
        let mut rng = DetRng::seed_from(2);
        env.tamper(EnvTamper::VoltageGlitch(1.2));
        let r = env.sample(SimTime::ZERO, &mut rng);
        assert_eq!(r.voltage, 1.2);
        // other channels stay nominal
        assert!((r.clock_mhz - 100.0).abs() < 1.0);
        assert!(env.is_tampered());
    }

    #[test]
    fn clock_skew() {
        let mut env = EnvSensors::default();
        let mut rng = DetRng::seed_from(4);
        env.tamper(EnvTamper::ClockSkew(250.0));
        assert_eq!(env.sample(SimTime::ZERO, &mut rng).clock_mhz, 250.0);
    }
}
