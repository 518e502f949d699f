//! Physical sensors with a deterministic signal model and spoofing hooks.
//!
//! A benign sensor produces `baseline + amplitude·sin(2πt/period) + noise`.
//! Attack injectors override the reading through [`SensorSpoof`] — the
//! plausibility monitor's job is to notice the difference.

use cres_sim::{DetRng, SimTime};
use serde::{Deserialize, Serialize};

/// How a compromised sensor lies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorSpoof {
    /// Reports a fixed value (stuck-at).
    Fixed(f64),
    /// Drifts away from truth at `rate` units per 1000 cycles.
    Drift {
        /// Drift rate in units per 1000 cycles.
        rate: f64,
        /// When the drift started.
        since: SimTime,
    },
    /// Adds implausibly large jitter.
    Jitter(f64),
}

/// A modelled physical sensor.
#[derive(Debug, Clone)]
pub struct Sensor {
    name: String,
    baseline: f64,
    amplitude: f64,
    period_cycles: u64,
    noise_std: f64,
    spoof: Option<SensorSpoof>,
    reads: u64,
}

impl Sensor {
    /// Creates a sensor with the given signal model.
    ///
    /// # Panics
    ///
    /// Panics if `period_cycles` is zero.
    pub fn new(
        name: &str,
        baseline: f64,
        amplitude: f64,
        period_cycles: u64,
        noise_std: f64,
    ) -> Self {
        assert!(period_cycles > 0, "sensor period must be non-zero");
        Sensor {
            name: name.to_string(),
            baseline,
            amplitude,
            period_cycles,
            noise_std,
            spoof: None,
            reads: 0,
        }
    }

    /// Sensor name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The true (un-spoofed) physical value at `now`, before noise.
    pub fn truth(&self, now: SimTime) -> f64 {
        let phase = (now.cycle() % self.period_cycles) as f64 / self.period_cycles as f64;
        self.baseline + self.amplitude * (2.0 * std::f64::consts::PI * phase).sin()
    }

    /// Reads the sensor: truth + noise, unless spoofed.
    pub fn read(&mut self, now: SimTime, rng: &mut DetRng) -> f64 {
        self.reads += 1;
        let honest = self.truth(now) + rng.normal(0.0, self.noise_std);
        match self.spoof {
            None => honest,
            Some(SensorSpoof::Fixed(v)) => v,
            Some(SensorSpoof::Drift { rate, since }) => {
                let dt = now.saturating_since(since).as_cycles() as f64 / 1000.0;
                honest + rate * dt
            }
            Some(SensorSpoof::Jitter(j)) => honest + rng.normal(0.0, j),
        }
    }

    /// Installs a spoof (attack injector hook).
    pub fn spoof(&mut self, mode: SensorSpoof) {
        self.spoof = Some(mode);
    }

    /// True while spoofed.
    pub fn is_spoofed(&self) -> bool {
        self.spoof.is_some()
    }

    /// Number of reads performed.
    pub fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> Sensor {
        Sensor::new("grid_freq", 50.0, 0.05, 100_000, 0.002)
    }

    #[test]
    fn honest_reads_track_truth() {
        let mut s = sensor();
        let mut rng = DetRng::seed_from(1);
        for t in (0..1_000_000).step_by(10_000) {
            let now = SimTime::at_cycle(t);
            let v = s.read(now, &mut rng);
            assert!((v - s.truth(now)).abs() < 0.02, "at {t}: {v}");
        }
        assert_eq!(s.read_count(), 100);
    }

    #[test]
    fn truth_oscillates_around_baseline() {
        let s = sensor();
        let quarter = SimTime::at_cycle(25_000);
        let three_quarter = SimTime::at_cycle(75_000);
        assert!(s.truth(quarter) > 50.0);
        assert!(s.truth(three_quarter) < 50.0);
        assert!((s.truth(SimTime::ZERO) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_spoof_overrides() {
        let mut s = sensor();
        let mut rng = DetRng::seed_from(2);
        s.spoof(SensorSpoof::Fixed(62.5));
        assert_eq!(s.read(SimTime::ZERO, &mut rng), 62.5);
        assert!(s.is_spoofed());
    }

    #[test]
    fn drift_grows_with_time() {
        let mut s = sensor();
        let mut rng = DetRng::seed_from(3);
        s.spoof(SensorSpoof::Drift {
            rate: 0.1,
            since: SimTime::ZERO,
        });
        let early = s.read(SimTime::at_cycle(1_000), &mut rng);
        let late = s.read(SimTime::at_cycle(1_000_000), &mut rng);
        assert!(
            late - early > 50.0,
            "drift should dominate: {early} → {late}"
        );
    }

    #[test]
    fn jitter_inflates_variance() {
        let mut s = sensor();
        let mut rng = DetRng::seed_from(4);
        let honest: Vec<f64> = (0..200)
            .map(|i| s.read(SimTime::at_cycle(i), &mut rng))
            .collect();
        s.spoof(SensorSpoof::Jitter(5.0));
        let spoofed: Vec<f64> = (0..200)
            .map(|i| s.read(SimTime::at_cycle(i), &mut rng))
            .collect();
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!(var(&spoofed) > var(&honest) * 100.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        Sensor::new("bad", 0.0, 0.0, 0, 0.0);
    }
}
