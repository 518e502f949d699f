//! Streaming anomaly statistics shared by the behavioural monitors.
//!
//! Three detectors cover the shapes of misbehaviour the monitors need:
//! [`Ewma`] (level shifts against a smoothed baseline), [`Cusum`]
//! (small persistent drifts), and [`WindowStats`] (stuck-at via collapsed
//! variance, bursts via windowed rate).

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average with z-score queries.
///
/// # Example
///
/// ```
/// use cres_monitor::anomaly::Ewma;
/// let mut e = Ewma::new(0.1);
/// for _ in 0..100 {
///     e.update(50.0);
/// }
/// assert!(e.z_score(50.0).abs() < 1.0);
/// assert!(e.z_score(90.0) > 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    var: f64,
    initialized: bool,
    count: u64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics for alpha outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma {
            alpha,
            mean: 0.0,
            var: 0.0,
            initialized: false,
            count: 0,
        }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: f64) {
        self.count += 1;
        if !self.initialized {
            self.mean = x;
            self.var = 0.0;
            self.initialized = true;
            return;
        }
        let diff = x - self.mean;
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * diff * diff);
    }

    /// The smoothed mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The smoothed standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Standard score of `x` against the current baseline. Uses a floor on
    /// the deviation so an over-quiet baseline cannot make everything
    /// anomalous.
    pub fn z_score(&self, x: f64) -> f64 {
        let sd = self.std_dev().max(1e-6 + self.mean.abs() * 1e-4);
        (x - self.mean) / sd
    }

    /// True once enough samples have arrived to trust the baseline.
    pub fn warmed_up(&self) -> bool {
        self.count >= 10
    }
}

/// Two-sided CUSUM drift detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cusum {
    target: f64,
    slack: f64,
    threshold: f64,
    pos: f64,
    neg: f64,
}

impl Cusum {
    /// Creates a CUSUM around `target` tolerating `slack` per-sample noise,
    /// alarming when the cumulative excess passes `threshold`.
    pub fn new(target: f64, slack: f64, threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Cusum {
            target,
            slack,
            threshold,
            pos: 0.0,
            neg: 0.0,
        }
    }

    /// Feeds one observation; returns true when the drift alarm fires (and
    /// resets the accumulators).
    pub fn update(&mut self, x: f64) -> bool {
        self.pos = (self.pos + x - self.target - self.slack).max(0.0);
        self.neg = (self.neg + self.target - x - self.slack).max(0.0);
        if self.pos > self.threshold || self.neg > self.threshold {
            self.pos = 0.0;
            self.neg = 0.0;
            true
        } else {
            false
        }
    }

    /// Current accumulator magnitudes `(positive, negative)`.
    pub fn pressure(&self) -> (f64, f64) {
        (self.pos, self.neg)
    }
}

/// Fixed-size sliding window with mean/variance and range queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    window: Vec<f64>,
    capacity: usize,
    next: usize,
    filled: bool,
}

impl WindowStats {
    /// Creates a window of `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics for zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        WindowStats {
            window: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            filled: false,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        if self.window.len() < self.capacity {
            self.window.push(x);
            if self.window.len() == self.capacity {
                self.filled = true;
            }
        } else {
            self.window[self.next] = x;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// True once the window is full.
    pub fn is_full(&self) -> bool {
        self.filled
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no observations are held.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Mean of the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().sum::<f64>() / self.window.len() as f64
    }

    /// Population variance of the window.
    pub fn variance(&self) -> f64 {
        if self.window.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.window.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.window.len() as f64
    }

    /// `(min, max)` of the window, `None` when empty.
    pub fn range(&self) -> Option<(f64, f64)> {
        if self.window.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in &self.window {
            min = min.min(x);
            max = max.max(x);
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_level() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(10.0);
        }
        assert!((e.mean() - 10.0).abs() < 1e-9);
        assert!(e.std_dev() < 1e-6);
        assert!(e.warmed_up());
    }

    #[test]
    fn ewma_flags_level_shift() {
        let mut e = Ewma::new(0.1);
        // noisy baseline around 100 ± 2
        let noise = [1.5, -0.7, 0.3, -1.9, 0.9, 1.1, -0.2, -1.3];
        for i in 0..200 {
            e.update(100.0 + noise[i % noise.len()]);
        }
        assert!(e.z_score(101.0).abs() < 3.0, "in-band value flagged");
        assert!(e.z_score(150.0) > 8.0, "gross shift missed");
        assert!(e.z_score(50.0) < -8.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn cusum_ignores_noise_catches_drift() {
        let mut c = Cusum::new(50.0, 1.0, 10.0);
        let noise = [0.5, -0.5, 0.8, -0.9, 0.2, -0.1];
        for i in 0..500 {
            assert!(
                !c.update(50.0 + noise[i % noise.len()]),
                "noise fired at {i}"
            );
        }
        // small persistent drift of +2 units
        let mut fired = false;
        for _ in 0..50 {
            if c.update(52.0) {
                fired = true;
                break;
            }
        }
        assert!(fired, "drift never detected");
    }

    #[test]
    fn cusum_detects_negative_drift() {
        let mut c = Cusum::new(50.0, 0.5, 5.0);
        let mut fired = false;
        for _ in 0..50 {
            if c.update(48.0) {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn window_stats_basic() {
        let mut w = WindowStats::new(4);
        assert!(w.is_empty());
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        assert!(w.is_full());
        assert_eq!(w.mean(), 2.5);
        assert_eq!(w.range(), Some((1.0, 4.0)));
        assert!((w.variance() - 1.25).abs() < 1e-12);
        // eviction: oldest replaced
        w.push(9.0);
        assert_eq!(w.range(), Some((2.0, 9.0)));
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn window_stuck_at_has_zero_variance() {
        let mut w = WindowStats::new(8);
        for _ in 0..8 {
            w.push(42.0);
        }
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn window_zero_capacity_panics() {
        WindowStats::new(0);
    }
}
