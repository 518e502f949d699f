//! The platform health state machine.
//!
//! `Healthy → Suspicious → Compromised → Degraded → Recovering → Healthy`:
//! incidents push the state toward `Compromised`, countermeasure execution
//! moves it to `Degraded` (services shed) or `Recovering` (repair in
//! progress), and a completed recovery with a quiet observation window
//! returns it to `Healthy`. Experiments use the recorded transition history
//! to compute time-in-state availability.
//!
//! [`MonitorHealth`] tracks the monitor fleet's heartbeats alongside it
//! when a fault plane is armed: a monitor silent for more than
//! [`MISS_THRESHOLD`] sampling periods is quarantined.

use cres_monitor::Severity;
use cres_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The platform health states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HealthState {
    /// Nominal operation.
    Healthy,
    /// Warnings observed; heightened monitoring.
    Suspicious,
    /// Confirmed incident; active threat present.
    Compromised,
    /// Operating with reduced functionality (critical services only).
    Degraded,
    /// Repair/restore in progress.
    Recovering,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The health tracker with transition history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemHealth {
    state: HealthState,
    history: Vec<(SimTime, HealthState)>,
}

impl Default for SystemHealth {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemHealth {
    /// Creates a healthy tracker.
    pub fn new() -> Self {
        SystemHealth {
            state: HealthState::Healthy,
            history: vec![(SimTime::ZERO, HealthState::Healthy)],
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Full transition history `(when, entered state)`.
    pub fn history(&self) -> &[(SimTime, HealthState)] {
        &self.history
    }

    fn transition(&mut self, at: SimTime, to: HealthState) {
        if self.state != to {
            self.state = to;
            self.history.push((at, to));
        }
    }

    /// Records that an incident of `severity` was classified.
    pub fn on_incident(&mut self, at: SimTime, severity: Severity) {
        let next = match (self.state, severity) {
            (_, Severity::Critical) => HealthState::Compromised,
            (HealthState::Healthy, _) => HealthState::Suspicious,
            (HealthState::Suspicious, _) => HealthState::Compromised,
            (s, _) => s,
        };
        self.transition(at, next);
    }

    /// Records that degradation countermeasures took effect.
    pub fn on_degraded(&mut self, at: SimTime) {
        self.transition(at, HealthState::Degraded);
    }

    /// Records that recovery actions started.
    pub fn on_recovery_started(&mut self, at: SimTime) {
        self.transition(at, HealthState::Recovering);
    }

    /// Records that recovery completed and the observation window was
    /// quiet.
    pub fn on_recovered(&mut self, at: SimTime) {
        self.transition(at, HealthState::Healthy);
    }

    /// Cycles spent in `state` up to `now`. Transitions after `now` are
    /// ignored and the open segment is clamped at `now`, so querying at any
    /// instant partitions exactly `now` cycles across the states.
    pub fn time_in(&self, state: HealthState, now: SimTime) -> u64 {
        let mut total = 0u64;
        for pair in self.history.windows(2) {
            let (start, s) = pair[0];
            let (end, _) = pair[1];
            if s == state {
                total += end.min(now).saturating_since(start).as_cycles();
            }
        }
        if let Some(&(start, s)) = self.history.last() {
            if s == state {
                total += now.saturating_since(start).as_cycles();
            }
        }
        total
    }

    /// Fraction of time up to `now` spent in [`HealthState::Healthy`] or
    /// [`HealthState::Degraded`] (i.e. delivering at least critical
    /// services).
    pub fn service_availability(&self, now: SimTime) -> f64 {
        let total = now.cycle().max(1);
        let up = self.time_in(HealthState::Healthy, now) + self.time_in(HealthState::Degraded, now);
        up as f64 / total as f64
    }
}

/// Heartbeat periods a monitor may stay silent before the SSM quarantines
/// it.
pub const MISS_THRESHOLD: u64 = 3;

/// Heartbeat-based liveness tracking for the monitor fleet.
///
/// Every periodic sampling round each live monitor reports a heartbeat; a
/// monitor that misses [`MISS_THRESHOLD`] consecutive rounds is declared
/// dead and **quarantined** — the SSM stops trusting its silence, records
/// the loss as evidence, and switches the correlation engine into
/// sensing-degraded mode so the remaining monitors compensate instead of
/// the platform going blind.
///
/// # Example
///
/// ```
/// use cres_ssm::MonitorHealth;
/// use cres_sim::{SimDuration, SimTime};
///
/// let mut health = MonitorHealth::new(2, SimDuration::cycles(1_000));
/// health.heartbeat(0, SimTime::at_cycle(1_000));
/// health.heartbeat(1, SimTime::at_cycle(1_000));
/// // Monitor 1 falls silent; three missed deadlines later it is quarantined.
/// health.heartbeat(0, SimTime::at_cycle(5_000));
/// let dead = health.check(SimTime::at_cycle(5_000));
/// assert_eq!(dead, vec![1]);
/// assert!(health.is_quarantined(1));
/// assert!(!health.is_quarantined(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorHealth {
    /// Last heartbeat per monitor index (`None` until first beat).
    last_seen: Vec<Option<SimTime>>,
    /// Monitors declared dead.
    quarantined: Vec<bool>,
    /// Expected heartbeat period (the platform's monitor sampling period).
    period: SimDuration,
}

impl MonitorHealth {
    /// Creates a tracker for `count` monitors beating every `period`.
    pub fn new(count: usize, period: SimDuration) -> Self {
        MonitorHealth {
            last_seen: vec![None; count],
            quarantined: vec![false; count],
            period,
        }
    }

    /// Records a heartbeat from monitor `index` at `now`. Heartbeats from a
    /// quarantined monitor are ignored — a resurrected monitor is not
    /// trusted again within a run.
    pub fn heartbeat(&mut self, index: usize, now: SimTime) {
        if index < self.last_seen.len() && !self.quarantined[index] {
            self.last_seen[index] = Some(match self.last_seen[index] {
                Some(prev) => prev.max(now),
                None => now,
            });
        }
    }

    /// Sweeps all monitors at `now` and returns the indices quarantined by
    /// *this* sweep (each index is returned exactly once per run). A monitor
    /// is dead once `now` is more than `MISS_THRESHOLD × period` past its
    /// last heartbeat; monitors that never beat are measured from cycle 0.
    pub fn check(&mut self, now: SimTime) -> Vec<usize> {
        let deadline = self.period.as_cycles().saturating_mul(MISS_THRESHOLD);
        let mut newly_dead = Vec::new();
        for index in 0..self.last_seen.len() {
            if self.quarantined[index] {
                continue;
            }
            let last = self.last_seen[index].unwrap_or(SimTime::ZERO);
            if now.saturating_since(last).as_cycles() > deadline {
                self.quarantined[index] = true;
                newly_dead.push(index);
            }
        }
        newly_dead
    }

    /// True when monitor `index` has been quarantined.
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.quarantined.get(index).copied().unwrap_or(false)
    }

    /// Indices of all quarantined monitors, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.quarantined.len())
            .filter(|&i| self.quarantined[i])
            .collect()
    }

    /// Number of quarantined monitors.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> SimTime {
        SimTime::at_cycle(c)
    }

    #[test]
    fn starts_healthy() {
        let h = SystemHealth::new();
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.history().len(), 1);
    }

    #[test]
    fn warning_escalation_ladder() {
        let mut h = SystemHealth::new();
        h.on_incident(t(10), Severity::Alert);
        assert_eq!(h.state(), HealthState::Suspicious);
        h.on_incident(t(20), Severity::Alert);
        assert_eq!(h.state(), HealthState::Compromised);
    }

    #[test]
    fn critical_jumps_straight_to_compromised() {
        let mut h = SystemHealth::new();
        h.on_incident(t(10), Severity::Critical);
        assert_eq!(h.state(), HealthState::Compromised);
    }

    #[test]
    fn full_lifecycle() {
        let mut h = SystemHealth::new();
        h.on_incident(t(100), Severity::Critical);
        h.on_degraded(t(150));
        h.on_recovery_started(t(300));
        h.on_recovered(t(500));
        assert_eq!(h.state(), HealthState::Healthy);
        let states: Vec<HealthState> = h.history().iter().map(|(_, s)| *s).collect();
        assert_eq!(
            states,
            vec![
                HealthState::Healthy,
                HealthState::Compromised,
                HealthState::Degraded,
                HealthState::Recovering,
                HealthState::Healthy
            ]
        );
    }

    #[test]
    fn repeated_same_state_not_recorded() {
        let mut h = SystemHealth::new();
        h.on_incident(t(10), Severity::Critical);
        h.on_incident(t(20), Severity::Critical);
        h.on_incident(t(30), Severity::Critical);
        assert_eq!(h.history().len(), 2);
    }

    #[test]
    fn time_accounting() {
        let mut h = SystemHealth::new();
        h.on_incident(t(100), Severity::Critical); // healthy 0..100
        h.on_recovery_started(t(150)); // compromised 100..150
        h.on_recovered(t(200)); // recovering 150..200, healthy 200..300
        let now = t(300);
        assert_eq!(h.time_in(HealthState::Healthy, now), 200);
        assert_eq!(h.time_in(HealthState::Compromised, now), 50);
        assert_eq!(h.time_in(HealthState::Recovering, now), 50);
        assert_eq!(h.time_in(HealthState::Degraded, now), 0);
    }

    #[test]
    fn availability_counts_degraded_as_up() {
        let mut h = SystemHealth::new();
        h.on_incident(t(100), Severity::Critical);
        h.on_degraded(t(120));
        // healthy 100 + degraded 80 out of 200
        let a = h.service_availability(t(200));
        assert!((a - 0.9).abs() < 1e-9, "availability {a}");
    }

    fn beats() -> MonitorHealth {
        MonitorHealth::new(3, SimDuration::cycles(1_000))
    }

    #[test]
    fn live_monitors_are_never_quarantined() {
        let mut m = beats();
        for round in 1..=20u64 {
            let now = t(round * 1_000);
            for i in 0..3 {
                m.heartbeat(i, now);
            }
            assert!(m.check(now).is_empty(), "false positive at round {round}");
        }
        assert_eq!(m.quarantined_count(), 0);
    }

    #[test]
    fn silent_monitor_is_quarantined_after_threshold() {
        let mut m = beats();
        // All three beat at 1000; monitor 2 then falls silent.
        for i in 0..3 {
            m.heartbeat(i, t(1_000));
        }
        // Within 3 periods of its last beat: still trusted.
        m.heartbeat(0, t(4_000));
        m.heartbeat(1, t(4_000));
        assert!(m.check(t(4_000)).is_empty());
        // Past the 3-period deadline: quarantined, exactly once.
        m.heartbeat(0, t(5_000));
        m.heartbeat(1, t(5_000));
        assert_eq!(m.check(t(5_000)), vec![2]);
        assert!(m.is_quarantined(2));
        assert_eq!(m.quarantined(), vec![2]);
        // Live monitors keep beating; the dead one is not re-reported.
        m.heartbeat(0, t(9_000));
        m.heartbeat(1, t(9_000));
        assert!(m.check(t(9_000)).is_empty(), "re-quarantined");
    }

    #[test]
    fn monitor_that_never_beats_is_measured_from_zero() {
        let mut m = beats();
        assert!(m.check(t(3_000)).is_empty());
        assert_eq!(m.check(t(3_001)), vec![0, 1, 2]);
    }

    #[test]
    fn quarantined_monitor_heartbeats_are_ignored() {
        let mut m = beats();
        assert_eq!(m.check(t(10_000)), vec![0, 1, 2]);
        m.heartbeat(1, t(10_500));
        assert!(m.is_quarantined(1));
        assert_eq!(m.quarantined_count(), 3);
    }

    #[test]
    fn out_of_range_indices_are_harmless() {
        let mut m = beats();
        m.heartbeat(99, t(1_000));
        assert!(!m.is_quarantined(99));
    }
}
