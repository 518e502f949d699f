//! The stateful response policy engine: circuit breakers, graded
//! degradation tiers and service-availability accounting.
//!
//! The [`crate::manager::ResponseManager`] executes countermeasures; this
//! module decides *which* countermeasures are still worth executing and
//! *how much* service the platform should keep offering while under
//! sustained attack. Three mechanisms (see `RESPONSE.md` for the operator
//! view):
//!
//! * **Per-resource circuit breakers** ([`CircuitBreaker`]) — repeated
//!   incidents against one resource trip that resource's breaker
//!   (closed → open); while open, *global* countermeasures for that
//!   resource (reboot, rollback, golden recovery, degrade requests) are
//!   suppressed so one flapping resource cannot keep taking the whole
//!   platform down. Cooldowns run on the deterministic sim clock:
//!   open → half-open when the cooldown expires, half-open → closed after
//!   a clean probe window, half-open → open on the next fault.
//! * **Degradation tiers** ([`cres_ssm::DegradationTier`]) — incident
//!   pressure moves the platform one step at a time up the
//!   `Full → ShedNonCritical → CriticalOnly → SafeHalt` ladder; each tier
//!   has a defined task/network/actuator posture (applied by
//!   [`crate::manager::ResponseManager::apply_tier`]).
//! * **Hysteresis** — tiers recover one step at a time: a step down
//!   requires both a quiet holdoff ([`EXIT_QUIET_TICKS`] incident-free
//!   policy ticks) *and* pressure at or below the tier's exit threshold,
//!   which sits strictly below its entry threshold. An alternating
//!   incident/quiet signal therefore never flaps the tier.
//!
//! Every decision is returned as a [`PolicyDecision`] (for evidence/console
//! wiring by the platform) and recorded as a `policy` stage span through
//! the [`StageSink`] passed in, using the [`cres_sim::policy_code`]
//! vocabulary.

use cres_sim::{policy_code, SimDuration, SimTime, Stage, StageSink};
use cres_soc::addr::MasterId;
use cres_soc::task::TaskId;
use cres_ssm::{DegradationTier, ResponseAction};
use serde::Serialize;
use std::fmt;

/// Consecutive faults on one resource that trip its breaker.
pub const BREAKER_TRIP_THRESHOLD: u32 = 3;
/// Open-breaker cooldown before the half-open probe window, and the length
/// of the clean probe window required to close again.
pub const BREAKER_COOLDOWN: SimDuration = SimDuration::cycles(150_000);
/// Pressure at which the tier rises `Full → ShedNonCritical`.
pub const SHED_ENTER: u32 = 3;
/// Pressure at which the tier rises `ShedNonCritical → CriticalOnly`.
pub const CRITICAL_ENTER: u32 = 9;
/// Pressure at which the tier rises `CriticalOnly → SafeHalt`.
pub const HALT_ENTER: u32 = 18;
/// Incident-free policy ticks required before any step down.
pub const EXIT_QUIET_TICKS: u32 = 4;
/// Pressure drained per incident-free policy tick.
pub const PRESSURE_DECAY: u32 = 1;

/// Pressure required to *enter* `tier` (raise into it from below). `Full`
/// is the resting state and needs none.
pub fn enter_threshold(tier: DegradationTier) -> u32 {
    match tier {
        DegradationTier::Full => 0,
        DegradationTier::ShedNonCritical => SHED_ENTER,
        DegradationTier::CriticalOnly => CRITICAL_ENTER,
        DegradationTier::SafeHalt => HALT_ENTER,
    }
}

/// Pressure at or below which the platform may *leave* `tier` (step down
/// out of it). Strictly below the entry threshold — this gap is the
/// hysteresis band.
pub fn exit_threshold(tier: DegradationTier) -> u32 {
    enter_threshold(tier) / 2
}

/// Configuration for the response policy engine.
///
/// `Copy` so it can ride inside a platform configuration; `enabled: false`
/// (the default) keeps the engine entirely out of the platform — reports
/// and behaviour are byte-identical to builds without a policy engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyConfig {
    /// Arm the policy engine. Default `false`.
    pub enabled: bool,
}

impl PolicyConfig {
    /// A configuration with the engine armed.
    pub fn enabled() -> Self {
        PolicyConfig { enabled: true }
    }
}

/// The resource a circuit breaker protects, keyed from the incident
/// subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BreakerKey {
    /// A bus master (interned by its id).
    Master(MasterId),
    /// A software task.
    Task(TaskId),
    /// The network interface.
    Network,
    /// A physical sensor by index.
    Sensor(usize),
    /// The platform as a whole (hangs, environment, firmware).
    Platform,
}

impl fmt::Display for BreakerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerKey::Master(m) => write!(f, "master:{m}"),
            BreakerKey::Task(t) => write!(f, "task:{t}"),
            BreakerKey::Network => write!(f, "network"),
            BreakerKey::Sensor(i) => write!(f, "sensor:{i}"),
            BreakerKey::Platform => write!(f, "platform"),
        }
    }
}

/// Circuit-breaker state, classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Normal: faults are counted, countermeasures flow.
    Closed,
    /// Tripped: global countermeasures for this resource are suppressed
    /// until the cooldown expires.
    Open,
    /// Probing: the cooldown expired; one clean window closes the breaker,
    /// one more fault re-opens it.
    HalfOpen,
}

/// One per-resource breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Consecutive faults since the last close.
    faults: u32,
    /// When the breaker last entered `Open`.
    opened_at: SimTime,
    /// When the breaker entered `HalfOpen`.
    half_open_at: SimTime,
}

impl CircuitBreaker {
    fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            faults: 0,
            opened_at: SimTime::ZERO,
            half_open_at: SimTime::ZERO,
        }
    }

    /// Current state (after any lazily-applied cooldown transition).
    pub fn state(&self) -> BreakerState {
        self.state
    }
}

/// One decision taken by the policy engine, for the platform to chain as
/// evidence and echo to the console.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PolicyDecision {
    /// The tier was raised one step.
    TierRaised {
        /// Posture before.
        from: DegradationTier,
        /// Posture after (one step tighter).
        to: DegradationTier,
    },
    /// The tier was lowered one step after the hysteresis holdoff.
    TierLowered {
        /// Posture before.
        from: DegradationTier,
        /// Posture after (one step looser).
        to: DegradationTier,
    },
    /// A resource's breaker tripped closed → open.
    BreakerOpened {
        /// The resource.
        key: BreakerKey,
    },
    /// A breaker's cooldown expired; it is probing.
    BreakerHalfOpen {
        /// The resource.
        key: BreakerKey,
    },
    /// A breaker saw a clean probe window and reset.
    BreakerClosed {
        /// The resource.
        key: BreakerKey,
    },
    /// A global countermeasure was suppressed behind an open breaker.
    ActionSuppressed {
        /// The resource whose breaker is open.
        key: BreakerKey,
        /// The suppressed action.
        action: ResponseAction,
    },
}

impl fmt::Display for PolicyDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyDecision::TierRaised { from, to } => write!(f, "tier raised {from} -> {to}"),
            PolicyDecision::TierLowered { from, to } => write!(f, "tier lowered {from} -> {to}"),
            PolicyDecision::BreakerOpened { key } => write!(f, "breaker {key} opened"),
            PolicyDecision::BreakerHalfOpen { key } => write!(f, "breaker {key} half-open"),
            PolicyDecision::BreakerClosed { key } => write!(f, "breaker {key} closed"),
            PolicyDecision::ActionSuppressed { key, action } => {
                write!(f, "suppressed {action} (breaker {key} open)")
            }
        }
    }
}

/// Service-availability accounting plus policy-engine outcome counters,
/// carried in the run report's optional `availability_detail` block.
///
/// "Offered" counts one unit per installed task per policy tick —
/// including killed or suspended tasks, because the service they were
/// meant to provide was still owed. "Delivered" counts the subset that
/// were actually running.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AvailabilityReport {
    /// Critical task-ticks owed.
    pub critical_offered: u64,
    /// Critical task-ticks delivered (task running at the sample).
    pub critical_delivered: u64,
    /// Non-critical task-ticks owed.
    pub noncritical_offered: u64,
    /// Non-critical task-ticks delivered.
    pub noncritical_delivered: u64,
    /// Tier steps taken upward (posture tightened).
    pub tier_raises: u32,
    /// Tier steps taken downward (service restored).
    pub tier_lowers: u32,
    /// Tier in force at end of run.
    pub final_tier: DegradationTier,
    /// Tightest tier reached during the run.
    pub peak_tier: DegradationTier,
    /// Cycles spent in each tier, [`DegradationTier::ALL`] order.
    pub time_in_tier: [u64; 4],
    /// Breaker trips (closed/half-open → open).
    pub breaker_trips: u32,
    /// Breakers reset after a clean probe window (half-open → closed).
    pub breaker_resets: u32,
    /// Global countermeasures suppressed behind open breakers.
    pub actions_suppressed: u32,
}

impl AvailabilityReport {
    /// Fraction of critical task-ticks delivered (1.0 when none owed).
    pub fn critical_availability(&self) -> f64 {
        if self.critical_offered == 0 {
            1.0
        } else {
            self.critical_delivered as f64 / self.critical_offered as f64
        }
    }

    /// Fraction of non-critical task-ticks delivered (1.0 when none owed).
    pub fn noncritical_availability(&self) -> f64 {
        if self.noncritical_offered == 0 {
            1.0
        } else {
            self.noncritical_delivered as f64 / self.noncritical_offered as f64
        }
    }
}

/// The stateful response policy engine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ResponsePolicy {
    tier: DegradationTier,
    /// Severity-weighted incident pressure (raises tiers; decays when
    /// quiet).
    pressure: u32,
    /// Incident-free policy ticks since the last incident.
    quiet_ticks: u32,
    /// Breakers in first-fault order (deterministic iteration).
    breakers: Vec<(BreakerKey, CircuitBreaker)>,
    /// Sim time of the last tier-time accounting flush.
    tier_stamp: SimTime,
    time_in_tier: [u64; 4],
    peak_tier: DegradationTier,
    tier_raises: u32,
    tier_lowers: u32,
    breaker_trips: u32,
    breaker_resets: u32,
    actions_suppressed: u32,
    critical_offered: u64,
    critical_delivered: u64,
    noncritical_offered: u64,
    noncritical_delivered: u64,
}

impl Default for ResponsePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponsePolicy {
    /// Creates an engine at `Full` posture with zero pressure.
    pub fn new() -> Self {
        ResponsePolicy {
            tier: DegradationTier::Full,
            pressure: 0,
            quiet_ticks: 0,
            breakers: Vec::new(),
            tier_stamp: SimTime::ZERO,
            time_in_tier: [0; 4],
            peak_tier: DegradationTier::Full,
            tier_raises: 0,
            tier_lowers: 0,
            breaker_trips: 0,
            breaker_resets: 0,
            actions_suppressed: 0,
            critical_offered: 0,
            critical_delivered: 0,
            noncritical_offered: 0,
            noncritical_delivered: 0,
        }
    }

    /// The current degradation tier.
    pub fn tier(&self) -> DegradationTier {
        self.tier
    }

    /// Current severity-weighted incident pressure.
    pub fn pressure(&self) -> u32 {
        self.pressure
    }

    /// Current state of `key`'s breaker (`None` until its first fault).
    pub fn breaker_state(&self, key: BreakerKey) -> Option<BreakerState> {
        self.breakers
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, b)| b.state)
    }

    fn breaker_mut(&mut self, key: BreakerKey) -> &mut CircuitBreaker {
        if let Some(index) = self.breakers.iter().position(|(k, _)| *k == key) {
            return &mut self.breakers[index].1;
        }
        self.breakers.push((key, CircuitBreaker::new()));
        &mut self.breakers.last_mut().expect("just pushed").1
    }

    /// Advances `key`'s breaker across any due cooldown boundary
    /// (open → half-open) before reading its state.
    fn settle_breaker(
        &mut self,
        key: BreakerKey,
        now: SimTime,
        sink: &mut dyn StageSink,
        decisions: &mut Vec<PolicyDecision>,
    ) {
        let breaker = self.breaker_mut(key);
        if breaker.state == BreakerState::Open && now >= breaker.opened_at + BREAKER_COOLDOWN {
            breaker.state = BreakerState::HalfOpen;
            breaker.half_open_at = breaker.opened_at + BREAKER_COOLDOWN;
            sink.record_span(now, Stage::Policy, policy_code::BREAKER_HALF_OPEN, 1);
            decisions.push(PolicyDecision::BreakerHalfOpen { key });
        }
    }

    fn flush_tier_time(&mut self, now: SimTime) {
        self.time_in_tier[self.tier.index()] += now.saturating_since(self.tier_stamp).as_cycles();
        self.tier_stamp = now;
    }

    fn raise_tier(
        &mut self,
        now: SimTime,
        sink: &mut dyn StageSink,
        decisions: &mut Vec<PolicyDecision>,
    ) {
        let from = self.tier;
        let to = from.raised();
        if to == from {
            return;
        }
        self.flush_tier_time(now);
        self.tier = to;
        self.peak_tier = self.peak_tier.max(to);
        self.tier_raises += 1;
        sink.record_span(now, Stage::Policy, policy_code::TIER_RAISED, 2);
        decisions.push(PolicyDecision::TierRaised { from, to });
    }

    /// Feeds one classified incident against `key` with the given severity
    /// weight. Counts a fault on the resource's breaker (tripping it at the
    /// threshold, or re-opening a half-open probe), accumulates pressure,
    /// and raises the tier one step when pressure crosses the next entry
    /// threshold.
    pub fn on_incident(
        &mut self,
        key: BreakerKey,
        severity_weight: u32,
        now: SimTime,
        sink: &mut dyn StageSink,
    ) -> Vec<PolicyDecision> {
        let mut decisions = Vec::new();
        self.settle_breaker(key, now, sink, &mut decisions);
        let breaker = self.breaker_mut(key);
        breaker.faults = breaker.faults.saturating_add(1);
        let trips = match breaker.state {
            BreakerState::Closed if breaker.faults >= BREAKER_TRIP_THRESHOLD => true,
            BreakerState::HalfOpen => true, // failed probe
            _ => false,
        };
        if trips {
            breaker.state = BreakerState::Open;
            breaker.opened_at = now;
            self.breaker_trips += 1;
            sink.record_span(now, Stage::Policy, policy_code::BREAKER_OPENED, 1);
            decisions.push(PolicyDecision::BreakerOpened { key });
        }

        self.pressure = self.pressure.saturating_add(severity_weight.max(1));
        self.quiet_ticks = 0;
        if self.tier != DegradationTier::SafeHalt
            && self.pressure >= enter_threshold(self.tier.raised())
        {
            self.raise_tier(now, sink, &mut decisions);
        }
        decisions
    }

    /// Handles a planner `EnterDegradedMode` request under policy control:
    /// instead of the legacy suspend-everything-below-critical flag, the
    /// request tightens posture one step, capped at `CriticalOnly`
    /// (`SafeHalt` is reserved for pressure-driven escalation). Suppressed
    /// while `key`'s breaker is open.
    pub fn request_degrade(
        &mut self,
        key: BreakerKey,
        now: SimTime,
        sink: &mut dyn StageSink,
    ) -> Vec<PolicyDecision> {
        let mut decisions = Vec::new();
        self.settle_breaker(key, now, sink, &mut decisions);
        if self.breaker_state(key) == Some(BreakerState::Open) {
            self.actions_suppressed += 1;
            sink.record_span(now, Stage::Policy, policy_code::ACTION_SUPPRESSED, 1);
            decisions.push(PolicyDecision::ActionSuppressed {
                key,
                action: ResponseAction::EnterDegradedMode,
            });
            return decisions;
        }
        if self.tier < DegradationTier::CriticalOnly {
            self.raise_tier(now, sink, &mut decisions);
        }
        decisions
    }

    /// Gate for one planned countermeasure against `key`'s resource.
    /// Returns `(allowed, decisions)`: targeted actions always pass;
    /// global countermeasures (reboot, rollback, golden recovery) are
    /// suppressed while the breaker is open.
    pub fn gate_action(
        &mut self,
        key: BreakerKey,
        action: ResponseAction,
        now: SimTime,
        sink: &mut dyn StageSink,
    ) -> (bool, Vec<PolicyDecision>) {
        let global = matches!(
            action,
            ResponseAction::RebootSystem
                | ResponseAction::RollbackFirmware
                | ResponseAction::GoldenRecovery
        );
        if !global {
            return (true, Vec::new());
        }
        let mut decisions = Vec::new();
        self.settle_breaker(key, now, sink, &mut decisions);
        if self.breaker_state(key) == Some(BreakerState::Open) {
            self.actions_suppressed += 1;
            sink.record_span(now, Stage::Policy, policy_code::ACTION_SUPPRESSED, 1);
            decisions.push(PolicyDecision::ActionSuppressed { key, action });
            return (false, decisions);
        }
        (true, decisions)
    }

    /// One incident-free policy tick (the platform calls this every
    /// monitor period in which no incident was classified). Drains
    /// pressure, advances breaker cooldowns, closes clean half-open
    /// probes, and — after the hysteresis holdoff — lowers the tier one
    /// step.
    pub fn quiet_tick(&mut self, now: SimTime, sink: &mut dyn StageSink) -> Vec<PolicyDecision> {
        let mut decisions = Vec::new();
        self.quiet_ticks = self.quiet_ticks.saturating_add(1);
        self.pressure = self.pressure.saturating_sub(PRESSURE_DECAY);

        let keys: Vec<BreakerKey> = self.breakers.iter().map(|(k, _)| *k).collect();
        for key in keys {
            self.settle_breaker(key, now, sink, &mut decisions);
            let breaker = self.breaker_mut(key);
            if breaker.state == BreakerState::HalfOpen
                && now >= breaker.half_open_at + BREAKER_COOLDOWN
            {
                breaker.state = BreakerState::Closed;
                breaker.faults = 0;
                self.breaker_resets += 1;
                sink.record_span(now, Stage::Policy, policy_code::BREAKER_CLOSED, 1);
                decisions.push(PolicyDecision::BreakerClosed { key });
            }
        }

        if self.tier > DegradationTier::Full
            && self.quiet_ticks >= EXIT_QUIET_TICKS
            && self.pressure <= exit_threshold(self.tier)
        {
            let from = self.tier;
            let to = from.lowered();
            self.flush_tier_time(now);
            self.tier = to;
            self.tier_lowers += 1;
            // one step per holdoff: the next step down needs its own quiet
            // window, so recovery is rate-limited by construction
            self.quiet_ticks = 0;
            sink.record_span(now, Stage::Policy, policy_code::TIER_LOWERED, 2);
            decisions.push(PolicyDecision::TierLowered { from, to });
        }
        decisions
    }

    /// Accumulates one service-availability sample: how many critical /
    /// non-critical tasks were owed and how many were actually running.
    pub fn sample_service(
        &mut self,
        critical_running: u64,
        critical_total: u64,
        noncritical_running: u64,
        noncritical_total: u64,
    ) {
        self.critical_offered += critical_total;
        self.critical_delivered += critical_running;
        self.noncritical_offered += noncritical_total;
        self.noncritical_delivered += noncritical_running;
    }

    /// Flushes tier-time accounting to `end` and produces the report
    /// block.
    pub fn finish(&mut self, end: SimTime) -> AvailabilityReport {
        self.flush_tier_time(end);
        AvailabilityReport {
            critical_offered: self.critical_offered,
            critical_delivered: self.critical_delivered,
            noncritical_offered: self.noncritical_offered,
            noncritical_delivered: self.noncritical_delivered,
            tier_raises: self.tier_raises,
            tier_lowers: self.tier_lowers,
            final_tier: self.tier,
            peak_tier: self.peak_tier,
            time_in_tier: self.time_in_tier,
            breaker_trips: self.breaker_trips,
            breaker_resets: self.breaker_resets,
            actions_suppressed: self.actions_suppressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_sim::NullSink;

    fn t(cycle: u64) -> SimTime {
        SimTime::at_cycle(cycle)
    }

    #[test]
    fn breaker_trips_after_threshold_and_suppresses_globals() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let key = BreakerKey::Task(TaskId(1));
        for i in 0..2 {
            p.on_incident(key, 1, t(1_000 * (i + 1)), &mut sink);
            assert_eq!(p.breaker_state(key), Some(BreakerState::Closed));
        }
        let decisions = p.on_incident(key, 1, t(3_000), &mut sink);
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PolicyDecision::BreakerOpened { .. })));
        assert_eq!(p.breaker_state(key), Some(BreakerState::Open));
        let (allowed, decisions) =
            p.gate_action(key, ResponseAction::RebootSystem, t(4_000), &mut sink);
        assert!(!allowed);
        assert!(matches!(
            decisions[0],
            PolicyDecision::ActionSuppressed { .. }
        ));
        // targeted actions still flow
        let (allowed, _) = p.gate_action(
            key,
            ResponseAction::KillTask(TaskId(1)),
            t(4_100),
            &mut sink,
        );
        assert!(allowed);
        // other resources unaffected
        let (allowed, _) = p.gate_action(
            BreakerKey::Network,
            ResponseAction::RebootSystem,
            t(4_200),
            &mut sink,
        );
        assert!(allowed);
    }

    #[test]
    fn breaker_cooldown_half_open_then_closes_clean() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let key = BreakerKey::Network;
        for i in 0..3 {
            p.on_incident(key, 1, t(1_000 + i), &mut sink);
        }
        assert_eq!(p.breaker_state(key), Some(BreakerState::Open));
        let cooldown = BREAKER_COOLDOWN.as_cycles();
        // cooldown expiry → half-open (observed lazily from a quiet tick)
        p.quiet_tick(t(1_002 + cooldown), &mut sink);
        assert_eq!(p.breaker_state(key), Some(BreakerState::HalfOpen));
        // a full clean probe window → closed, fault count reset
        let decisions = p.quiet_tick(t(1_002 + 2 * cooldown), &mut sink);
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PolicyDecision::BreakerClosed { .. })));
        assert_eq!(p.breaker_state(key), Some(BreakerState::Closed));
        // after a clean close, one fault does not trip
        p.on_incident(key, 1, t(2_000 + 2 * cooldown), &mut sink);
        assert_eq!(p.breaker_state(key), Some(BreakerState::Closed));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let key = BreakerKey::Platform;
        for i in 0..3 {
            p.on_incident(key, 1, t(1_000 + i), &mut sink);
        }
        let cooldown = BREAKER_COOLDOWN.as_cycles();
        let decisions = p.on_incident(key, 1, t(2_000 + cooldown), &mut sink);
        // settled to half-open, then the fault re-opened it
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PolicyDecision::BreakerHalfOpen { .. })));
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PolicyDecision::BreakerOpened { .. })));
        assert_eq!(p.breaker_state(key), Some(BreakerState::Open));
    }

    #[test]
    fn pressure_raises_tiers_one_step_at_a_time() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let decisions = p.on_incident(BreakerKey::Platform, 3, t(1_000), &mut sink);
        assert_eq!(
            decisions,
            vec![PolicyDecision::TierRaised {
                from: DegradationTier::Full,
                to: DegradationTier::ShedNonCritical
            }]
        );
        // pressure 3 < CRITICAL_ENTER 9: no second raise yet
        assert_eq!(p.tier(), DegradationTier::ShedNonCritical);
        p.on_incident(BreakerKey::Platform, 3, t(2_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::ShedNonCritical);
        p.on_incident(BreakerKey::Platform, 3, t(3_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::CriticalOnly);
        for i in 0..3 {
            p.on_incident(BreakerKey::Platform, 3, t(4_000 + i), &mut sink);
        }
        assert_eq!(p.tier(), DegradationTier::SafeHalt);
        // saturates
        p.on_incident(BreakerKey::Platform, 3, t(9_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::SafeHalt);
    }

    #[test]
    fn hysteresis_requires_holdoff_and_low_pressure() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        p.on_incident(BreakerKey::Platform, 3, t(1_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::ShedNonCritical);
        // three quiet ticks: not enough holdoff (EXIT_QUIET_TICKS = 4)
        for i in 1..=3 {
            p.quiet_tick(t(1_000 + 5_000 * i), &mut sink);
            assert_eq!(p.tier(), DegradationTier::ShedNonCritical);
        }
        // fourth quiet tick: pressure has decayed to 0 <= exit threshold 1
        let decisions = p.quiet_tick(t(21_000), &mut sink);
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PolicyDecision::TierLowered { .. })));
        assert_eq!(p.tier(), DegradationTier::Full);
    }

    #[test]
    fn alternating_signal_never_flaps() {
        // incident, quiet, incident, quiet … — the holdoff means the tier
        // only ever moves up, never down, so no flapping
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let mut lowest_after_first_raise = DegradationTier::SafeHalt;
        let mut raised = false;
        for i in 0..40u64 {
            let now = t(5_000 * (i + 1));
            if i % 2 == 0 {
                p.on_incident(BreakerKey::Platform, 2, now, &mut sink);
            } else {
                p.quiet_tick(now, &mut sink);
            }
            if raised {
                lowest_after_first_raise = lowest_after_first_raise.min(p.tier());
            }
            raised |= p.tier() > DegradationTier::Full;
        }
        assert!(raised);
        assert!(
            lowest_after_first_raise > DegradationTier::Full,
            "tier flapped back to Full under an alternating signal"
        );
    }

    #[test]
    fn recovery_is_one_step_per_holdoff() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        for i in 0..8u64 {
            p.on_incident(BreakerKey::Platform, 3, t(1_000 + i), &mut sink);
        }
        assert_eq!(p.tier(), DegradationTier::SafeHalt);
        let mut now = 10_000;
        let mut tiers = vec![p.tier()];
        for _ in 0..40 {
            now += 5_000;
            p.quiet_tick(t(now), &mut sink);
            if *tiers.last().unwrap() != p.tier() {
                tiers.push(p.tier());
            }
        }
        assert_eq!(
            tiers,
            vec![
                DegradationTier::SafeHalt,
                DegradationTier::CriticalOnly,
                DegradationTier::ShedNonCritical,
                DegradationTier::Full
            ],
            "recovery skipped a tier"
        );
    }

    #[test]
    fn degrade_requests_cap_at_critical_only() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        let key = BreakerKey::Task(TaskId(2));
        p.request_degrade(key, t(1_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::ShedNonCritical);
        p.request_degrade(key, t(2_000), &mut sink);
        assert_eq!(p.tier(), DegradationTier::CriticalOnly);
        p.request_degrade(key, t(3_000), &mut sink);
        assert_eq!(
            p.tier(),
            DegradationTier::CriticalOnly,
            "requests must not reach SafeHalt"
        );
    }

    #[test]
    fn availability_accounting_and_report() {
        let mut p = ResponsePolicy::new();
        let mut sink = NullSink;
        p.sample_service(1, 1, 2, 2);
        p.on_incident(BreakerKey::Platform, 3, t(5_000), &mut sink);
        p.sample_service(1, 1, 0, 2);
        p.sample_service(1, 1, 0, 2);
        let report = p.finish(t(20_000));
        assert_eq!(report.critical_offered, 3);
        assert_eq!(report.critical_delivered, 3);
        assert_eq!(report.noncritical_offered, 6);
        assert_eq!(report.noncritical_delivered, 2);
        assert!((report.critical_availability() - 1.0).abs() < 1e-12);
        assert!((report.noncritical_availability() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(report.tier_raises, 1);
        assert_eq!(report.final_tier, DegradationTier::ShedNonCritical);
        assert_eq!(report.peak_tier, DegradationTier::ShedNonCritical);
        assert_eq!(report.time_in_tier[0], 5_000);
        assert_eq!(report.time_in_tier[1], 15_000);
    }

    #[test]
    fn engine_is_deterministic() {
        let drive = || {
            let mut p = ResponsePolicy::new();
            let mut sink = NullSink;
            let mut log = Vec::new();
            for i in 0..200u64 {
                let now = t(5_000 * (i + 1));
                if i % 3 == 0 {
                    log.extend(p.on_incident(BreakerKey::Task(TaskId(1)), 2, now, &mut sink));
                } else {
                    log.extend(p.quiet_tick(now, &mut sink));
                }
            }
            (log, p.finish(t(1_005_000)))
        };
        assert_eq!(drive(), drive());
    }
}
