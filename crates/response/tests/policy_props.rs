//! Property suites for the response policy engine — the ISSUE-pinned
//! invariants: the tier ladder is a total order with single-step monotone
//! transitions, hysteresis never flaps under an adversarial alternating
//! signal, and the engine is a pure deterministic function of its input
//! sequence (so campaign results cannot depend on worker count).

use cres_response::policy::EXIT_QUIET_TICKS;
use cres_response::{BreakerKey, PolicyDecision, ResponsePolicy};
use cres_sim::{NullSink, SimTime};
use cres_ssm::DegradationTier;
use proptest::prelude::*;

/// One scripted stimulus for the engine: an incident of some severity
/// weight against one of a few resources, or an incident-free tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stimulus {
    Incident { resource: u8, weight: u32 },
    Quiet,
}

fn stimulus(code: u16) -> Stimulus {
    // low bit-budget decode so `Vec<u16>` drives rich scripts: ~half the
    // space is quiet ticks, the rest spreads over 4 resources × weights 1..4
    if code.is_multiple_of(2) {
        Stimulus::Quiet
    } else {
        Stimulus::Incident {
            resource: (code / 2 % 4) as u8,
            weight: u32::from(code / 8 % 4) + 1,
        }
    }
}

fn key_for(resource: u8) -> BreakerKey {
    match resource % 4 {
        0 => BreakerKey::Network,
        1 => BreakerKey::Sensor(0),
        2 => BreakerKey::Sensor(1),
        _ => BreakerKey::Platform,
    }
}

/// Drives a script through a fresh engine, returning every decision with
/// the tick index it fired on.
fn drive(script: &[u16]) -> Vec<(usize, PolicyDecision)> {
    let mut policy = ResponsePolicy::new();
    let mut sink = NullSink;
    let mut out = Vec::new();
    for (tick, &code) in script.iter().enumerate() {
        let now = SimTime::at_cycle(tick as u64 * 5_000);
        let decisions = match stimulus(code) {
            Stimulus::Incident { resource, weight } => {
                policy.on_incident(key_for(resource), weight, now, &mut sink)
            }
            Stimulus::Quiet => policy.quiet_tick(now, &mut sink),
        };
        out.extend(decisions.into_iter().map(|d| (tick, d)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tier ladder is a total order consistent with its index, and
    /// raise/lower move exactly one step, saturating at the ends.
    #[test]
    fn tier_ladder_is_total_and_single_step(a in 0usize..4, b in 0usize..4) {
        let ta = DegradationTier::ALL[a];
        let tb = DegradationTier::ALL[b];
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.index(), a);
        prop_assert_eq!(ta.raised().index(), (a + 1).min(3));
        prop_assert_eq!(ta.lowered().index(), a.saturating_sub(1));
        prop_assert_eq!(ta.name() == tb.name(), a == b);
    }

    /// Every tier transition the engine emits is single-step, in the
    /// claimed direction, and chains exactly from the previous tier.
    #[test]
    fn tier_transitions_are_monotone_single_steps(
        script in proptest::collection::vec(any::<u16>(), 0..400)
    ) {
        let mut tier = DegradationTier::Full;
        for (_, decision) in drive(&script) {
            match decision {
                PolicyDecision::TierRaised { from, to } => {
                    prop_assert_eq!(from, tier);
                    prop_assert_eq!(to, from.raised());
                    prop_assert!(to > from);
                    tier = to;
                }
                PolicyDecision::TierLowered { from, to } => {
                    prop_assert_eq!(from, tier);
                    prop_assert_eq!(to, from.lowered());
                    prop_assert!(to < from);
                    tier = to;
                }
                _ => {}
            }
        }
    }

    /// Hysteresis never flaps: a step down requires a full quiet holdoff
    /// ([`EXIT_QUIET_TICKS`] incident-free ticks since the last incident
    /// *and* since the last step down), and a step back up requires a new
    /// incident — an alternating signal can never produce lower/raise
    /// churn inside one holdoff window.
    #[test]
    fn hysteresis_never_flaps(
        script in proptest::collection::vec(any::<u16>(), 1..400)
    ) {
        let decisions = drive(&script);
        let mut last_disturbance: Option<usize> = None; // incident or step-down tick
        let mut incident_since_lower = true;
        for (tick, &code) in script.iter().enumerate() {
            if matches!(stimulus(code), Stimulus::Incident { .. }) {
                last_disturbance = Some(tick);
                incident_since_lower = true;
            }
            for (_, decision) in decisions.iter().filter(|(t, _)| *t == tick) {
                match decision {
                    PolicyDecision::TierLowered { .. } => {
                        let quiet_run = tick - last_disturbance.map_or(0, |t| t + 1) + 1;
                        prop_assert!(
                            quiet_run >= EXIT_QUIET_TICKS as usize,
                            "lowered after only {quiet_run} quiet ticks at tick {tick}"
                        );
                        last_disturbance = Some(tick);
                        incident_since_lower = false;
                    }
                    PolicyDecision::TierRaised { .. } => {
                        prop_assert!(
                            incident_since_lower,
                            "tier raised with no incident since the last step down (tick {tick})"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    /// The engine is a pure function of its stimulus script: two replays
    /// produce identical decision streams and identical availability
    /// reports — the determinism that makes campaign output independent of
    /// `CRES_JOBS` worker interleaving.
    #[test]
    fn engine_is_deterministic_over_any_script(
        script in proptest::collection::vec(any::<u16>(), 0..300)
    ) {
        let a = drive(&script);
        let b = drive(&script);
        prop_assert_eq!(a, b);

        let run_report = |script: &[u16]| {
            let mut policy = ResponsePolicy::new();
            let mut sink = NullSink;
            for (tick, &code) in script.iter().enumerate() {
                let now = SimTime::at_cycle(tick as u64 * 5_000);
                match stimulus(code) {
                    Stimulus::Incident { resource, weight } => {
                        policy.on_incident(key_for(resource), weight, now, &mut sink);
                    }
                    Stimulus::Quiet => {
                        policy.quiet_tick(now, &mut sink);
                    }
                }
                policy.sample_service(1, 1, tick as u64 % 2, 1);
            }
            policy.finish(SimTime::at_cycle(script.len() as u64 * 5_000))
        };
        prop_assert_eq!(run_report(&script), run_report(&script));
    }

    /// Availability accounting never over-credits: delivered ≤ offered for
    /// both classes, and the per-tier time budget sums to the run length.
    #[test]
    fn availability_accounting_is_conservative(
        script in proptest::collection::vec(any::<u16>(), 1..200),
        running in proptest::collection::vec(any::<bool>(), 1..200)
    ) {
        let mut policy = ResponsePolicy::new();
        let mut sink = NullSink;
        for (tick, &code) in script.iter().enumerate() {
            let now = SimTime::at_cycle(tick as u64 * 5_000);
            match stimulus(code) {
                Stimulus::Incident { resource, weight } => {
                    policy.on_incident(key_for(resource), weight, now, &mut sink);
                }
                Stimulus::Quiet => {
                    policy.quiet_tick(now, &mut sink);
                }
            }
            let up = running[tick % running.len()];
            policy.sample_service(u64::from(up), 1, 2, 3);
        }
        let end = SimTime::at_cycle(script.len() as u64 * 5_000);
        let report = policy.finish(end);
        prop_assert!(report.critical_delivered <= report.critical_offered);
        prop_assert!(report.noncritical_delivered <= report.noncritical_offered);
        prop_assert!(report.critical_availability() >= 0.0);
        prop_assert!(report.critical_availability() <= 1.0);
        prop_assert_eq!(
            report.time_in_tier.iter().sum::<u64>(),
            end.cycle(),
            "tier time budget must partition the run"
        );
    }
}
