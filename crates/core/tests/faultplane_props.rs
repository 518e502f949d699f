//! Property tests for the fault channel: the fault plane must be a
//! *deterministic, conservative* adversary. Same seed ⇒ same fault
//! schedule; loss + delay + reorder + corruption never invents or
//! duplicates an event. These are the invariants the E11 determinism diff
//! and the campaign engine's thread-count invariance stand on.

use cres_monitor::{Detail, MonitorEvent, Severity, Subject};
use cres_platform::{FaultPlane, FaultPlaneConfig};
use cres_policy::DetectionCapability;
use cres_sim::{NullSink, SimTime};
use proptest::prelude::*;

/// An event batch whose detail payloads are unique across the whole run,
/// so duplication is observable.
fn batch(round: u64, size: usize) -> Vec<MonitorEvent> {
    (0..size)
        .map(|i| {
            MonitorEvent::new(
                SimTime::at_cycle(round * 10_000 + i as u64),
                DetectionCapability::BusPolicing,
                Severity::Alert,
                Subject::Network,
                Detail::BusTapOverflow {
                    lost: round * 1_000 + i as u64,
                },
            )
        })
        .collect()
}

/// The unique per-event key, unchanged by in-transit corruption (the fault
/// plane only sets the `corrupted` flag and downgrades severity).
fn event_key(event: &MonitorEvent) -> u64 {
    match event.detail {
        Detail::BusTapOverflow { lost } => lost,
        _ => unreachable!("batches only carry BusTapOverflow details"),
    }
}

fn hostile_config(loss: f64) -> FaultPlaneConfig {
    FaultPlaneConfig {
        loss,
        crashed: 0,
        crash_at: 0,
    }
}

/// Feeds `rounds` batches of `size` events and then drains held deliveries
/// with empty batches; returns everything delivered plus the final plane.
fn run_channel(
    config: FaultPlaneConfig,
    seed: u64,
    rounds: u64,
    size: usize,
) -> (Vec<MonitorEvent>, FaultPlane) {
    let mut plane = FaultPlane::new(config, seed, 8);
    let mut delivered = Vec::new();
    for round in 0..rounds {
        let mut events = batch(round, size);
        plane.filter_events(
            SimTime::at_cycle(round * 10_000),
            &mut events,
            &mut NullSink,
        );
        delivered.extend(events);
    }
    // Drain: every held event is released within three fault-free rounds
    // (the release path cannot re-delay).
    for extra in 0..=3 {
        let mut events = Vec::new();
        plane.filter_events(
            SimTime::at_cycle((rounds + extra) * 10_000),
            &mut events,
            &mut NullSink,
        );
        delivered.extend(events);
    }
    assert!(!plane.pending(), "drain must empty the delay queue");
    (delivered, plane)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn same_seed_same_fault_schedule(
        seed in 0u64..1_000_000,
        loss in 0.0f64..1.0,
        rounds in 1u64..6,
        size in 0usize..12
    ) {
        let config = hostile_config(loss);
        let (out_a, plane_a) = run_channel(config, seed, rounds, size);
        let (out_b, plane_b) = run_channel(config, seed, rounds, size);
        prop_assert_eq!(out_a, out_b, "delivered stream must be seed-deterministic");
        prop_assert_eq!(plane_a.stats(), plane_b.stats());
    }

    #[test]
    fn channel_never_duplicates_or_invents_events(
        seed in 0u64..1_000_000,
        loss in 0.0f64..1.0,
        rounds in 1u64..6,
        size in 0usize..12
    ) {
        let config = hostile_config(loss);
        let (delivered, plane) = run_channel(config, seed, rounds, size);
        let total = rounds as usize * size;
        let mut seen = std::collections::BTreeSet::new();
        for event in &delivered {
            prop_assert!(
                seen.insert(event_key(event)),
                "event {:?} delivered twice",
                event.detail
            );
        }
        // Conservation: every injected event is delivered or counted lost.
        prop_assert_eq!(
            delivered.len() as u64 + plane.stats().events_lost,
            total as u64
        );
        prop_assert!(delivered.len() <= total);
    }

    #[test]
    fn crash_victims_are_distinct_and_in_range(
        seed in 0u64..1_000_000,
        fleet in 1usize..16,
        requested in 0u32..20
    ) {
        let config = FaultPlaneConfig {
            loss: 0.0,
            crashed: requested,
            crash_at: 1,
        };
        let plane = FaultPlane::new(config, seed, fleet);
        let victims = plane.crashed_monitors();
        prop_assert_eq!(victims.len(), (requested as usize).min(fleet));
        prop_assert!(victims.iter().all(|&v| v < fleet));
        let mut sorted = victims.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), victims.len(), "victims must be distinct");
    }
}
