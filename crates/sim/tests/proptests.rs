//! Property tests for the simulation kernel: event ordering, RNG bounds,
//! time arithmetic and the monitor-name interner.

use cres_sim::{DetRng, MonitorId, MonitorRegistry, SimDuration, SimTime, Simulator};
use proptest::prelude::*;

/// Name pool for interner properties — interning requires `&'static str`,
/// so properties draw indices into a fixed pool rather than free strings.
const NAME_POOL: [&str; 12] = [
    "bus-policy",
    "network",
    "sensor",
    "env",
    "watchdog",
    "cfi",
    "syscall",
    "info-flow",
    "aux-0",
    "aux-1",
    "aux-2",
    "aux-3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn events_fire_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        for &t in &times {
            sim.schedule_at(SimTime::at_cycle(t), move |w: &mut Vec<u64>, sim| {
                w.push(sim.now().cycle());
            });
        }
        let mut world = Vec::new();
        sim.run_to_completion(&mut world, 10_000);
        prop_assert_eq!(world.len(), times.len());
        prop_assert!(world.windows(2).all(|w| w[0] <= w[1]), "{world:?}");
    }

    #[test]
    fn equal_time_events_fire_in_schedule_order(n in 1usize..60) {
        let mut sim: Simulator<Vec<usize>> = Simulator::new();
        for i in 0..n {
            sim.schedule_at(SimTime::at_cycle(42), move |w: &mut Vec<usize>, _| w.push(i));
        }
        let mut world = Vec::new();
        sim.run_to_completion(&mut world, 1_000);
        prop_assert_eq!(world, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_never_fires_past_horizon(
        times in proptest::collection::vec(0u64..10_000, 1..50),
        horizon in 0u64..10_000
    ) {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        for &t in &times {
            sim.schedule_at(SimTime::at_cycle(t), move |w: &mut Vec<u64>, sim| {
                w.push(sim.now().cycle());
            });
        }
        let mut world = Vec::new();
        sim.run_until(&mut world, SimTime::at_cycle(horizon));
        prop_assert!(world.iter().all(|&t| t <= horizon));
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(world.len(), expected);
    }

    #[test]
    fn rng_range_is_uniformly_bounded(seed: u64, low in 0u64..1000, span in 1u64..1000) {
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..100 {
            let v = rng.range_u64(low, low + span);
            prop_assert!(v >= low && v < low + span);
        }
    }

    #[test]
    fn rng_fork_streams_are_independent_of_consumption(seed: u64, pre in 0usize..16) {
        // forking after consuming N values must not equal forking after N+1
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..pre {
            a.next_u64();
            b.next_u64();
        }
        let fa = a.fork("x").next_u64();
        b.next_u64();
        let fb = b.fork("x").next_u64();
        prop_assert_ne!(fa, fb);
    }

    #[test]
    fn duration_arithmetic_is_consistent(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let t = SimTime::at_cycle(a);
        let d = SimDuration::cycles(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    fn intern_resolve_round_trips(
        picks in proptest::collection::vec(0usize..NAME_POOL.len(), 1..64)
    ) {
        let mut reg = MonitorRegistry::new();
        for &i in &picks {
            let id = reg.intern(NAME_POOL[i]);
            prop_assert_eq!(reg.name(id), NAME_POOL[i]);
            prop_assert_eq!(reg.get(NAME_POOL[i]), Some(id));
        }
    }

    #[test]
    fn interned_ids_are_stable_across_reinterning(
        picks in proptest::collection::vec(0usize..NAME_POOL.len(), 1..64)
    ) {
        let mut reg = MonitorRegistry::new();
        let first: Vec<MonitorId> = picks.iter().map(|&i| reg.intern(NAME_POOL[i])).collect();
        let second: Vec<MonitorId> = picks.iter().map(|&i| reg.intern(NAME_POOL[i])).collect();
        prop_assert_eq!(first, second, "re-interning must return the same id");
    }

    #[test]
    fn interned_ids_are_dense_in_first_seen_order(
        picks in proptest::collection::vec(0usize..NAME_POOL.len(), 1..64)
    ) {
        let mut reg = MonitorRegistry::new();
        // Expected: distinct names in first-occurrence order get 0, 1, 2, …
        let mut expected: Vec<&str> = Vec::new();
        for &i in &picks {
            let id = reg.intern(NAME_POOL[i]);
            if !expected.contains(&NAME_POOL[i]) {
                expected.push(NAME_POOL[i]);
            }
            let pos = expected.iter().position(|&n| n == NAME_POOL[i]).unwrap();
            prop_assert_eq!(id.index(), pos, "ids must be dense in first-seen order");
        }
        prop_assert_eq!(reg.len(), expected.len());
        let names: Vec<&str> = reg.iter().map(|(_, n)| n).collect();
        prop_assert_eq!(names, expected);
    }

    #[test]
    fn unbound_and_out_of_range_ids_resolve_to_placeholder(
        picks in proptest::collection::vec(0usize..NAME_POOL.len(), 0..8)
    ) {
        let mut reg = MonitorRegistry::new();
        for &i in &picks {
            reg.intern(NAME_POOL[i]);
        }
        prop_assert!(!MonitorId::UNBOUND.is_bound());
        prop_assert_eq!(reg.name(MonitorId::UNBOUND), "?");
        prop_assert_eq!(reg.get("never-interned"), None);
    }
}
