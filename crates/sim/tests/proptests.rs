//! Property tests for the simulation kernel: event ordering (including a
//! differential check against a naive reference queue), RNG bounds, time
//! arithmetic and the monitor-name interner.

use cres_sim::{DetRng, EventQueue, MonitorId, MonitorRegistry, SimDuration, SimTime};
use proptest::prelude::*;

/// Length of the fan-out and delay tables that drive follow-up scheduling.
const TABLE: usize = 16;

/// Cap on events per differential case, so fan-out cannot run away.
const MAX_EVENTS: usize = 2_000;

/// The reference queue: a `Vec` scanned for the minimum `(at, seq)`.
#[derive(Default)]
struct ReferenceQueue {
    pending: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn schedule(&mut self, at: SimTime, event: usize) {
        self.pending.push((at, self.next_seq, event));
        self.next_seq += 1;
    }

    fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, usize)> {
        let (next, &(at, _, event)) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?;
        if at > horizon {
            return None;
        }
        self.pending.swap_remove(next);
        Some((at, event))
    }
}

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
    fn events_pop_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.schedule(SimTime::at_cycle(t), t);
        }
        let mut popped = Vec::new();
        while let Some((at, t)) = queue.pop_until(SimTime::MAX) {
            prop_assert_eq!(at.cycle(), t);
            popped.push(t);
        }
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]), "{popped:?}");
    }

    #[test]
    fn equal_time_events_pop_in_schedule_order(n in 1usize..60) {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(SimTime::at_cycle(42), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| queue.pop_until(SimTime::MAX))
            .map(|(_, i)| i)
            .collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_never_pops_past_horizon(
        times in proptest::collection::vec(0u64..10_000, 1..50),
        horizon in 0u64..10_000
    ) {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.schedule(SimTime::at_cycle(t), t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| queue.pop_until(SimTime::at_cycle(horizon)))
            .map(|(_, t)| t)
            .collect();
        prop_assert!(popped.iter().all(|&t| t <= horizon));
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(popped.len(), expected);
    }

    #[test]
    fn queue_pops_like_the_naive_reference(
        starts in proptest::collection::vec(0u64..64, 1..24),
        fanout in proptest::collection::vec(0usize..3, TABLE),
        delays in proptest::collection::vec(0u64..40, TABLE),
        horizon in 0u64..2_000
    ) {
        let horizon = SimTime::at_cycle(horizon);
        let mut queue = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (id, &start) in starts.iter().enumerate() {
            queue.schedule(SimTime::at_cycle(start), id);
            reference.schedule(SimTime::at_cycle(start), id);
        }
        let mut next_id = starts.len();
        loop {
            let popped = queue.pop_until(horizon);
            prop_assert_eq!(popped, reference.pop_until(horizon));
            let Some((at, id)) = popped else {
                break;
            };
            prop_assert_eq!(queue.now(), at);
            // Fan out from a table indexed by the event id; zero delays
            // land on the popping instant and tie with what is pending.
            for k in 0..fanout[id % TABLE] {
                if next_id >= MAX_EVENTS {
                    break;
                }
                let follow_up = at + SimDuration::cycles(delays[(id + k) % TABLE]);
                queue.schedule(follow_up, next_id);
                reference.schedule(follow_up, next_id);
                next_id += 1;
            }
        }
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
