//! The discrete-event queue.
//!
//! [`EventQueue<E>`] owns the simulated clock and a priority queue of
//! pending events. An event is plain data of the caller's type `E`: the
//! caller pops it, dispatches it against its own world and schedules any
//! follow-ups. Events at the same instant pop in schedule order, which
//! keeps runs bit-reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the lower sequence number winning ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events of type `E`, with the simulated clock.
pub struct EventQueue<E> {
    now: SimTime,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The current simulated instant: the time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to pop at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < {})",
            self.now
        );
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the earliest pending event and advances the clock to it, or
    /// returns `None` when the queue is empty or its next event lies after
    /// `horizon`. Events exactly at the horizon do pop.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > horizon {
            return None;
        }
        let Scheduled { at, event, .. } = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain<E>(queue: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| queue.pop_until(SimTime::MAX))
            .map(|(_, e)| e)
            .collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::at_cycle(30), 3);
        queue.schedule(SimTime::at_cycle(10), 1);
        queue.schedule(SimTime::at_cycle(20), 2);
        assert_eq!(drain(&mut queue), vec![1, 2, 3]);
        assert_eq!(queue.now(), SimTime::at_cycle(30));
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut queue = EventQueue::new();
        for i in 0..50 {
            queue.schedule(SimTime::at_cycle(5), i);
        }
        assert_eq!(drain(&mut queue), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn popped_events_can_schedule_followups() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::at_cycle(1), 1u64);
        let mut total = 0;
        while let Some((at, value)) = queue.pop_until(SimTime::MAX) {
            total += value;
            if value < 100 {
                queue.schedule(at + SimDuration::cycles(1), value * 10);
            }
        }
        assert_eq!(total, 111);
        assert_eq!(queue.now(), SimTime::at_cycle(3));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut queue = EventQueue::new();
        for cycle in [10, 20, 30] {
            queue.schedule(SimTime::at_cycle(cycle), cycle);
        }
        let horizon = SimTime::at_cycle(20);
        let popped: Vec<u64> = std::iter::from_fn(|| queue.pop_until(horizon))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(popped, vec![10, 20]);
        assert_eq!(queue.now(), SimTime::at_cycle(20));
        assert_eq!(drain(&mut queue), vec![30]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::at_cycle(10), ());
        queue.pop_until(SimTime::MAX);
        queue.schedule(SimTime::at_cycle(5), ());
    }
}
