//! The fault plane: deterministic fault injection into the security
//! pipeline itself.
//!
//! Every experiment so far assumed the resilience layer is perfectly
//! reliable — monitors never die, the monitor→SSM interconnect never drops
//! an event, response commands always reach their backend. No real SoC
//! interconnect offers that. This module makes pipeline failure a
//! first-class, *seed-deterministic* workload:
//!
//! * **event channel faults** — loss, delayed delivery (held for whole
//!   sampling batches), adjacent reordering, and in-transit corruption
//!   (severity downgraded one band, detail mangled) of monitor→SSM events;
//! * **monitor faults** — probabilistic single-round stalls and permanent
//!   crash-at-cycle of a seed-chosen subset of the monitor fleet;
//! * **response faults** — command drops between planner and backend.
//!
//! The pipeline fights back with bounded, sim-clock-based retry (two
//! retries at `64 << n` cycles plus a jitter draw below 64) and, at the
//! SSM level, heartbeat liveness tracking that quarantines dead monitors
//! and widens correlation windows (`cres_ssm::MonitorHealth`). Experiment
//! E11 (`e11_selfheal`) sweeps fault intensity against detection
//! performance.
//!
//! One number sets the intensity: [`FaultPlaneConfig::loss`]. Delay,
//! reorder, response drop and stall fire at `loss / 2`, corruption at
//! `loss / 4`; a delayed event is held for 1–3 sampling batches.
//!
//! Determinism contract: the injector draws from its own RNG stream
//! (`fork("fault-plane")` of the platform seed), so
//!
//! * a disabled fault plane leaves every other stream untouched — reports
//!   are byte-identical to a build without this module, and
//! * telemetry on/off never changes fault decisions (the injector never
//!   reads the sink).

use cres_monitor::MonitorEvent;
use cres_sim::{fault_code, DetRng, SimTime, Stage, StageSink};
use serde::{Deserialize, Serialize};
use std::mem;

/// One cell of the E11 sweep, carried per [`crate::PlatformConfig`] as
/// `Some(cell)`; `None` is a platform without a fault plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlaneConfig {
    /// Probability a monitor event is lost in transit (before retry). The
    /// other fault rates derive from it (see the module docs).
    pub loss: f64,
    /// Number of monitors (seed-chosen from the periodic fleet) that crash
    /// permanently at [`FaultPlaneConfig::crash_at`].
    pub crashed: u32,
    /// Cycle at which crashing monitors die.
    pub crash_at: u64,
}

/// Longest hold of a delayed event, in sampling batches (a hold is
/// uniform in `1..=MAX_DELAY_BATCHES`).
const MAX_DELAY_BATCHES: u32 = 3;
/// Retries after a faulted first delivery.
const RETRIES: usize = 2;
/// Backoff unit of the retry ladder, in cycles.
const BASE_BACKOFF: u64 = 64;

/// The retry ladder, in sim cycles (never wall time): retry `n` waits
/// `BASE_BACKOFF << n` plus a jitter draw in `[0, BASE_BACKOFF)`, so the
/// ladder is 64–127 then 128–191 cycles. Every jitter is drawn before the
/// first retry re-rolls.
fn backoffs(rng: &mut DetRng) -> [u64; RETRIES] {
    let mut ladder = [0; RETRIES];
    for (n, backoff) in ladder.iter_mut().enumerate() {
        *backoff = (BASE_BACKOFF << n) + rng.range_u64(0, BASE_BACKOFF);
    }
    ladder
}

/// Counters for everything the fault plane injected and everything the
/// pipeline did to survive it. Embedded in `RunReport` (independent of the
/// telemetry layer, so fault accounting survives `telemetry.enabled =
/// false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlaneStats {
    /// Events dropped after exhausting every delivery retry.
    pub events_lost: u64,
    /// Events held back for at least one batch.
    pub events_delayed: u64,
    /// Adjacent event pairs swapped.
    pub events_reordered: u64,
    /// Events corrupted in transit.
    pub events_corrupted: u64,
    /// Event delivery retries spent.
    pub delivery_retries: u64,
    /// Events that initially faulted but were recovered by a retry.
    pub recovered_deliveries: u64,
    /// Total backoff cycles spent on retries (events + responses).
    pub backoff_cycles: u64,
    /// Monitor sampling rounds skipped by stalls.
    pub monitor_stalls: u64,
    /// Monitors crashed permanently.
    pub monitors_crashed: u64,
    /// Monitors the SSM quarantined via heartbeat loss.
    pub monitors_quarantined: u64,
    /// Response commands dropped after exhausting retries.
    pub response_drops: u64,
    /// Response delivery retries spent.
    pub response_retries: u64,
    /// True when correlation entered sensing-degraded compensation.
    pub degraded_correlation: bool,
}

/// The runtime fault injector: one per platform, constructed only when
/// the platform's configuration carries a [`FaultPlaneConfig`].
#[derive(Debug, Clone)]
pub struct FaultPlane {
    // Per-event (or per-command / per-monitor-round) fault probabilities,
    // derived once from `FaultPlaneConfig::loss`.
    loss: f64,
    delay: f64,
    reorder: f64,
    corrupt: f64,
    response_drop: f64,
    stall: f64,
    crash_at: u64,
    rng: DetRng,
    /// Events held back by the delay fault: `(batches_remaining, event)`.
    delayed: Vec<(u32, MonitorEvent)>,
    /// Indices (into the platform's periodic monitor fleet) that crash at
    /// `crash_at`.
    crashed: Vec<usize>,
    /// Reused staging buffer for [`FaultPlane::filter_events`] — the batch
    /// is swapped in here so the caller's buffer can be rebuilt in place
    /// without a per-batch allocation.
    scratch: Vec<MonitorEvent>,
    stats: FaultPlaneStats,
}

impl FaultPlane {
    /// Builds the injector for a platform seeded with `seed` driving
    /// `monitor_count` periodic monitors. The crash victims are a
    /// seed-deterministic choice of `config.crashed` distinct indices.
    pub fn new(config: FaultPlaneConfig, seed: u64, monitor_count: usize) -> Self {
        let mut rng = DetRng::seed_from(seed).fork("fault-plane");
        let victims = (config.crashed as usize).min(monitor_count);
        let crashed: Vec<usize> = rng
            .permutation(monitor_count)
            .into_iter()
            .take(victims)
            .collect();
        let stats = FaultPlaneStats {
            monitors_crashed: crashed.len() as u64,
            ..Default::default()
        };
        let loss = config.loss;
        FaultPlane {
            loss,
            delay: loss / 2.0,
            reorder: loss / 2.0,
            corrupt: loss / 4.0,
            response_drop: loss / 2.0,
            stall: loss / 2.0,
            crash_at: config.crash_at,
            rng,
            delayed: Vec::new(),
            crashed,
            scratch: Vec::new(),
            stats,
        }
    }

    /// Injection/recovery counters so far.
    pub fn stats(&self) -> &FaultPlaneStats {
        &self.stats
    }

    /// Mutable access for the scoring path (quarantine/degradation counts
    /// are owned by the SSM and folded in at report time).
    pub fn stats_mut(&mut self) -> &mut FaultPlaneStats {
        &mut self.stats
    }

    /// Indices of monitors that die at [`FaultPlaneConfig::crash_at`].
    pub fn crashed_monitors(&self) -> &[usize] {
        &self.crashed
    }

    /// True when monitor `index` is dead at `now`.
    pub fn is_crashed(&self, index: usize, now: SimTime) -> bool {
        now.cycle() >= self.crash_at && self.crashed.contains(&index)
    }

    /// True when delayed events are waiting for a later batch. A test
    /// accessor: the runner never asks, because every sampling round calls
    /// [`FaultPlane::filter_events`], and that call releases the held
    /// events that are due, even when the round itself is empty.
    pub fn pending(&self) -> bool {
        !self.delayed.is_empty()
    }

    /// Draws the stall fault for one live monitor's sampling round. Returns
    /// true when the monitor skips this round (one `fault-plane` span, no
    /// heartbeat — a stalled monitor looks dead until it beats again).
    pub fn monitor_stalls(&mut self, now: SimTime, sink: &mut dyn StageSink) -> bool {
        if self.stall <= 0.0 {
            return false;
        }
        let stalled = self.rng.chance(self.stall);
        if stalled {
            self.stats.monitor_stalls += 1;
            sink.record_span(now, Stage::FaultPlane, fault_code::MONITOR_STALLED, 1);
        }
        stalled
    }

    /// Passes one freshly sampled batch through the faulty interconnect,
    /// rewriting `events` in place to what the SSM actually receives: due
    /// delayed events first (FIFO), then this batch's survivors —
    /// corrupted, lost (after retries), delayed, and finally reordered.
    /// Never duplicates an event, and never allocates once the internal
    /// staging buffers have warmed up.
    pub fn filter_events(
        &mut self,
        now: SimTime,
        events: &mut Vec<MonitorEvent>,
        sink: &mut dyn StageSink,
    ) {
        // Swap the incoming batch into the staging buffer and rebuild
        // `events` in place, reusing both allocations across batches.
        let mut batch = mem::take(&mut self.scratch);
        batch.clear();
        batch.append(events);

        // Release events whose hold expired; decrement the rest in place.
        let mut kept = 0;
        for i in 0..self.delayed.len() {
            let (batches, event) = self.delayed[i];
            if batches <= 1 {
                events.push(event);
            } else {
                self.delayed[kept] = (batches - 1, event);
                kept += 1;
            }
        }
        self.delayed.truncate(kept);

        for &(mut event) in &batch {
            // Corruption: the event arrives, but mangled — severity loses a
            // band and the rendered detail gains the in-transit prefix.
            if self.corrupt > 0.0 && self.rng.chance(self.corrupt) {
                event.severity = event.severity.downgrade();
                event.corrupted = true;
                self.stats.events_corrupted += 1;
                sink.record_span(now, Stage::FaultPlane, fault_code::EVENT_CORRUPTED, 1);
            }
            // Loss, fought with bounded retry.
            if self.loss > 0.0
                && self.rng.chance(self.loss)
                && !self.retry_delivery(now, self.loss, false, sink)
            {
                self.stats.events_lost += 1;
                sink.record_span(now, Stage::FaultPlane, fault_code::EVENT_LOST, 1);
                continue;
            }
            // Delay: survived, but held for 1..=MAX_DELAY_BATCHES batches.
            if self.delay > 0.0 && self.rng.chance(self.delay) {
                let hold = self.rng.range_u64(1, u64::from(MAX_DELAY_BATCHES) + 1) as u32;
                self.stats.events_delayed += 1;
                sink.record_span(now, Stage::FaultPlane, fault_code::EVENT_DELAYED, 1);
                self.delayed.push((hold, event));
                continue;
            }
            events.push(event);
        }
        batch.clear();
        self.scratch = batch;

        // Reorder: swap adjacent pairs. A swap never duplicates or drops.
        if self.reorder > 0.0 && events.len() >= 2 {
            for i in 0..events.len() - 1 {
                if self.rng.chance(self.reorder) {
                    events.swap(i, i + 1);
                    self.stats.events_reordered += 1;
                    sink.record_span(now, Stage::FaultPlane, fault_code::EVENT_REORDERED, 1);
                }
            }
        }
    }

    /// Draws the drop fault for one response command. Returns true when the
    /// command is lost (after retries).
    pub fn drops_response(&mut self, now: SimTime, sink: &mut dyn StageSink) -> bool {
        if self.response_drop <= 0.0 || !self.rng.chance(self.response_drop) {
            return false;
        }
        if self.retry_delivery(now, self.response_drop, true, sink) {
            return false;
        }
        self.stats.response_drops += 1;
        sink.record_span(now, Stage::FaultPlane, fault_code::RESPONSE_DROPPED, 1);
        true
    }

    /// Climbs the retry ladder for a faulted delivery. Each retry waits its
    /// backoff (accounted in `backoff_cycles`) and re-rolls against
    /// `fault_p`; returns true when some retry succeeds.
    fn retry_delivery(
        &mut self,
        now: SimTime,
        fault_p: f64,
        response: bool,
        sink: &mut dyn StageSink,
    ) -> bool {
        for backoff in backoffs(&mut self.rng) {
            self.stats.backoff_cycles += backoff;
            if response {
                self.stats.response_retries += 1;
            } else {
                self.stats.delivery_retries += 1;
            }
            sink.record_span(now, Stage::FaultPlane, fault_code::DELIVERY_RETRY, backoff);
            if !self.rng.chance(fault_p) {
                self.stats.recovered_deliveries += 1;
                sink.record_span(now, Stage::FaultPlane, fault_code::DELIVERY_RECOVERED, 1);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_monitor::{Detail, Severity, Subject};
    use cres_policy::DetectionCapability;
    use cres_sim::NullSink;

    fn ev(at: u64, detail: &'static str) -> MonitorEvent {
        MonitorEvent::new(
            SimTime::at_cycle(at),
            DetectionCapability::BusPolicing,
            Severity::Alert,
            Subject::Network,
            Detail::Text(detail),
        )
    }

    fn filter(plane: &mut FaultPlane, at: u64, batch: Vec<MonitorEvent>) -> Vec<MonitorEvent> {
        let mut events = batch;
        plane.filter_events(SimTime::at_cycle(at), &mut events, &mut NullSink);
        events
    }

    fn cell(loss: f64, crashed: u32, crash_at: u64) -> FaultPlaneConfig {
        FaultPlaneConfig {
            loss,
            crashed,
            crash_at,
        }
    }

    /// A zero-loss plane with one derived rate forced by `force`, so a
    /// single fault kind can be exercised alone.
    fn quiet_plane_with(force: impl FnOnce(&mut FaultPlane)) -> FaultPlane {
        let mut plane = FaultPlane::new(cell(0.0, 0, 0), 1, 8);
        force(&mut plane);
        plane
    }

    #[test]
    fn rates_derive_from_loss() {
        let plane = FaultPlane::new(cell(0.2, 2, 50_000), 1, 8);
        assert_eq!(plane.loss, 0.2);
        for rate in [plane.delay, plane.reorder, plane.response_drop, plane.stall] {
            assert_eq!(rate, 0.1);
        }
        assert_eq!(plane.corrupt, 0.05);
        assert_eq!(plane.crash_at, 50_000);
        assert_eq!(plane.crashed_monitors().len(), 2);
    }

    #[test]
    fn all_off_plane_is_transparent() {
        let mut plane = FaultPlane::new(cell(0.0, 0, 0), 1, 8);
        let batch: Vec<MonitorEvent> = (0..10).map(|i| ev(i, "x")).collect();
        let out = filter(&mut plane, 100, batch.clone());
        assert_eq!(out, batch);
        assert!(!plane.drops_response(SimTime::at_cycle(100), &mut NullSink));
        assert_eq!(plane.stats(), &FaultPlaneStats::default());
    }

    #[test]
    fn total_loss_drops_everything_and_counts() {
        let mut plane = FaultPlane::new(cell(1.0, 0, 0), 1, 8);
        let out = filter(&mut plane, 0, (0..5).map(|i| ev(i, "x")).collect());
        assert!(out.is_empty());
        assert_eq!(plane.stats().events_lost, 5);
        // the whole retry ladder is spent on every loss
        assert_eq!(plane.stats().delivery_retries, 5 * RETRIES as u64);
        assert!(plane.stats().backoff_cycles > 0);
    }

    #[test]
    fn delayed_events_arrive_later_without_duplication() {
        let mut plane = quiet_plane_with(|p| p.delay = 1.0);
        let batch: Vec<MonitorEvent> = (0..4).map(|i| ev(i, "d")).collect();
        let first = filter(&mut plane, 0, batch.clone());
        assert!(first.is_empty(), "everything should be held");
        assert!(plane.pending());
        let mut recovered = Vec::new();
        // Feeding empty batches releases the held events; delay cannot
        // re-fire on an already released event (release path is fault-free).
        for round in 1..=u64::from(MAX_DELAY_BATCHES) {
            recovered.extend(filter(&mut plane, round * 1_000, Vec::new()));
        }
        assert!(!plane.pending());
        assert_eq!(recovered.len(), batch.len(), "no loss, no duplication");
        assert_eq!(plane.stats().events_delayed, 4);
    }

    #[test]
    fn corruption_downgrades_and_tags() {
        let mut plane = quiet_plane_with(|p| p.corrupt = 1.0);
        let out = filter(&mut plane, 0, vec![ev(0, "probe")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
        assert!(out[0].corrupted);
        assert!(out[0]
            .rendered()
            .to_string()
            .starts_with("[corrupted in transit]"));
        assert_eq!(plane.stats().events_corrupted, 1);
    }

    #[test]
    fn reorder_permutes_but_preserves_multiset() {
        let mut plane = quiet_plane_with(|p| p.reorder = 1.0);
        let batch: Vec<MonitorEvent> = (0..6).map(|i| ev(i, "r")).collect();
        let out = filter(&mut plane, 0, batch.clone());
        assert_eq!(out.len(), batch.len());
        let mut sorted_in: Vec<u64> = batch.iter().map(|e| e.at.cycle()).collect();
        let mut sorted_out: Vec<u64> = out.iter().map(|e| e.at.cycle()).collect();
        sorted_in.sort_unstable();
        sorted_out.sort_unstable();
        assert_eq!(sorted_in, sorted_out);
        assert!(plane.stats().events_reordered > 0);
    }

    #[test]
    fn crash_victims_are_seed_deterministic_and_distinct() {
        let config = cell(0.0, 3, 1_000);
        let a = FaultPlane::new(config, 42, 8);
        let b = FaultPlane::new(config, 42, 8);
        assert_eq!(a.crashed_monitors(), b.crashed_monitors());
        assert_eq!(a.crashed_monitors().len(), 3);
        let mut sorted = a.crashed_monitors().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "victims must be distinct");
        // before crash_at nobody is dead; after, exactly the victims are
        for idx in 0..8 {
            assert!(!a.is_crashed(idx, SimTime::at_cycle(999)));
        }
        for &idx in a.crashed_monitors() {
            assert!(a.is_crashed(idx, SimTime::at_cycle(1_000)));
        }
        assert_eq!(a.stats().monitors_crashed, 3);
    }

    #[test]
    fn crash_count_saturates_at_fleet_size() {
        let plane = FaultPlane::new(cell(0.0, 99, 0), 7, 4);
        assert_eq!(plane.crashed_monitors().len(), 4);
    }

    #[test]
    fn retry_ladder_is_monotone_and_bounded() {
        // 64–127 then 128–191 cycles: the rungs never overlap and the
        // longest backoff stays far below a monitor period.
        let mut rng = DetRng::seed_from(9);
        let (mut low, mut high) = ([u64::MAX; RETRIES], [0; RETRIES]);
        for _ in 0..500 {
            for (n, backoff) in backoffs(&mut rng).into_iter().enumerate() {
                low[n] = low[n].min(backoff);
                high[n] = high[n].max(backoff);
            }
        }
        assert_eq!((low, high), ([64, 128], [127, 191]));
    }

    #[test]
    fn same_seed_same_fault_decisions() {
        let config = cell(0.3, 1, 100_000);
        let batch: Vec<MonitorEvent> = (0..20).map(|i| ev(i, "s")).collect();
        let run = |seed: u64| {
            let mut plane = FaultPlane::new(config, seed, 8);
            let mut out = Vec::new();
            for round in 0..5u64 {
                out.push(filter(&mut plane, round * 5_000, batch.clone()));
            }
            (out, *plane.stats())
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234).1, run(5678).1, "different seeds should differ");
    }
}
