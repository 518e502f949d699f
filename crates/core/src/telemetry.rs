//! Always-on pipeline telemetry: cycle-accurate tracing + metrics registry.
//!
//! The paper's Active Runtime Resource Monitors exist to produce a
//! *continuous historical data stream*; this module gives the reproduction
//! the same property about **itself**. Every stage of the resilience
//! pipeline (monitor-sample → event-emit → correlate → classify → plan →
//! respond → evidence-append) reports spans through the
//! [`cres_sim::StageSink`] trait, and the platform's [`TelemetryRecorder`]
//! collects them into:
//!
//! * a fixed-capacity ([`TRACE_RING_CAPACITY`] spans),
//!   no-alloc-on-hot-path [`TraceRing`] of [`TraceSpan`]s stamped with the
//!   sim cycle clock,
//! * per-stage count/cycle accumulators (plain arrays indexed by
//!   [`Stage::index`]),
//! * a [`MetricsRegistry`] of named counters, gauges and fixed-bucket
//!   histograms, populated at scoring time with detection latency,
//!   incidents per kind, ring occupancy and evidence-chain length.
//!
//! Recording charges a nominal per-span instrumentation cost
//! ([`SPAN_COST`] cycles, modelling a trace-macrocell FIFO write) into an
//! accounting counter — it never perturbs the simulation itself, so a run
//! with telemetry on is bit-identical to the same run with telemetry off
//! in every non-telemetry report field (asserted by `e8_overhead`).
//! Snapshots merge associatively in submission order
//! ([`TelemetrySnapshot::merge`]), which is what keeps
//! parallel campaign aggregation bit-identical to sequential
//! (`tests/campaign_determinism.rs`).
//!
//! # Example
//!
//! ```
//! use cres_platform::telemetry::{TelemetryRecorder, SPAN_COST};
//! use cres_sim::{SimTime, Stage, StageSink};
//!
//! let mut recorder = TelemetryRecorder::new();
//! recorder.record_span(SimTime::at_cycle(100), Stage::MonitorSample, 1, 2);
//! recorder.record_span(SimTime::at_cycle(100), Stage::EventEmit, 3, 1);
//!
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.spans_recorded, 2);
//! assert_eq!(snapshot.instrumentation_cycles, 2 * SPAN_COST);
//! assert_eq!(snapshot.stage(Stage::MonitorSample).unwrap().count, 1);
//! ```

use cres_sim::{SimTime, Stage, StageSink};
use std::collections::BTreeMap;

/// Histogram bucket upper bounds (cycles) for detection latency: one
/// bucket per sampling-period decade the E8 sweep explores, plus the
/// watchdog band.
pub const LATENCY_BUCKETS: [u64; 8] = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 500_000,
];

/// Trace ring capacity in spans (allocated once per recorder; the hot path
/// never allocates).
pub const TRACE_RING_CAPACITY: usize = 4_096;

/// Nominal cycle cost charged per recorded span (the modelled price of one
/// trace-FIFO write). Pure accounting — never injected into the
/// simulation's event timing.
pub const SPAN_COST: u64 = 2;

/// Telemetry layer configuration, carried on
/// [`crate::config::PlatformConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When false the platform allocates no recorder and
    /// the instrumentation points cost one branch.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true }
    }
}

/// One recorded span: a unit of pipeline work at a cycle instant.
///
/// `arg` is a stage-specific payload (see the [`Stage`] variant docs):
/// events produced for `monitor-sample`, severity rank for `event-emit`,
/// incident id for `classify`, action count for `plan`, success flag for
/// `respond`, chain sequence for `evidence-append`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Sim-clock instant the work was observed at.
    pub at: SimTime,
    /// Pipeline stage.
    pub stage: Stage,
    /// Stage-specific payload.
    pub arg: u32,
    /// Modelled cycle cost of the work itself.
    pub cycles: u64,
}

/// Fixed-capacity ring buffer of [`TraceSpan`]s.
///
/// Capacity is allocated once at construction; recording a span into a
/// full ring overwrites the oldest span and bumps the drop counter, so the
/// hot path is a bounds-checked array write — no allocation, no
/// reallocation.
///
/// # Example
///
/// ```
/// use cres_platform::telemetry::TraceRing;
/// use cres_sim::{SimTime, Stage};
///
/// let mut ring = TraceRing::new(2);
/// for cycle in 1..=3 {
///     ring.push(SimTime::at_cycle(cycle), Stage::Correlate, 0, 2);
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// // oldest-first iteration: span @1 was evicted
/// assert_eq!(ring.iter().next().unwrap().at, SimTime::at_cycle(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing {
    spans: Vec<TraceSpan>,
    capacity: usize,
    /// Index the next span will be written to once the ring is full.
    head: usize,
    recorded: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        TraceRing {
            spans: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Records a span, overwriting the oldest when full.
    pub fn push(&mut self, at: SimTime, stage: Stage, arg: u32, cycles: u64) {
        let span = TraceSpan {
            at,
            stage,
            arg,
            cycles,
        };
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total spans ever recorded (retained + overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.spans.len() as u64
    }

    /// Iterates retained spans oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSpan> {
        let (newer, older) = self.spans.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// The newest `n` spans, oldest-first.
    pub fn tail(&self, n: usize) -> Vec<TraceSpan> {
        let skip = self.len().saturating_sub(n);
        self.iter().skip(skip).copied().collect()
    }

    /// Clears the ring and its counters (used when the platform flushes
    /// pre-deployment training noise).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.head = 0;
        self.recorded = 0;
    }
}

/// A fixed-bucket histogram: counts of observations ≤ each bound, plus an
/// overflow bucket, running total and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram over ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observation count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The cumulative-bucket view (Prometheus exposition semantics): one
    /// `(upper_bound, observations ≤ bound)` pair per bound, ascending,
    /// ending with the `+Inf` bucket (`None`) whose count equals
    /// [`Histogram::total`].
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        cumulative(&self.bounds, &self.counts)
    }

    /// Adds another histogram's observations bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Shared cumulative fold for [`Histogram`] and [`HistogramSnapshot`]:
/// pairs each upper bound (then `None` = `+Inf`) with the running count.
fn cumulative(bounds: &[u64], counts: &[u64]) -> Vec<(Option<u64>, u64)> {
    let mut out = Vec::with_capacity(counts.len());
    let mut acc = 0u64;
    for (i, count) in counts.iter().enumerate() {
        acc += count;
        out.push((bounds.get(i).copied(), acc));
    }
    out
}

/// A registry of named counters, gauges and fixed-bucket histograms.
///
/// Names are sorted (BTreeMap) so every enumeration — snapshot, JSON
/// export, campaign merge — is deterministic.
///
/// # Example
///
/// ```
/// use cres_platform::telemetry::MetricsRegistry;
///
/// let mut metrics = MetricsRegistry::new();
/// metrics.counter_add("incidents.NetworkFlood", 2);
/// metrics.gauge_set("evidence_chain_len", 17.0);
/// metrics.histogram("detection_latency_cycles", &[1_000, 10_000]);
/// metrics.observe("detection_latency_cycles", 4_200);
///
/// assert_eq!(metrics.counter("incidents.NetworkFlood"), Some(2));
/// assert_eq!(metrics.gauge("evidence_chain_len"), Some(17.0));
/// let latency = metrics.histogram_get("detection_latency_cycles").unwrap();
/// assert_eq!(latency.counts(), &[0, 1, 0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(counter) = self.counters.get_mut(name) {
            *counter += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Registers histogram `name` over `bounds` if absent (idempotent —
    /// existing bounds win).
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::new(bounds));
        }
    }

    /// Records `value` into histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram was never registered — observation sites
    /// are fixed pipeline code, so an unknown name is a wiring bug.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} not registered"))
            .observe(value);
    }

    /// Histogram `name`, if registered.
    pub fn histogram_get(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Aggregate of all spans recorded for one [`Stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// The stage.
    pub stage: Stage,
    /// Spans recorded.
    pub count: u64,
    /// Summed modelled cycle cost of the work those spans describe.
    pub cycles: u64,
}

/// The platform's telemetry collector: trace ring + per-stage accumulators
/// + metrics registry, fed through [`StageSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecorder {
    ring: TraceRing,
    stage_counts: [u64; Stage::COUNT],
    stage_cycles: [u64; Stage::COUNT],
    instrumentation_cycles: u64,
    metrics: MetricsRegistry,
}

impl TelemetryRecorder {
    /// Creates a recorder with a [`TRACE_RING_CAPACITY`]-span ring; the
    /// detection-latency histogram is pre-registered over
    /// [`LATENCY_BUCKETS`].
    pub fn new() -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.histogram("detection_latency_cycles", &LATENCY_BUCKETS);
        TelemetryRecorder {
            ring: TraceRing::new(TRACE_RING_CAPACITY),
            stage_counts: [0; Stage::COUNT],
            stage_cycles: [0; Stage::COUNT],
            instrumentation_cycles: 0,
            metrics,
        }
    }

    /// The trace ring (read access for dump tooling).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The metrics registry (scoring code adds end-of-run metrics here).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Accumulated instrumentation cost: spans recorded × [`SPAN_COST`].
    /// This is the number E8 holds under 5% of the run duration.
    pub fn instrumentation_cycles(&self) -> u64 {
        self.instrumentation_cycles
    }

    /// Clears all recorded state (pre-deployment training flush) while
    /// keeping registered histograms.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.stage_counts = [0; Stage::COUNT];
        self.stage_cycles = [0; Stage::COUNT];
        self.instrumentation_cycles = 0;
        let mut metrics = MetricsRegistry::new();
        metrics.histogram("detection_latency_cycles", &LATENCY_BUCKETS);
        self.metrics = metrics;
    }

    /// Freezes the current state into a snapshot, keeping the newest 16
    /// spans as the forensic trace tail.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let stages = Stage::ALL
            .into_iter()
            .map(|stage| StageStat {
                stage,
                count: self.stage_counts[stage.index()],
                cycles: self.stage_cycles[stage.index()],
            })
            .filter(|s| s.count > 0)
            .collect();
        TelemetrySnapshot {
            spans_recorded: self.ring.recorded(),
            spans_dropped: self.ring.dropped(),
            ring_capacity: self.ring.capacity(),
            ring_occupancy: self.ring.len(),
            span_cost: SPAN_COST,
            instrumentation_cycles: self.instrumentation_cycles,
            stages,
            counters: self
                .metrics
                .counters()
                .map(|(k, v)| (k.into(), v))
                .collect(),
            gauges: self.metrics.gauges().map(|(k, v)| (k.into(), v)).collect(),
            histograms: self
                .metrics
                .histograms()
                .map(|(name, h)| HistogramSnapshot {
                    name: name.to_string(),
                    bounds: h.bounds().to_vec(),
                    counts: h.counts().to_vec(),
                    total: h.total(),
                    sum: h.sum(),
                })
                .collect(),
            trace_tail: self.ring.tail(16),
        }
    }
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StageSink for TelemetryRecorder {
    #[inline]
    fn record_span(&mut self, at: SimTime, stage: Stage, arg: u32, cycles: u64) {
        self.ring.push(at, stage, arg, cycles);
        self.stage_counts[stage.index()] += 1;
        self.stage_cycles[stage.index()] += cycles;
        self.instrumentation_cycles += SPAN_COST;
    }
}

/// One named histogram, frozen for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1`; last = overflow).
    pub counts: Vec<u64>,
    /// Observation count.
    pub total: u64,
    /// Observation sum.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The cumulative-bucket view — see [`Histogram::cumulative_buckets`];
    /// the last (`None` = `+Inf`) entry equals `self.total`.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        cumulative(&self.bounds, &self.counts)
    }
}

/// The frozen end-of-run telemetry report carried on
/// [`crate::metrics::RunReport`] (and exported through its JSON codec —
/// see `EXPERIMENTS.md` E8 for the field-by-field schema).
///
/// # JSON round-trip
///
/// ```
/// use cres_platform::telemetry::TelemetryRecorder;
/// use cres_sim::{SimTime, Stage, StageSink};
///
/// let mut recorder = TelemetryRecorder::new();
/// recorder.record_span(SimTime::at_cycle(7), Stage::Respond, 1, 10);
/// recorder.metrics_mut().counter_add("incidents.CodeInjection", 1);
///
/// let snapshot = recorder.snapshot();
/// let json = snapshot.to_json();
/// assert!(json.contains("\"respond\""));
/// let back = cres_platform::telemetry::TelemetrySnapshot::from_json(&json).unwrap();
/// assert_eq!(back, snapshot);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Total spans recorded (retained + overwritten).
    pub spans_recorded: u64,
    /// Spans lost to ring overflow.
    pub spans_dropped: u64,
    /// Ring capacity (summed across runs after a merge).
    pub ring_capacity: usize,
    /// Spans retained at snapshot time (summed across runs after a merge).
    pub ring_occupancy: usize,
    /// Per-span instrumentation cost in force.
    pub span_cost: u64,
    /// Total instrumentation cost in cycles (`spans_recorded × span_cost`).
    pub instrumentation_cycles: u64,
    /// Per-stage aggregates, pipeline order, zero-count stages omitted.
    pub stages: Vec<StageStat>,
    /// Counters, name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, name order.
    pub histograms: Vec<HistogramSnapshot>,
    /// The newest ≤16 spans, oldest-first (cleared by a merge — tails from
    /// different runs do not concatenate meaningfully).
    pub trace_tail: Vec<TraceSpan>,
}

impl TelemetrySnapshot {
    /// Aggregate of stage `stage`, if any spans were recorded for it.
    pub fn stage(&self, stage: Stage) -> Option<StageStat> {
        self.stages.iter().find(|s| s.stage == stage).copied()
    }

    /// Summed modelled pipeline work across all stages, in cycles.
    pub fn pipeline_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.cycles).sum()
    }

    /// Folds `other` into `self` (campaign aggregation, submission order).
    ///
    /// Counts, cycles, counters and histograms add; gauges are last-write-
    /// wins (the later job in submission order); capacity and occupancy
    /// sum; the trace tail is cleared — span streams from independent runs
    /// do not interleave meaningfully.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.spans_recorded += other.spans_recorded;
        self.spans_dropped += other.spans_dropped;
        self.ring_capacity += other.ring_capacity;
        self.ring_occupancy += other.ring_occupancy;
        self.instrumentation_cycles += other.instrumentation_cycles;
        for stage in Stage::ALL {
            let Some(theirs) = other.stage(stage) else {
                continue;
            };
            if let Some(mine) = self.stages.iter_mut().find(|s| s.stage == stage) {
                mine.count += theirs.count;
                mine.cycles += theirs.cycles;
            } else {
                self.stages.push(theirs);
                self.stages.sort_by_key(|s| s.stage.index());
            }
        }
        for (name, value) in &other.counters {
            match self.counters.binary_search_by(|(k, _)| k.cmp(name)) {
                Ok(i) => self.counters[i].1 += value,
                Err(i) => self.counters.insert(i, (name.clone(), *value)),
            }
        }
        for (name, value) in &other.gauges {
            match self.gauges.binary_search_by(|(k, _)| k.cmp(name)) {
                Ok(i) => self.gauges[i].1 = *value,
                Err(i) => self.gauges.insert(i, (name.clone(), *value)),
            }
        }
        for theirs in &other.histograms {
            if let Some(mine) = self.histograms.iter_mut().find(|h| h.name == theirs.name) {
                assert_eq!(mine.bounds, theirs.bounds, "histogram bounds mismatch");
                for (m, t) in mine.counts.iter_mut().zip(&theirs.counts) {
                    *m += t;
                }
                mine.total += theirs.total;
                mine.sum += theirs.sum;
            } else {
                self.histograms.push(theirs.clone());
                self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
            }
        }
        self.trace_tail.clear();
    }

    /// One-line summary for experiment output.
    pub fn summary_line(&self) -> String {
        format!(
            "{} spans ({} dropped), instrumentation {} cycles, pipeline work {} cycles",
            self.spans_recorded,
            self.spans_dropped,
            self.instrumentation_cycles,
            self.pipeline_cycles(),
        )
    }

    /// Multi-line per-stage breakdown for experiment output.
    pub fn stage_table(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<16} {:>8} spans  {:>10} cycles\n",
                s.stage.name(),
                s.count,
                s.cycles
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(recorder: &mut TelemetryRecorder, cycle: u64, stage: Stage) {
        recorder.record_span(SimTime::at_cycle(cycle), stage, 0, 3);
    }

    #[test]
    fn ring_overwrites_oldest_without_allocating() {
        let mut ring = TraceRing::new(4);
        for cycle in 0..10 {
            ring.push(SimTime::at_cycle(cycle), Stage::EventEmit, 0, 1);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let cycles: Vec<u64> = ring.iter().map(|s| s.at.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        assert_eq!(ring.tail(2).len(), 2);
        assert_eq!(ring.tail(2)[0].at.cycle(), 8);
        // capacity was never exceeded
        assert!(ring.spans.capacity() <= 4 * 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_ring_panics() {
        TraceRing::new(0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 10, 11, 1_000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 1_026);
        assert_eq!(h.mean(), Some(256.5));
    }

    #[test]
    fn histogram_cumulative_buckets_are_monotone_and_sum_to_count() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 10, 11, 1_000, 2_000] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(
            buckets,
            vec![(Some(10), 2), (Some(100), 3), (None, 5)],
            "per-bound cumulative counts, +Inf last"
        );
        assert_eq!(buckets.last().unwrap().1, h.total());
        // the snapshot view agrees with the live histogram
        let snap = HistogramSnapshot {
            name: "h".into(),
            bounds: h.bounds().to_vec(),
            counts: h.counts().to_vec(),
            total: h.total(),
            sum: h.sum(),
        };
        assert_eq!(snap.cumulative_buckets(), buckets);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = Histogram::new(&[10]);
        let mut b = Histogram::new(&[10]);
        a.observe(1);
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn registry_is_deterministically_ordered() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z", 1);
        m.counter_add("a", 2);
        m.counter_add("z", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(m.counter("z"), Some(2));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn observing_unregistered_histogram_panics() {
        MetricsRegistry::new().observe("nope", 1);
    }

    #[test]
    fn recorder_charges_span_cost_and_aggregates_stages() {
        let mut r = TelemetryRecorder::new();
        span(&mut r, 1, Stage::MonitorSample);
        span(&mut r, 2, Stage::MonitorSample);
        span(&mut r, 3, Stage::Correlate);
        assert_eq!(r.instrumentation_cycles(), 3 * SPAN_COST);
        let snap = r.snapshot();
        assert_eq!(snap.stage(Stage::MonitorSample).unwrap().count, 2);
        assert_eq!(snap.stage(Stage::MonitorSample).unwrap().cycles, 6);
        assert_eq!(snap.stage(Stage::Plan), None);
        assert_eq!(snap.pipeline_cycles(), 9);
        assert_eq!(snap.trace_tail.len(), 3);
    }

    #[test]
    fn recorder_reset_clears_everything() {
        let mut r = TelemetryRecorder::new();
        span(&mut r, 1, Stage::EvidenceAppend);
        r.metrics_mut().counter_add("x", 1);
        r.reset();
        assert_eq!(r.instrumentation_cycles(), 0);
        assert!(r.ring().is_empty());
        let snap = r.snapshot();
        assert_eq!(snap.spans_recorded, 0);
        assert!(snap.counters.is_empty());
        // pre-registered histogram survives the reset
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].name, "detection_latency_cycles");
    }

    #[test]
    fn merge_is_submission_order_deterministic() {
        let mk = |cycle, counter: &str| {
            let mut r = TelemetryRecorder::new();
            span(&mut r, cycle, Stage::Classify);
            r.metrics_mut().counter_add(counter, 1);
            r.metrics_mut().gauge_set("g", cycle as f64);
            r.metrics_mut().observe("detection_latency_cycles", cycle);
            r.snapshot()
        };
        let a = mk(100, "alpha");
        let b = mk(200, "beta");

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.spans_recorded, 2);
        assert_eq!(ab.stage(Stage::Classify).unwrap().count, 2);
        assert_eq!(ab.counters.len(), 2);
        // gauge: last write (submission order) wins
        assert_eq!(ab.gauges[0].1, 200.0);
        assert_eq!(ab.histograms[0].total, 2);
        assert!(ab.trace_tail.is_empty());

        // associativity with a third snapshot: (a+b)+c == a+(b+c)
        let c = mk(300, "alpha");
        let mut left = ab.clone();
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn summary_and_stage_table_render() {
        let mut r = TelemetryRecorder::new();
        span(&mut r, 1, Stage::Respond);
        let snap = r.snapshot();
        assert!(snap.summary_line().contains("1 spans"));
        assert!(snap.stage_table().contains("respond"));
    }
}
