//! Pipeline-stage vocabulary for cycle-accurate telemetry.
//!
//! The platform's resilience pipeline — monitor sampling → event emission →
//! correlation → incident classification → response planning → response
//! execution → evidence append — is instrumented with *spans*: one record
//! per unit of pipeline work, stamped with the sim cycle clock. This module
//! defines the vocabulary every instrumented crate shares:
//!
//! * [`Stage`] — the pipeline stage IDs (including the fault-plane
//!   meta-stage for faults injected into the pipeline itself),
//! * [`StageSink`] — the receiver instrumented code reports spans to,
//! * [`NullSink`] — the zero-cost sink that discards every span,
//! * `Option<S>` — a sink that records into `S` only when present, so an
//!   optional recorder (`None` when telemetry is disabled) is itself the
//!   sink.
//!
//! The concrete recorder (trace ring buffer + metrics registry) lives in
//! `cres_platform::telemetry`; this crate only hosts the vocabulary so the
//! monitor, SSM and response crates can report spans without depending on
//! the platform assembly crate.

use crate::time::SimTime;

/// A pipeline stage a span can belong to.
///
/// Every span carries one stage ID; per-stage aggregation (count and cycle
/// cost) is the backbone of the telemetry report.
///
/// # Example
///
/// ```
/// use cres_sim::Stage;
/// assert_eq!(Stage::ALL.len(), Stage::COUNT);
/// assert_eq!(Stage::Correlate.name(), "correlate");
/// assert_eq!(Stage::from_name("respond"), Some(Stage::Respond));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// One resource monitor inspecting its resource (span arg: events
    /// produced by this sample).
    MonitorSample,
    /// One monitor event handed to the SSM (span arg: severity rank).
    EventEmit,
    /// The correlation engine consuming one event (span arg: 1 when the
    /// event classified an incident, else 0).
    Correlate,
    /// One incident classified (span arg: incident id, truncated to u32).
    Classify,
    /// One non-empty response plan produced (span arg: action count).
    Plan,
    /// One countermeasure executed (span arg: 1 on success, else 0).
    Respond,
    /// One record folded into the evidence hash chain (span arg: chain
    /// sequence number, truncated to u32).
    EvidenceAppend,
    /// One fault injected into the pipeline itself, or one recovery step
    /// taken against it — event loss/delay/reorder/corruption, monitor
    /// stall/crash, response drop, delivery retry, degraded-mode transition
    /// (span arg: a `cres_platform::faultplane` fault code).
    FaultPlane,
    /// One decision taken by the stateful response policy engine — a
    /// degradation-tier transition, a circuit-breaker state change, or a
    /// countermeasure suppressed behind an open breaker (span arg: a
    /// [`policy_code`] constant).
    Policy,
}

impl Stage {
    /// Number of stages (sizing for per-stage accumulator arrays).
    pub const COUNT: usize = 9;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::MonitorSample,
        Stage::EventEmit,
        Stage::Correlate,
        Stage::Classify,
        Stage::Plan,
        Stage::Respond,
        Stage::EvidenceAppend,
        Stage::FaultPlane,
        Stage::Policy,
    ];

    /// Dense index of this stage in [`Stage::ALL`] order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (used in the telemetry JSON schema).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::MonitorSample => "monitor-sample",
            Stage::EventEmit => "event-emit",
            Stage::Correlate => "correlate",
            Stage::Classify => "classify",
            Stage::Plan => "plan",
            Stage::Respond => "respond",
            Stage::EvidenceAppend => "evidence-append",
            Stage::FaultPlane => "fault-plane",
            Stage::Policy => "policy",
        }
    }

    /// Resolves a name produced by [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Span `arg` codes for [`Stage::FaultPlane`] spans — the shared vocabulary
/// for "what kind of fault (or recovery step) was this". Defined here so the
/// SSM can report quarantine/degradation spans without depending on the
/// platform crate that hosts the injector.
pub mod fault_code {
    /// A monitor event was dropped in transit (all delivery retries spent).
    pub const EVENT_LOST: u32 = 1;
    /// A monitor event was held back and delivered in a later batch.
    pub const EVENT_DELAYED: u32 = 2;
    /// Two adjacent events swapped places in a batch.
    pub const EVENT_REORDERED: u32 = 3;
    /// An event's severity/detail were mangled in transit.
    pub const EVENT_CORRUPTED: u32 = 4;
    /// A monitor skipped one sampling round.
    pub const MONITOR_STALLED: u32 = 5;
    /// A monitor died permanently at its crash cycle.
    pub const MONITOR_CRASHED: u32 = 6;
    /// A response command was dropped before reaching the backend.
    pub const RESPONSE_DROPPED: u32 = 7;
    /// A delivery retry (event or response) was spent.
    pub const DELIVERY_RETRY: u32 = 8;
    /// A delivery initially faulted but a retry got it through.
    pub const DELIVERY_RECOVERED: u32 = 9;
    /// The SSM quarantined a dead monitor.
    pub const MONITOR_QUARANTINED: u32 = 10;
    /// The correlation engine entered sensing-degraded compensation.
    pub const SENSING_DEGRADED: u32 = 11;
}

/// Span `arg` codes for [`Stage::Policy`] spans — the shared vocabulary for
/// "what did the response policy engine decide". Defined here (like
/// [`fault_code`]) so the response crate can report policy spans without
/// depending on the platform crate that hosts the recorder.
pub mod policy_code {
    /// The degradation tier was raised one step (posture tightened).
    pub const TIER_RAISED: u32 = 1;
    /// The degradation tier was lowered one step (service restored).
    pub const TIER_LOWERED: u32 = 2;
    /// A per-resource circuit breaker tripped closed → open.
    pub const BREAKER_OPENED: u32 = 3;
    /// An open breaker's cooldown expired; it is probing (open → half-open).
    pub const BREAKER_HALF_OPEN: u32 = 4;
    /// A half-open breaker saw a clean probe window and reset to closed.
    pub const BREAKER_CLOSED: u32 = 5;
    /// A global countermeasure was suppressed behind an open breaker.
    pub const ACTION_SUPPRESSED: u32 = 6;
}

/// The receiver instrumented pipeline code reports spans to.
///
/// Implementations decide what a span costs and where it goes; the
/// instrumented crates only describe the work. `cycles` is the *modelled*
/// cost of the pipeline work itself (e.g. a monitor's `sample_cost()`), not
/// the cost of recording — recording cost is the implementation's business.
pub trait StageSink {
    /// Records one span of pipeline work observed at `at`.
    fn record_span(&mut self, at: SimTime, stage: Stage, arg: u32, cycles: u64);
}

/// A sink that discards everything — the disabled-telemetry path.
///
/// # Example
///
/// ```
/// use cres_sim::{NullSink, Stage, StageSink, SimTime};
/// let mut sink = NullSink;
/// sink.record_span(SimTime::ZERO, Stage::Plan, 2, 3); // no-op
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl StageSink for NullSink {
    #[inline]
    fn record_span(&mut self, _at: SimTime, _stage: Stage, _arg: u32, _cycles: u64) {}
}

/// An optional recorder is a sink: `Some` records, `None` discards.
impl<S: StageSink> StageSink for Option<S> {
    #[inline]
    fn record_span(&mut self, at: SimTime, stage: Stage, arg: u32, cycles: u64) {
        if let Some(sink) = self {
            sink.record_span(at, stage, arg, cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
        }
        assert_eq!(Stage::from_name("not-a-stage"), None);
    }

    #[test]
    fn null_sink_accepts_spans() {
        let mut sink = NullSink;
        for stage in Stage::ALL {
            sink.record_span(SimTime::at_cycle(1), stage, 0, 1);
        }
    }
}
