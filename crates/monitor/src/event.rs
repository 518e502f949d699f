//! Monitor event types and the [`ResourceMonitor`] trait.

use crate::detail::Detail;
use cres_policy::DetectionCapability;
use cres_sim::{MonitorId, SimTime, Stage, StageSink};
use cres_soc::addr::{MasterId, RegionId};
use cres_soc::task::TaskId;
use cres_soc::Soc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious an observation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Routine telemetry.
    Info,
    /// Unusual but possibly benign.
    Warning,
    /// Strong indication of malicious activity.
    Alert,
    /// Unambiguous compromise or safety hazard.
    Critical,
}

impl Severity {
    /// One band lower (`Info` stays `Info`) — the fault plane uses this to
    /// model interconnect corruption that mangles an event's urgency in
    /// transit without inventing severities out of thin air.
    pub const fn downgrade(self) -> Severity {
        match self {
            Severity::Critical => Severity::Alert,
            Severity::Alert => Severity::Warning,
            Severity::Warning | Severity::Info => Severity::Info,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What resource an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Subject {
    /// A bus master.
    Master(MasterId),
    /// A software task.
    Task(TaskId),
    /// A memory region.
    Region(RegionId),
    /// The network interface.
    Network,
    /// Physical sensor by index.
    Sensor(usize),
    /// The environmental block.
    Environment,
    /// The platform as a whole.
    Platform,
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Master(m) => write!(f, "master:{m}"),
            Subject::Task(t) => write!(f, "task:{t}"),
            Subject::Region(r) => write!(f, "{r}"),
            Subject::Network => write!(f, "network"),
            Subject::Sensor(i) => write!(f, "sensor:{i}"),
            Subject::Environment => write!(f, "environment"),
            Subject::Platform => write!(f, "platform"),
        }
    }
}

/// One observation reported to the system security manager.
///
/// `Copy` on purpose: the steady-state monitor→SSM tick must be
/// allocation-free, so events carry an interned [`MonitorId`] and a compact
/// [`Detail`] payload instead of `String`s. Text is rendered only at the
/// cold edges via [`MonitorEvent::rendered`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorEvent {
    /// When the observation was made.
    pub at: SimTime,
    /// Interned id of the reporting monitor — stamped by the platform
    /// after sampling; [`MonitorId::UNBOUND`] until then.
    pub monitor: MonitorId,
    /// The detection capability that produced it.
    pub capability: DetectionCapability,
    /// Severity band.
    pub severity: Severity,
    /// The resource concerned.
    pub subject: Subject,
    /// Compact detail payload, rendered lazily.
    pub detail: Detail,
    /// Set by the fault plane when the event was mangled in transit; the
    /// rendered detail line gains a `[corrupted in transit]` prefix.
    pub corrupted: bool,
}

impl MonitorEvent {
    /// Convenience constructor. The producing monitor is stamped later by
    /// the platform (monitors don't know their own interned id).
    pub fn new(
        at: SimTime,
        capability: DetectionCapability,
        severity: Severity,
        subject: Subject,
        detail: Detail,
    ) -> Self {
        MonitorEvent {
            at,
            monitor: MonitorId::UNBOUND,
            capability,
            severity,
            subject,
            detail,
            corrupted: false,
        }
    }

    /// The lazily rendered detail line, including the corruption prefix
    /// when the fault plane mangled the event. Byte-identical to the
    /// eagerly formatted `detail` string this type used to carry.
    #[inline]
    pub fn rendered(&self) -> RenderedDetail<'_> {
        RenderedDetail { event: self }
    }
}

/// Display adapter for an event's detail line (see
/// [`MonitorEvent::rendered`]).
#[derive(Debug, Clone, Copy)]
pub struct RenderedDetail<'a> {
    event: &'a MonitorEvent,
}

impl fmt::Display for RenderedDetail<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.event.corrupted {
            f.write_str("[corrupted in transit] ")?;
        }
        self.event.detail.fmt(f)
    }
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} {} — {}",
            self.at,
            self.severity,
            self.capability,
            self.subject,
            self.rendered()
        )
    }
}

/// An active runtime resource monitor.
///
/// Monitors are driven periodically by the platform: sampling inspects the
/// SoC (mutably — sampling a sensor consumes its noise stream, polling the
/// bus tap advances a cursor) and reports any new observations.
pub trait ResourceMonitor {
    /// Stable monitor name (interned at wiring time, appears in forensic
    /// records).
    fn name(&self) -> &'static str;

    /// The Table-I detection capability this monitor realises.
    fn capability(&self) -> DetectionCapability;

    /// Inspects the SoC and appends new observations to `out`.
    ///
    /// Taking the buffer instead of returning a `Vec` lets the platform
    /// reuse one allocation across every monitor and every tick — the
    /// steady-state sampling pass performs no heap allocation at all.
    fn sample_into(&mut self, soc: &mut Soc, now: SimTime, out: &mut Vec<MonitorEvent>);

    /// Allocating convenience around [`ResourceMonitor::sample_into`] for
    /// tests and one-shot callers.
    fn sample(&mut self, soc: &mut Soc, now: SimTime) -> Vec<MonitorEvent> {
        let mut out = Vec::new();
        self.sample_into(soc, now, &mut out);
        out
    }

    /// Approximate cost of one sample in bus cycles — used by the
    /// monitoring-overhead experiment (E8). Default: 2 cycles.
    fn sample_cost(&self) -> u64 {
        2
    }

    /// [`ResourceMonitor::sample_into`] with telemetry: records one
    /// `monitor-sample` span (arg = events produced, cycles =
    /// [`ResourceMonitor::sample_cost`]) plus one `event-emit` span per
    /// event (arg = severity rank). Pass [`cres_sim::NullSink`], or a
    /// `None` recorder as the platform does with telemetry disabled, to
    /// trace nothing.
    fn sample_into_traced(
        &mut self,
        soc: &mut Soc,
        now: SimTime,
        out: &mut Vec<MonitorEvent>,
        sink: &mut dyn StageSink,
    ) {
        let start = out.len();
        self.sample_into(soc, now, out);
        sink.record_span(
            now,
            Stage::MonitorSample,
            (out.len() - start) as u32,
            self.sample_cost(),
        );
        for event in &out[start..] {
            sink.record_span(event.at, Stage::EventEmit, event.severity as u32, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Critical > Severity::Alert);
        assert!(Severity::Alert > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn severity_downgrade_steps_one_band_and_floors_at_info() {
        assert_eq!(Severity::Critical.downgrade(), Severity::Alert);
        assert_eq!(Severity::Alert.downgrade(), Severity::Warning);
        assert_eq!(Severity::Warning.downgrade(), Severity::Info);
        assert_eq!(Severity::Info.downgrade(), Severity::Info);
    }

    #[test]
    fn event_display_is_informative() {
        let e = MonitorEvent::new(
            SimTime::at_cycle(42),
            DetectionCapability::BusPolicing,
            Severity::Alert,
            Subject::Master(MasterId::DMA),
            Detail::Text("out-of-policy read"),
        );
        let s = e.to_string();
        assert!(s.contains("@42"));
        assert!(s.contains("Alert"));
        assert!(s.contains("DMA"));
        assert!(s.contains("out-of-policy read"));
    }

    #[test]
    fn corrupted_events_render_with_prefix() {
        let mut e = MonitorEvent::new(
            SimTime::at_cycle(1),
            DetectionCapability::BusPolicing,
            Severity::Alert,
            Subject::Platform,
            Detail::Text("original line"),
        );
        assert_eq!(e.rendered().to_string(), "original line");
        e.corrupted = true;
        assert_eq!(
            e.rendered().to_string(),
            "[corrupted in transit] original line"
        );
    }

    #[test]
    fn events_are_copy_and_default_unbound() {
        let e = MonitorEvent::new(
            SimTime::ZERO,
            DetectionCapability::BusPolicing,
            Severity::Info,
            Subject::Platform,
            Detail::StuckAt,
        );
        let f = e; // Copy
        assert_eq!(e, f);
        assert!(!e.monitor.is_bound());
    }

    #[test]
    fn subject_display_variants() {
        assert_eq!(Subject::Network.to_string(), "network");
        assert_eq!(Subject::Sensor(3).to_string(), "sensor:3");
        assert_eq!(Subject::Platform.to_string(), "platform");
        assert_eq!(Subject::Task(TaskId(1)).to_string(), "task:task#1");
    }
}
