//! Chrome `trace_event` export (Perfetto / `chrome://tracing`).
//!
//! Mapping: every device is a *process* (`pid` = device id + 1, so the
//! tooling never sees pid 0), every pipeline [`Stage`] a named *thread
//! track* (`tid` = stage index + 1), and every trace span a complete
//! `"ph":"X"` duration event at 1 sim cycle = 1 µs. Fault-plane and
//! policy spans keep their decoded event names so a correlation stall or
//! a tier raise reads directly off the track.
//!
//! Spans on one track never overlap: a per-track cursor pushes an event
//! that starts before the previous one ended to the first free
//! microsecond — trace viewers render overlapping same-track events as
//! garbage, and the proptests pin the invariant.

use crate::capture::ObsCapture;
use crate::log::{fault_name, policy_name};
use cres_platform::json::{push_u64, write_string};
use cres_sim::Stage;
use std::fmt::Write as _;

/// One rendered `"ph":"X"` duration event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Track process (device id + 1).
    pub pid: u32,
    /// Track thread (stage index + 1).
    pub tid: u32,
    /// Event start, µs (== sim cycle unless nudged by the track cursor).
    pub ts: u64,
    /// Event duration, µs (≥ 1).
    pub dur: u64,
    /// Event name (stage name, or decoded fault/policy event).
    pub name: &'static str,
    /// Event category: `pipeline`, `fault` or `policy`.
    pub cat: &'static str,
    /// The span's raw argument.
    pub arg: u32,
    /// The span's original sim cycle (before any cursor nudge).
    pub cycle: u64,
}

/// Lowers captures to duration events, applying the per-track
/// non-overlap cursor. Deterministic: device order, then ring order.
pub fn chrome_events(captures: &[ObsCapture]) -> Vec<ChromeEvent> {
    let mut events = Vec::with_capacity(captures.iter().map(|c| c.spans.len()).sum());
    for capture in captures {
        let mut cursors = [0u64; Stage::COUNT];
        for span in &capture.spans {
            let index = span.stage.index();
            let ts = span.at.cycle().max(cursors[index]);
            let dur = span.cycles.max(1);
            cursors[index] = ts + dur;
            let (name, cat) = match span.stage {
                Stage::FaultPlane => (fault_name(span.arg), "fault"),
                Stage::Policy => (policy_name(span.arg), "policy"),
                stage => (stage.name(), "pipeline"),
            };
            events.push(ChromeEvent {
                pid: capture.device + 1,
                tid: index as u32 + 1,
                ts,
                dur,
                name,
                cat,
                arg: span.arg,
                cycle: span.at.cycle(),
            });
        }
    }
    events
}

/// Renders captures as a complete Chrome trace JSON document: metadata
/// (process and thread names) first, then every duration event.
pub fn chrome_trace(captures: &[ObsCapture]) -> String {
    let events = chrome_events(captures);
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    // single output buffer, no per-event allocation: the export plane is
    // off the hot path but still budgeted (<5% of run wall, pinned by
    // `e16_observe`)
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for capture in captures {
        let pid = capture.device + 1;
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":"
        );
        write_string(
            &mut out,
            &format!("device-{} ({})", capture.device, capture.report.profile),
        );
        out.push_str("}}");
        // name every track the device actually used, stage order
        let mut used = [false; Stage::COUNT];
        for span in &capture.spans {
            used[span.stage.index()] = true;
        }
        for stage in Stage::ALL {
            if !used[stage.index()] {
                continue;
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                stage.index() + 1,
                stage.name()
            );
        }
    }
    for e in &events {
        sep(&mut out);
        out.push_str("{\"name\":\"");
        out.push_str(e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat);
        out.push_str("\",\"ph\":\"X\",\"pid\":");
        push_u64(&mut out, u64::from(e.pid));
        out.push_str(",\"tid\":");
        push_u64(&mut out, u64::from(e.tid));
        out.push_str(",\"ts\":");
        push_u64(&mut out, e.ts);
        out.push_str(",\"dur\":");
        push_u64(&mut out, e.dur);
        out.push_str(",\"args\":{\"arg\":");
        push_u64(&mut out, u64::from(e.arg));
        // the original sim cycle is only worth a byte budget when the
        // non-overlap cursor actually nudged the event off it
        if e.cycle != e.ts {
            out.push_str(",\"cycle\":");
            push_u64(&mut out, e.cycle);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_platform::runner::{Scenario, ScenarioRunner};
    use cres_platform::{PlatformConfig, PlatformProfile};
    use cres_sim::SimDuration;

    fn capture() -> ObsCapture {
        let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, 42);
        config.telemetry.enabled = true;
        let (report, platform) =
            ScenarioRunner::new(config).run_keep(Scenario::quiet(SimDuration::cycles(120_000)));
        ObsCapture::from_run(0, report, &platform)
    }

    #[test]
    fn tracks_never_overlap_and_names_resolve() {
        let cap = capture();
        assert!(!cap.spans.is_empty(), "quiet run recorded no spans");
        let events = chrome_events(std::slice::from_ref(&cap));
        let mut cursors = std::collections::BTreeMap::new();
        for e in &events {
            let cursor = cursors.entry((e.pid, e.tid)).or_insert(0u64);
            assert!(e.ts >= *cursor, "overlap on track {:?}", (e.pid, e.tid));
            assert!(e.dur >= 1);
            *cursor = e.ts + e.dur;
            assert_ne!(e.name, "unknown");
        }
        let text = chrome_trace(std::slice::from_ref(&cap));
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"monitor-sample\""));
    }
}
