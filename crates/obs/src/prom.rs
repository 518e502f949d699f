//! Prometheus text-format exposition.
//!
//! Renders a frozen [`TelemetrySnapshot`] — counters, gauges and
//! histograms from the metrics registry plus the trace-ring and
//! per-stage aggregates — in the Prometheus text exposition format, and
//! a [`FleetVerdict`] as fleet-level aggregates. Histograms use
//! cumulative-bucket semantics ([`HistogramSnapshot::cumulative_buckets`][cres_platform::telemetry::HistogramSnapshot::cumulative_buckets]):
//! each `_bucket{le="N"}` counts observations ≤ N, the `+Inf` bucket
//! equals `_count`, and `_sum` carries the observation sum.
//!
//! Output is canonical bytes: fixed section order, registry name order
//! (already sorted), shortest-round-trip float formatting — so two runs
//! of the same seed diff empty, which is exactly how CI consumes it.

use cres_fleet::{FleetIncident, FleetVerdict};
use cres_platform::telemetry::TelemetrySnapshot;
use std::fmt::Write as _;

/// Sanitizes a registry metric name for Prometheus: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit is prefixed.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one device run's telemetry snapshot as a Prometheus text
/// exposition (the `cres_` namespace).
pub fn prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(1024);

    // trace-ring accounting
    type_line(&mut out, "cres_trace_spans_recorded_total", "counter");
    let _ = writeln!(
        out,
        "cres_trace_spans_recorded_total {}",
        snapshot.spans_recorded
    );
    type_line(&mut out, "cres_trace_spans_dropped_total", "counter");
    let _ = writeln!(
        out,
        "cres_trace_spans_dropped_total {}",
        snapshot.spans_dropped
    );
    type_line(&mut out, "cres_instrumentation_cycles_total", "counter");
    let _ = writeln!(
        out,
        "cres_instrumentation_cycles_total {}",
        snapshot.instrumentation_cycles
    );

    // per-stage aggregates (pipeline order, zero-count stages omitted —
    // matching the snapshot itself)
    if !snapshot.stages.is_empty() {
        type_line(&mut out, "cres_stage_spans_total", "counter");
        for stage in &snapshot.stages {
            let _ = writeln!(
                out,
                "cres_stage_spans_total{{stage=\"{}\"}} {}",
                stage.stage.name(),
                stage.count
            );
        }
        type_line(&mut out, "cres_stage_cycles_total", "counter");
        for stage in &snapshot.stages {
            let _ = writeln!(
                out,
                "cres_stage_cycles_total{{stage=\"{}\"}} {}",
                stage.stage.name(),
                stage.cycles
            );
        }
    }

    // registry counters / gauges / histograms, name order
    for (name, value) in &snapshot.counters {
        let name = format!("cres_{}_total", sanitize(name));
        type_line(&mut out, &name, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = format!("cres_{}", sanitize(name));
        type_line(&mut out, &name, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for histogram in &snapshot.histograms {
        let name = format!("cres_{}", sanitize(&histogram.name));
        type_line(&mut out, &name, "histogram");
        for (bound, cumulative) in histogram.cumulative_buckets() {
            let le = match bound {
                Some(bound) => bound.to_string(),
                None => "+Inf".into(),
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", histogram.sum);
        let _ = writeln!(out, "{name}_count {}", histogram.total);
    }
    out
}

/// Renders a fleet observation as Prometheus fleet aggregates.
///
/// Everything emitted is a pure function of the fleet config — devices,
/// detection outcomes, quarantines, incidents by kind, availability,
/// evidence leaves — so the bytes are identical across worker counts.
/// Schedule-dependent accounting (pool hit rate, throughput) is
/// deliberately excluded from this artifact.
pub fn fleet_prometheus(verdict: &FleetVerdict) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in [
        ("cres_fleet_devices", u64::from(verdict.devices)),
        ("cres_fleet_attacked", u64::from(verdict.attacked)),
        ("cres_fleet_detected", u64::from(verdict.detected)),
        ("cres_fleet_missed", u64::from(verdict.missed)),
        ("cres_fleet_attacker_wins", verdict.attacker_wins),
        ("cres_fleet_quarantined", u64::from(verdict.quarantined)),
        ("cres_fleet_evidence_leaves", verdict.evidence_leaves),
    ] {
        type_line(&mut out, name, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    type_line(&mut out, "cres_fleet_availability", "gauge");
    let _ = writeln!(
        out,
        "cres_fleet_availability{{kind=\"mean\"}} {}",
        verdict.mean_availability
    );
    let _ = writeln!(
        out,
        "cres_fleet_availability{{kind=\"min\"}} {}",
        verdict.min_availability
    );
    let campaigns = verdict
        .incidents
        .iter()
        .filter(|i| matches!(i, FleetIncident::CoordinatedCampaign { .. }))
        .count();
    type_line(&mut out, "cres_fleet_incidents", "gauge");
    let _ = writeln!(
        out,
        "cres_fleet_incidents{{kind=\"coordinated-campaign\"}} {campaigns}"
    );
    let _ = writeln!(
        out,
        "cres_fleet_incidents{{kind=\"lateral-movement\"}} {}",
        verdict.incidents.len() - campaigns
    );
    type_line(&mut out, "cres_fleet_health_devices", "gauge");
    for (state, count) in &verdict.health {
        let _ = writeln!(
            out,
            "cres_fleet_health_devices{{state=\"{state}\"}} {count}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_replaces_and_guards() {
        assert_eq!(
            sanitize("incidents.CodeInjection"),
            "incidents_CodeInjection"
        );
        assert_eq!(sanitize("faultplane.events_lost"), "faultplane_events_lost");
        assert_eq!(sanitize("0weird name"), "_0weird_name");
    }
}
