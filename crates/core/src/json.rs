//! The workspace's JSON encoder: [`RunReport::to_json`] and the one
//! JSON string writer.
//!
//! The workspace's `serde` is an offline marker shim (see
//! `crates/shim-serde`), so real serialization lives here: a small writer
//! covering exactly the report schema. Reports are write-only — every
//! reader of an exported report compares, scans or hashes its bytes — so
//! there is no decoder; the committed goldens under `tests/fixtures/` pin
//! the encoder's output byte for byte. Integers are written exactly (no
//! `f64` detour for `u64` fields) and floats with Rust's shortest
//! round-trip formatting.
//!
//! [`write_string`] and [`push_u64`] are public so every other JSON
//! artifact (the `cres-obs` exporters, the experiment report files)
//! escapes strings and renders integers through the same code.

use crate::faultplane::FaultPlaneStats;
use crate::metrics::{AttackOutcomeReport, RunReport};
use crate::telemetry::TelemetrySnapshot;
use cres_response::AvailabilityReport;
use std::fmt::Write as _;

// ---------------------------------------------------------------- writer

/// Appends `s` to `out` as a quoted JSON string literal. `"` and `\`
/// are backslash-escaped, newline, tab and carriage return use their
/// short escapes, every other control character below U+0020 becomes
/// `\u00XX`, and everything else is copied through unchanged.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` in decimal without going through `fmt` — the exporters
/// render tens of thousands of integers per artifact, and the fmt
/// machinery's per-argument overhead is the difference between an export
/// that costs <1% of the run wall and one that costs 10% (`e16_observe`
/// pins the budget).
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// `f64` with Rust's shortest round-trip formatting, made self-describing:
/// integral values gain a `.0` so the reader can tell floats from ints.
fn write_f64(out: &mut String, v: f64) {
    let text = format!("{v}");
    out.push_str(&text);
    if !text.contains(['.', 'e', 'E', 'n', 'i']) {
        out.push_str(".0");
    }
}

// [`AvailabilityReport`] is foreign to this crate (it lives in
// `cres-response`), so its encoder is a free function rather than an
// inherent method.
fn write_availability(out: &mut String, report: &AvailabilityReport) {
    let _ = write!(
        out,
        "{{\"critical_offered\":{},\"critical_delivered\":{},\"noncritical_offered\":{},\
         \"noncritical_delivered\":{},\"tier_raises\":{},\"tier_lowers\":{},\
         \"final_tier\":\"{}\",\"peak_tier\":\"{}\",\"time_in_tier\":[{},{},{},{}],\
         \"breaker_trips\":{},\"breaker_resets\":{},\"actions_suppressed\":{}}}",
        report.critical_offered,
        report.critical_delivered,
        report.noncritical_offered,
        report.noncritical_delivered,
        report.tier_raises,
        report.tier_lowers,
        report.final_tier.name(),
        report.peak_tier.name(),
        report.time_in_tier[0],
        report.time_in_tier[1],
        report.time_in_tier[2],
        report.time_in_tier[3],
        report.breaker_trips,
        report.breaker_resets,
        report.actions_suppressed
    );
}

// ------------------------------------------------------------- encoding

impl AttackOutcomeReport {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_string(out, &self.name);
        let _ = write!(out, ",\"kind\":\"{}\"", self.kind);
        match self.first_injection {
            Some(t) => {
                let _ = write!(out, ",\"first_injection\":{}", t.cycle());
            }
            None => out.push_str(",\"first_injection\":null"),
        }
        match self.detected_at {
            Some(t) => {
                let _ = write!(out, ",\"detected_at\":{}", t.cycle());
            }
            None => out.push_str(",\"detected_at\":null"),
        }
        match self.detection_latency {
            Some(l) => {
                let _ = write!(out, ",\"detection_latency\":{l}");
            }
            None => out.push_str(",\"detection_latency\":null"),
        }
        let _ = write!(
            out,
            ",\"matching_incidents\":{},\"steps_achieved\":{},\"steps_executed\":{}}}",
            self.matching_incidents, self.steps_achieved, self.steps_executed
        );
    }
}

impl TelemetrySnapshot {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"spans_recorded\":{},\"spans_dropped\":{},\"ring_capacity\":{},\
             \"ring_occupancy\":{},\"span_cost\":{},\"instrumentation_cycles\":{}",
            self.spans_recorded,
            self.spans_dropped,
            self.ring_capacity,
            self.ring_occupancy,
            self.span_cost,
            self.instrumentation_cycles
        );
        out.push_str(",\"stages\":[");
        for (index, stage) in self.stages.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"count\":{},\"cycles\":{}}}",
                stage.stage.name(),
                stage.count,
                stage.cycles
            );
        }
        out.push_str("],\"counters\":{");
        for (index, (name, value)) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            write_string(out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (index, (name, value)) in self.gauges.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            write_string(out, name);
            out.push(':');
            write_f64(out, *value);
        }
        out.push_str("},\"histograms\":[");
        for (index, hist) in self.histograms.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(out, &hist.name);
            out.push_str(",\"bounds\":[");
            for (i, b) in hist.bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (i, c) in hist.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"total\":{},\"sum\":{}}}", hist.total, hist.sum);
        }
        out.push_str("],\"trace_tail\":[");
        for (index, span) in self.trace_tail.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at\":{},\"stage\":\"{}\",\"arg\":{},\"cycles\":{}}}",
                span.at.cycle(),
                span.stage.name(),
                span.arg,
                span.cycles
            );
        }
        out.push_str("]}");
    }
}

impl FaultPlaneStats {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"events_lost\":{},\"events_delayed\":{},\"events_reordered\":{},\
             \"events_corrupted\":{},\"delivery_retries\":{},\"recovered_deliveries\":{},\
             \"backoff_cycles\":{},\"monitor_stalls\":{},\"monitors_crashed\":{},\
             \"monitors_quarantined\":{},\"response_drops\":{},\"response_retries\":{},\
             \"degraded_correlation\":{}}}",
            self.events_lost,
            self.events_delayed,
            self.events_reordered,
            self.events_corrupted,
            self.delivery_retries,
            self.recovered_deliveries,
            self.backoff_cycles,
            self.monitor_stalls,
            self.monitors_crashed,
            self.monitors_quarantined,
            self.response_drops,
            self.response_retries,
            self.degraded_correlation
        );
    }
}

impl RunReport {
    /// Encodes the report as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"profile\":\"{}\",\"seed\":{},\"duration_cycles\":{},\"boot_ok\":{}",
            self.profile, self.seed, self.duration_cycles, self.boot_ok
        );
        out.push_str(",\"attacks\":[");
        for (index, attack) in self.attacks.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            attack.write_json(&mut out);
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"total_events\":{},\"total_incidents\":{}",
            self.total_events, self.total_incidents
        );
        out.push_str(",\"availability\":");
        write_f64(&mut out, self.availability);
        let _ = write!(
            out,
            ",\"final_health\":\"{}\",\"critical_steps\":{},\"evidence_len\":{},\
             \"evidence_chain_ok\":{},\"evidence_seals\":{}",
            self.final_health,
            self.critical_steps,
            self.evidence_len,
            self.evidence_chain_ok,
            self.evidence_seals
        );
        out.push_str(",\"evidence_coverage\":");
        write_f64(&mut out, self.evidence_coverage);
        let _ = write!(
            out,
            ",\"console_lines\":{},\"monitor_overhead_cycles\":{},\"reboots\":{},\
             \"attacker_wins\":{}",
            self.console_lines, self.monitor_overhead_cycles, self.reboots, self.attacker_wins
        );
        out.push_str(",\"faultplane\":");
        match &self.faultplane {
            Some(stats) => stats.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"telemetry\":");
        match &self.telemetry {
            Some(snapshot) => snapshot.write_json(&mut out),
            None => out.push_str("null"),
        }
        // emitted only when present so policy-off reports stay
        // byte-identical to the pre-policy schema (and its goldens)
        if let Some(detail) = &self.availability_detail {
            out.push_str(",\"availability_detail\":");
            write_availability(&mut out, detail);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformProfile;
    use crate::telemetry::TelemetryRecorder;
    use cres_attacks::AttackKind;
    use cres_sim::{SimTime, Stage, StageSink};
    use cres_ssm::{DegradationTier, HealthState};
    use proptest::prelude::*;

    fn sample_telemetry() -> TelemetrySnapshot {
        let mut recorder = TelemetryRecorder::new();
        recorder.record_span(SimTime::at_cycle(100), Stage::MonitorSample, 2, 4);
        recorder.record_span(SimTime::at_cycle(100), Stage::EventEmit, 3, 1);
        recorder.record_span(SimTime::at_cycle(105), Stage::Respond, 1, 12);
        recorder.metrics_mut().counter_add("incidents.DmaExfil", 3);
        recorder.metrics_mut().gauge_set("evidence_chain_len", 99.0);
        recorder
            .metrics_mut()
            .observe("detection_latency_cycles", 1_500);
        recorder.snapshot()
    }

    fn sample_report() -> RunReport {
        RunReport {
            profile: PlatformProfile::TeeShared,
            seed: u64::MAX - 7, // would be lossy through an f64 detour
            duration_cycles: 1_000_000,
            boot_ok: true,
            attacks: vec![
                AttackOutcomeReport {
                    name: "dma-exfil \"quoted\"\nline".into(),
                    kind: AttackKind::DmaExfil,
                    first_injection: Some(SimTime::at_cycle(200_000)),
                    detected_at: Some(SimTime::at_cycle(201_500)),
                    detection_latency: Some(1_500),
                    matching_incidents: 3,
                    steps_achieved: 1,
                    steps_executed: 9,
                },
                AttackOutcomeReport {
                    name: "log-wipe".into(),
                    kind: AttackKind::LogWipe,
                    first_injection: None,
                    detected_at: None,
                    detection_latency: None,
                    matching_incidents: 0,
                    steps_achieved: 0,
                    steps_executed: 0,
                },
            ],
            total_events: 421,
            total_incidents: 17,
            availability: 0.987_654_321,
            final_health: HealthState::Recovering,
            critical_steps: 1_234,
            evidence_len: 99,
            evidence_chain_ok: false,
            evidence_seals: 4,
            evidence_coverage: 1.0,
            console_lines: 56,
            monitor_overhead_cycles: 31_337,
            reboots: 2,
            attacker_wins: 1,
            telemetry: Some(sample_telemetry()),
            availability_detail: Some(AvailabilityReport {
                critical_offered: 400,
                critical_delivered: 398,
                noncritical_offered: 800,
                noncritical_delivered: 512,
                tier_raises: 3,
                tier_lowers: 2,
                final_tier: DegradationTier::ShedNonCritical,
                peak_tier: DegradationTier::CriticalOnly,
                time_in_tier: [700_000, 200_000, 100_000, 0],
                breaker_trips: 2,
                breaker_resets: 1,
                actions_suppressed: 4,
            }),
            faultplane: Some(FaultPlaneStats {
                events_lost: 12,
                events_delayed: 7,
                events_reordered: 3,
                events_corrupted: 2,
                delivery_retries: 31,
                recovered_deliveries: 19,
                backoff_cycles: 4_096,
                monitor_stalls: 5,
                monitors_crashed: 1,
                monitors_quarantined: 1,
                response_drops: 2,
                response_retries: 6,
                degraded_correlation: true,
            }),
        }
    }

    /// [`sample_report`] as the encoder writes it: every field, a `u64`
    /// beyond `f64` precision, `\"` and `\n` escapes, nulls, `.0` on a
    /// whole float and the optional availability block.
    const SAMPLE_REPORT_JSON: &str = concat!(
        r#"{"profile":"TeeShared","seed":18446744073709551608,"duration_cycles":1000000,"boot_ok":true"#,
        r#","attacks":[{"name":"dma-exfil \"quoted\"\nline","kind":"DmaExfil","first_injection":200000,"detected_at":201500,"detection_latency":1500,"matching_incidents":3,"steps_achieved":1,"steps_executed":9}"#,
        r#",{"name":"log-wipe","kind":"LogWipe","first_injection":null,"detected_at":null,"detection_latency":null,"matching_incidents":0,"steps_achieved":0,"steps_executed":0}]"#,
        r#","total_events":421,"total_incidents":17,"availability":0.987654321,"final_health":"Recovering","critical_steps":1234,"evidence_len":99,"evidence_chain_ok":false,"evidence_seals":4,"evidence_coverage":1.0"#,
        r#","console_lines":56,"monitor_overhead_cycles":31337,"reboots":2,"attacker_wins":1"#,
        r#","faultplane":{"events_lost":12,"events_delayed":7,"events_reordered":3,"events_corrupted":2,"delivery_retries":31,"recovered_deliveries":19,"backoff_cycles":4096,"monitor_stalls":5,"monitors_crashed":1,"monitors_quarantined":1,"response_drops":2,"response_retries":6,"degraded_correlation":true}"#,
        r#","telemetry":{"spans_recorded":3,"spans_dropped":0,"ring_capacity":4096,"ring_occupancy":3,"span_cost":2,"instrumentation_cycles":6"#,
        r#","stages":[{"stage":"monitor-sample","count":1,"cycles":4},{"stage":"event-emit","count":1,"cycles":1},{"stage":"respond","count":1,"cycles":12}]"#,
        r#","counters":{"incidents.DmaExfil":3},"gauges":{"evidence_chain_len":99.0}"#,
        r#","histograms":[{"name":"detection_latency_cycles","bounds":[1000,2000,5000,10000,20000,50000,100000,500000],"counts":[0,1,0,0,0,0,0,0,0],"total":1,"sum":1500}]"#,
        r#","trace_tail":[{"at":100,"stage":"monitor-sample","arg":2,"cycles":4},{"at":100,"stage":"event-emit","arg":3,"cycles":1},{"at":105,"stage":"respond","arg":1,"cycles":12}]}"#,
        r#","availability_detail":{"critical_offered":400,"critical_delivered":398,"noncritical_offered":800,"noncritical_delivered":512,"tier_raises":3,"tier_lowers":2,"final_tier":"shed-non-critical","peak_tier":"critical-only","time_in_tier":[700000,200000,100000,0],"breaker_trips":2,"breaker_resets":1,"actions_suppressed":4}}"#,
    );

    /// Reads back one [`write_string`] literal, undoing exactly the escapes
    /// it emits (`\"`, `\\`, `\n`, `\t`, `\r`, `\u00XX`) and rejecting
    /// anything else, so a writer that leaves a quote, backslash or control
    /// character raw, or invents an escape, fails the comparison.
    fn unescape(literal: &str) -> String {
        let body = literal
            .strip_prefix('"')
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("a quoted literal");
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next().expect("an escape after a backslash") {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        assert_eq!(hex.len(), 4, "truncated \\u escape");
                        let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                        assert!(code < 0x20, "\\u{hex} escapes a non-control character");
                        out.push(char::from_u32(code).expect("a control character"));
                    }
                    other => panic!("write_string never emits \\{other}"),
                },
                '"' => panic!("raw quote inside {literal:?}"),
                c if (c as u32) < 0x20 => panic!("raw control character inside {literal:?}"),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn report_encodes_to_pinned_bytes() {
        assert_eq!(sample_report().to_json(), SAMPLE_REPORT_JSON);
    }

    #[test]
    fn telemetry_none_encodes_as_null() {
        let mut report = sample_report();
        report.telemetry = None;
        let json = report.to_json();
        assert!(json.contains("\"telemetry\":null"));
    }

    #[test]
    fn faultplane_none_encodes_as_null() {
        let mut report = sample_report();
        report.faultplane = None;
        let json = report.to_json();
        assert!(json.contains("\"faultplane\":null"));
    }

    #[test]
    fn availability_detail_is_omitted_when_none() {
        // optional-field semantics: a policy-off report encodes exactly as
        // it did before the field existed
        let mut report = sample_report();
        report.availability_detail = None;
        let json = report.to_json();
        assert!(!json.contains("availability_detail"));
    }

    #[test]
    fn availability_detail_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"final_tier\":\"shed-non-critical\""));
        assert!(json.contains("\"peak_tier\":\"critical-only\""));
        assert!(json.contains("\"time_in_tier\":[700000,200000,100000,0]"));
    }

    #[test]
    fn faultplane_stats_round_trip() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"events_lost\":12"));
        assert!(json.contains("\"degraded_correlation\":true"));
    }

    #[test]
    fn whole_floats_survive() {
        let mut report = sample_report();
        report.availability = 1.0;
        report.evidence_coverage = 0.0;
        let json = report.to_json();
        assert!(json.contains("\"availability\":1.0,"));
        assert!(json.contains("\"evidence_coverage\":0.0,"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = "tab\there \"q\" back\\slash\nnew \r\u{1} 日本";
        let mut out = String::new();
        write_string(&mut out, text);
        assert_eq!(out, r#""tab\there \"q\" back\\slash\nnew \r\u0001 日本""#);
        assert_eq!(unescape(&out), text);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // every control character, both escaped ASCII characters, the rest
        // of printable ASCII and 2-, 3- and 4-byte UTF-8
        #[test]
        fn any_string_survives_the_writer(s in "[\u{0}-\u{1f}\"\\ -~é日🦀]{0,64}") {
            let mut out = String::new();
            write_string(&mut out, &s);
            prop_assert!(out.bytes().all(|b| b >= 0x20), "raw control byte in {out:?}");
            prop_assert_eq!(unescape(&out), s);
        }
    }
}
