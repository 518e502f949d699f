//! Hand-rolled JSON encoding/decoding for [`RunReport`], and the
//! workspace's one JSON string writer.
//!
//! The workspace's `serde` is an offline marker shim (see
//! `crates/shim-serde`), so real serialization lives here: a small writer
//! plus a recursive-descent parser covering exactly the JSON subset the
//! report schema emits. Round-tripping is lossless — integers are kept as
//! text until typed extraction (no `f64` detour for `u64` fields) and
//! floats are written with Rust's shortest round-trip formatting.
//!
//! [`write_string`] and [`push_u64`] are public so every other JSON
//! artifact (the `cres-obs` exporters, the experiment report files)
//! escapes strings and renders integers through the same code.

use crate::config::PlatformProfile;
use crate::faultplane::FaultPlaneStats;
use crate::metrics::{AttackOutcomeReport, RunReport};
use crate::telemetry::{HistogramSnapshot, StageStat, TelemetrySnapshot, TraceSpan};
use cres_attacks::AttackKind;
use cres_response::AvailabilityReport;
use cres_sim::{SimTime, Stage};
use cres_ssm::{DegradationTier, HealthState};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A decode failure: what went wrong and roughly where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

type Result<T> = std::result::Result<T, JsonError>;

fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(JsonError(message.into()))
}

// ---------------------------------------------------------------- values

/// Parsed JSON. Numbers stay textual so integer extraction is exact.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) => Ok(b),
            None => err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        let got = self.peek()?;
        if got != byte {
            return err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return err(format!("empty number at byte {start}"));
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        // validate now so extraction can't fail on garbage like "1.2.3"
        if text.parse::<f64>().is_err() {
            return err(format!("malformed number {text:?} at byte {start}"));
        }
        Ok(Value::Number(text.to_string()))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape {hex:?}")))?;
                            self.pos += 4;
                            // the writer never emits surrogate pairs (it only
                            // escapes control chars), so reject them here
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return err(format!("unsupported code point {code:#x}")),
                            }
                        }
                        other => return err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // copy the full UTF-8 sequence starting at b
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    let Some(chunk) = self.bytes.get(start..start + len) else {
                        return err("truncated utf-8 sequence");
                    };
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return err(format!("expected ',' or ']', found {:?}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return err(format!("expected ',' or '}}', found {:?}", other as char)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse(text: &str) -> Result<Value> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

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

// ------------------------------------------------------------ extraction

fn as_object(value: &Value) -> Result<&BTreeMap<String, Value>> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => err(format!("expected object, found {}", other.type_name())),
    }
}

fn field<'v>(fields: &'v BTreeMap<String, Value>, name: &str) -> Result<&'v Value> {
    fields
        .get(name)
        .ok_or_else(|| JsonError(format!("missing field {name:?}")))
}

fn get_u64(fields: &BTreeMap<String, Value>, name: &str) -> Result<u64> {
    match field(fields, name)? {
        Value::Number(text) => text
            .parse()
            .map_err(|_| JsonError(format!("field {name:?}: {text:?} is not a u64"))),
        other => err(format!(
            "field {name:?}: expected number, found {}",
            other.type_name()
        )),
    }
}

fn get_u32(fields: &BTreeMap<String, Value>, name: &str) -> Result<u32> {
    u32::try_from(get_u64(fields, name)?)
        .map_err(|_| JsonError(format!("field {name:?} out of u32 range")))
}

fn get_usize(fields: &BTreeMap<String, Value>, name: &str) -> Result<usize> {
    usize::try_from(get_u64(fields, name)?)
        .map_err(|_| JsonError(format!("field {name:?} out of usize range")))
}

fn get_f64(fields: &BTreeMap<String, Value>, name: &str) -> Result<f64> {
    match field(fields, name)? {
        Value::Number(text) => text
            .parse()
            .map_err(|_| JsonError(format!("field {name:?}: {text:?} is not a number"))),
        other => err(format!(
            "field {name:?}: expected number, found {}",
            other.type_name()
        )),
    }
}

fn get_bool(fields: &BTreeMap<String, Value>, name: &str) -> Result<bool> {
    match field(fields, name)? {
        Value::Bool(b) => Ok(*b),
        other => err(format!(
            "field {name:?}: expected bool, found {}",
            other.type_name()
        )),
    }
}

fn get_str<'v>(fields: &'v BTreeMap<String, Value>, name: &str) -> Result<&'v str> {
    match field(fields, name)? {
        Value::String(s) => Ok(s),
        other => err(format!(
            "field {name:?}: expected string, found {}",
            other.type_name()
        )),
    }
}

fn get_opt_u64(fields: &BTreeMap<String, Value>, name: &str) -> Result<Option<u64>> {
    match field(fields, name)? {
        Value::Null => Ok(None),
        Value::Number(text) => text
            .parse()
            .map(Some)
            .map_err(|_| JsonError(format!("field {name:?}: {text:?} is not a u64"))),
        other => err(format!(
            "field {name:?}: expected number or null, found {}",
            other.type_name()
        )),
    }
}

// ----------------------------------------------------------- enum names

fn profile_name(profile: PlatformProfile) -> &'static str {
    match profile {
        PlatformProfile::CyberResilient => "CyberResilient",
        PlatformProfile::PassiveTrust => "PassiveTrust",
        PlatformProfile::TeeShared => "TeeShared",
    }
}

fn profile_from(name: &str) -> Result<PlatformProfile> {
    Ok(match name {
        "CyberResilient" => PlatformProfile::CyberResilient,
        "PassiveTrust" => PlatformProfile::PassiveTrust,
        "TeeShared" => PlatformProfile::TeeShared,
        other => return err(format!("unknown profile {other:?}")),
    })
}

fn health_name(health: HealthState) -> &'static str {
    match health {
        HealthState::Healthy => "Healthy",
        HealthState::Suspicious => "Suspicious",
        HealthState::Compromised => "Compromised",
        HealthState::Degraded => "Degraded",
        HealthState::Recovering => "Recovering",
    }
}

fn health_from(name: &str) -> Result<HealthState> {
    Ok(match name {
        "Healthy" => HealthState::Healthy,
        "Suspicious" => HealthState::Suspicious,
        "Compromised" => HealthState::Compromised,
        "Degraded" => HealthState::Degraded,
        "Recovering" => HealthState::Recovering,
        other => return err(format!("unknown health state {other:?}")),
    })
}

fn attack_kind_from(name: &str) -> Result<AttackKind> {
    AttackKind::ALL
        .into_iter()
        .find(|kind| kind.to_string() == name)
        .map_or_else(|| err(format!("unknown attack kind {name:?}")), Ok)
}

fn get_u64_array(fields: &BTreeMap<String, Value>, name: &str) -> Result<Vec<u64>> {
    match field(fields, name)? {
        Value::Array(items) => items
            .iter()
            .map(|item| match item {
                Value::Number(text) => text
                    .parse()
                    .map_err(|_| JsonError(format!("field {name:?}: {text:?} is not a u64"))),
                other => err(format!(
                    "field {name:?}: expected number, found {}",
                    other.type_name()
                )),
            })
            .collect(),
        other => err(format!(
            "field {name:?}: expected array, found {}",
            other.type_name()
        )),
    }
}

fn stage_from(name: &str) -> Result<Stage> {
    Stage::from_name(name).map_or_else(|| err(format!("unknown stage {name:?}")), Ok)
}

fn tier_from(name: &str) -> Result<DegradationTier> {
    DegradationTier::from_name(name).map_or_else(|| err(format!("unknown tier {name:?}")), Ok)
}

// [`AvailabilityReport`] is foreign to this crate (it lives in
// `cres-response`), so its codec is a pair of free functions rather than
// an inherent impl.
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

fn availability_from_value(value: &Value) -> Result<AvailabilityReport> {
    let fields = as_object(value)?;
    let time_in_tier: [u64; 4] = get_u64_array(fields, "time_in_tier")?
        .try_into()
        .map_err(|_| JsonError("field \"time_in_tier\": expected 4 entries".into()))?;
    Ok(AvailabilityReport {
        critical_offered: get_u64(fields, "critical_offered")?,
        critical_delivered: get_u64(fields, "critical_delivered")?,
        noncritical_offered: get_u64(fields, "noncritical_offered")?,
        noncritical_delivered: get_u64(fields, "noncritical_delivered")?,
        tier_raises: get_u32(fields, "tier_raises")?,
        tier_lowers: get_u32(fields, "tier_lowers")?,
        final_tier: tier_from(get_str(fields, "final_tier")?)?,
        peak_tier: tier_from(get_str(fields, "peak_tier")?)?,
        time_in_tier,
        breaker_trips: get_u32(fields, "breaker_trips")?,
        breaker_resets: get_u32(fields, "breaker_resets")?,
        actions_suppressed: get_u32(fields, "actions_suppressed")?,
    })
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

    fn from_value(value: &Value) -> Result<Self> {
        let fields = as_object(value)?;
        Ok(AttackOutcomeReport {
            name: get_str(fields, "name")?.to_string(),
            kind: attack_kind_from(get_str(fields, "kind")?)?,
            first_injection: get_opt_u64(fields, "first_injection")?.map(SimTime::at_cycle),
            detected_at: get_opt_u64(fields, "detected_at")?.map(SimTime::at_cycle),
            detection_latency: get_opt_u64(fields, "detection_latency")?,
            matching_incidents: get_u32(fields, "matching_incidents")?,
            steps_achieved: get_u32(fields, "steps_achieved")?,
            steps_executed: get_u32(fields, "steps_executed")?,
        })
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

    /// Encodes the snapshot as a single-line JSON object (the value of the
    /// `telemetry` field in the [`RunReport`] schema — see `EXPERIMENTS.md`
    /// E8 for the field-by-field documentation).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }

    fn from_value(value: &Value) -> Result<Self> {
        let fields = as_object(value)?;
        let stages = match field(fields, "stages")? {
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let f = as_object(item)?;
                    Ok(StageStat {
                        stage: stage_from(get_str(f, "stage")?)?,
                        count: get_u64(f, "count")?,
                        cycles: get_u64(f, "cycles")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"stages\": expected array, found {}",
                    other.type_name()
                ))
            }
        };
        let counters = match field(fields, "counters")? {
            Value::Object(entries) => entries
                .iter()
                .map(|(name, value)| match value {
                    Value::Number(text) => text
                        .parse()
                        .map(|v| (name.clone(), v))
                        .map_err(|_| JsonError(format!("counter {name:?}: {text:?} is not a u64"))),
                    other => err(format!(
                        "counter {name:?}: expected number, found {}",
                        other.type_name()
                    )),
                })
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"counters\": expected object, found {}",
                    other.type_name()
                ))
            }
        };
        let gauges = match field(fields, "gauges")? {
            Value::Object(entries) => entries
                .iter()
                .map(|(name, value)| match value {
                    Value::Number(text) => text.parse().map(|v| (name.clone(), v)).map_err(|_| {
                        JsonError(format!("gauge {name:?}: {text:?} is not a number"))
                    }),
                    other => err(format!(
                        "gauge {name:?}: expected number, found {}",
                        other.type_name()
                    )),
                })
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"gauges\": expected object, found {}",
                    other.type_name()
                ))
            }
        };
        let histograms = match field(fields, "histograms")? {
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let f = as_object(item)?;
                    Ok(HistogramSnapshot {
                        name: get_str(f, "name")?.to_string(),
                        bounds: get_u64_array(f, "bounds")?,
                        counts: get_u64_array(f, "counts")?,
                        total: get_u64(f, "total")?,
                        sum: get_u64(f, "sum")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"histograms\": expected array, found {}",
                    other.type_name()
                ))
            }
        };
        let trace_tail = match field(fields, "trace_tail")? {
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let f = as_object(item)?;
                    Ok(TraceSpan {
                        at: SimTime::at_cycle(get_u64(f, "at")?),
                        stage: stage_from(get_str(f, "stage")?)?,
                        arg: get_u32(f, "arg")?,
                        cycles: get_u64(f, "cycles")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"trace_tail\": expected array, found {}",
                    other.type_name()
                ))
            }
        };
        Ok(TelemetrySnapshot {
            spans_recorded: get_u64(fields, "spans_recorded")?,
            spans_dropped: get_u64(fields, "spans_dropped")?,
            ring_capacity: get_usize(fields, "ring_capacity")?,
            ring_occupancy: get_usize(fields, "ring_occupancy")?,
            span_cost: get_u64(fields, "span_cost")?,
            instrumentation_cycles: get_u64(fields, "instrumentation_cycles")?,
            stages,
            counters,
            gauges,
            histograms,
            trace_tail,
        })
    }

    /// Decodes a snapshot written by [`TelemetrySnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Self> {
        TelemetrySnapshot::from_value(&parse(text)?)
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

    fn from_value(value: &Value) -> Result<Self> {
        let fields = as_object(value)?;
        Ok(FaultPlaneStats {
            events_lost: get_u64(fields, "events_lost")?,
            events_delayed: get_u64(fields, "events_delayed")?,
            events_reordered: get_u64(fields, "events_reordered")?,
            events_corrupted: get_u64(fields, "events_corrupted")?,
            delivery_retries: get_u64(fields, "delivery_retries")?,
            recovered_deliveries: get_u64(fields, "recovered_deliveries")?,
            backoff_cycles: get_u64(fields, "backoff_cycles")?,
            monitor_stalls: get_u64(fields, "monitor_stalls")?,
            monitors_crashed: get_u64(fields, "monitors_crashed")?,
            monitors_quarantined: get_u64(fields, "monitors_quarantined")?,
            response_drops: get_u64(fields, "response_drops")?,
            response_retries: get_u64(fields, "response_retries")?,
            degraded_correlation: get_bool(fields, "degraded_correlation")?,
        })
    }
}

impl RunReport {
    /// Encodes the report as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"profile\":\"{}\",\"seed\":{},\"duration_cycles\":{},\"boot_ok\":{}",
            profile_name(self.profile),
            self.seed,
            self.duration_cycles,
            self.boot_ok
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
            health_name(self.final_health),
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

    /// Decodes a report written by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self> {
        let value = parse(text)?;
        let fields = as_object(&value)?;
        let attacks = match field(fields, "attacks")? {
            Value::Array(items) => items
                .iter()
                .map(AttackOutcomeReport::from_value)
                .collect::<Result<Vec<_>>>()?,
            other => {
                return err(format!(
                    "field \"attacks\": expected array, found {}",
                    other.type_name()
                ))
            }
        };
        Ok(RunReport {
            profile: profile_from(get_str(fields, "profile")?)?,
            seed: get_u64(fields, "seed")?,
            duration_cycles: get_u64(fields, "duration_cycles")?,
            boot_ok: get_bool(fields, "boot_ok")?,
            attacks,
            total_events: get_u64(fields, "total_events")?,
            total_incidents: get_u64(fields, "total_incidents")?,
            availability: get_f64(fields, "availability")?,
            final_health: health_from(get_str(fields, "final_health")?)?,
            critical_steps: get_u64(fields, "critical_steps")?,
            evidence_len: get_usize(fields, "evidence_len")?,
            evidence_chain_ok: get_bool(fields, "evidence_chain_ok")?,
            evidence_seals: get_usize(fields, "evidence_seals")?,
            evidence_coverage: get_f64(fields, "evidence_coverage")?,
            console_lines: get_usize(fields, "console_lines")?,
            monitor_overhead_cycles: get_u64(fields, "monitor_overhead_cycles")?,
            reboots: get_u32(fields, "reboots")?,
            attacker_wins: get_u32(fields, "attacker_wins")?,
            telemetry: match field(fields, "telemetry")? {
                Value::Null => None,
                value => Some(TelemetrySnapshot::from_value(value)?),
            },
            faultplane: match field(fields, "faultplane")? {
                Value::Null => None,
                value => Some(FaultPlaneStats::from_value(value)?),
            },
            // optional (not just nullable): absent in pre-policy reports
            availability_detail: match fields.get("availability_detail") {
                None | Some(Value::Null) => None,
                Some(value) => Some(availability_from_value(value)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryRecorder;
    use cres_sim::StageSink;
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

    #[test]
    fn report_round_trips_losslessly() {
        let report = sample_report();
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("decode");
        assert_eq!(report, back);
        // and the encoding itself is stable
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn telemetry_none_encodes_as_null() {
        let mut report = sample_report();
        report.telemetry = None;
        let json = report.to_json();
        assert!(json.contains("\"telemetry\":null"));
        assert_eq!(RunReport::from_json(&json).expect("decode"), report);
    }

    #[test]
    fn faultplane_none_encodes_as_null() {
        let mut report = sample_report();
        report.faultplane = None;
        let json = report.to_json();
        assert!(json.contains("\"faultplane\":null"));
        assert_eq!(RunReport::from_json(&json).expect("decode"), report);
    }

    #[test]
    fn availability_detail_is_omitted_when_none() {
        // optional-field semantics: a policy-off report encodes exactly as
        // it did before the field existed, and old JSON (no field at all)
        // still decodes
        let mut report = sample_report();
        report.availability_detail = None;
        let json = report.to_json();
        assert!(!json.contains("availability_detail"));
        assert_eq!(RunReport::from_json(&json).expect("decode"), report);
    }

    #[test]
    fn availability_detail_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"final_tier\":\"shed-non-critical\""));
        assert!(json.contains("\"peak_tier\":\"critical-only\""));
        assert!(json.contains("\"time_in_tier\":[700000,200000,100000,0]"));
        let back = RunReport::from_json(&json).expect("decode");
        assert_eq!(back.availability_detail, report.availability_detail);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn availability_detail_rejects_bad_tier_names() {
        let report = sample_report();
        let json = report.to_json().replace(
            "\"final_tier\":\"shed-non-critical\"",
            "\"final_tier\":\"turbo\"",
        );
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn faultplane_stats_round_trip() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"events_lost\":12"));
        assert!(json.contains("\"degraded_correlation\":true"));
        let back = RunReport::from_json(&json).expect("decode");
        assert_eq!(back.faultplane, report.faultplane);
    }

    #[test]
    fn telemetry_snapshot_round_trips_standalone() {
        let snapshot = sample_telemetry();
        let json = snapshot.to_json();
        assert!(json.contains("\"monitor-sample\""));
        assert!(json.contains("\"detection_latency_cycles\""));
        let back = TelemetrySnapshot::from_json(&json).expect("decode");
        assert_eq!(back, snapshot);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn whole_floats_survive() {
        let mut report = sample_report();
        report.availability = 1.0;
        report.evidence_coverage = 0.0;
        let back = RunReport::from_json(&report.to_json()).expect("decode");
        assert_eq!(back.availability, 1.0);
        assert_eq!(back.evidence_coverage, 0.0);
    }

    #[test]
    fn decode_accepts_whitespace_and_reordered_fields() {
        let report = sample_report();
        // reordering is free because the decoder goes through a map
        let pretty = report
            .to_json()
            .replace(",\"seed\"", ",\n  \"seed\"")
            .replace(",\"attacks\"", ",\n  \"attacks\"");
        assert_eq!(RunReport::from_json(&pretty).expect("decode"), report);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"profile\":\"NoSuchProfile\"}",
            "{\"profile\":\"CyberResilient\"}", // missing fields
            "nullx",
        ] {
            assert!(RunReport::from_json(bad).is_err(), "accepted {bad:?}");
        }
        let report = sample_report();
        let trailing = format!("{} x", report.to_json());
        assert!(RunReport::from_json(&trailing).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_string(&mut out, "tab\there \"q\" back\\slash\nnew \u{1} 日本");
        let value = parse(&out).expect("parse");
        assert_eq!(
            value,
            Value::String("tab\there \"q\" back\\slash\nnew \u{1} 日本".into())
        );
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
            prop_assert_eq!(parse(&out).expect("parse"), Value::String(s));
        }
    }

    #[test]
    fn attack_kind_names_all_resolve() {
        for kind in AttackKind::ALL {
            assert_eq!(attack_kind_from(&kind.to_string()).expect("resolves"), kind);
        }
        assert!(attack_kind_from("NotAnAttack").is_err());
    }
}
