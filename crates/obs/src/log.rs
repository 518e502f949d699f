//! The structured JSONL event log.
//!
//! One schema-versioned JSON object per line. Every record starts with
//! the same envelope, in fixed key order:
//!
//! ```text
//! {"v":1,"d":<device>,"c":<cycle>,"s":<seq>,"k":"<kind>", ...}
//! ```
//!
//! * `v` — schema version (this module emits 1);
//! * `d` — device id (fleet-scope records use one past the last device);
//! * `c` — sim-cycle timestamp;
//! * `s` — per-device sequence number, dense from 0 in emission order;
//! * `k` — record kind: `span`, `fault`, `policy`, `seal`, `device` or
//!   `fleet-incident` (kind-specific fields follow; see `EXPERIMENTS.md`
//!   §E16 for the field-by-field schema).
//!
//! Lines are strictly ordered by `(d, c, s)` — the invariant the
//! proptests and the `obs_lint` gate enforce — so fleet-scale logs from
//! any worker count merge to identical bytes.

use crate::capture::ObsCapture;
use cres_crypto::hex;
use cres_platform::json::{push_u64, write_string};
use cres_sim::{fault_code, policy_code, Stage};
use std::fmt::Write as _;

/// Decodes a [`Stage::FaultPlane`] span arg (`cres_sim::fault_code`) to
/// its stable event name.
pub fn fault_name(code: u32) -> &'static str {
    match code {
        fault_code::EVENT_LOST => "event-lost",
        fault_code::EVENT_DELAYED => "event-delayed",
        fault_code::EVENT_REORDERED => "event-reordered",
        fault_code::EVENT_CORRUPTED => "event-corrupted",
        fault_code::MONITOR_STALLED => "monitor-stalled",
        fault_code::MONITOR_CRASHED => "monitor-crashed",
        fault_code::RESPONSE_DROPPED => "response-dropped",
        fault_code::DELIVERY_RETRY => "delivery-retry",
        fault_code::DELIVERY_RECOVERED => "delivery-recovered",
        fault_code::MONITOR_QUARANTINED => "monitor-quarantined",
        fault_code::SENSING_DEGRADED => "sensing-degraded",
        _ => "unknown",
    }
}

/// Decodes a [`Stage::Policy`] span arg (`cres_sim::policy_code`) to its
/// stable event name.
pub fn policy_name(code: u32) -> &'static str {
    match code {
        policy_code::TIER_RAISED => "tier-raised",
        policy_code::TIER_LOWERED => "tier-lowered",
        policy_code::BREAKER_OPENED => "breaker-opened",
        policy_code::BREAKER_HALF_OPEN => "breaker-half-open",
        policy_code::BREAKER_CLOSED => "breaker-closed",
        policy_code::ACTION_SUPPRESSED => "action-suppressed",
        _ => "unknown",
    }
}

/// The kind-specific payload of one log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// One pipeline trace span.
    Span {
        /// The pipeline stage.
        stage: Stage,
        /// Stage-specific argument.
        arg: u32,
        /// Modelled cycle cost.
        cycles: u64,
    },
    /// One fault-plane transition (a decoded [`Stage::FaultPlane`] span).
    Fault {
        /// Fault code (`cres_sim::fault_code`).
        code: u32,
    },
    /// One policy decision (a decoded [`Stage::Policy`] span).
    Policy {
        /// Policy code (`cres_sim::policy_code`).
        code: u32,
    },
    /// One evidence seal.
    Seal {
        /// Merkle root of the seal.
        root: [u8; 32],
        /// Records the seal covers.
        covered: u64,
    },
    /// One per-device fleet summary.
    Device {
        /// Topology profile name.
        profile: String,
        /// Attack signature, when the device carried one.
        attack: Option<String>,
        /// First matching detection, cycles.
        detected: Option<u64>,
        /// Service availability over the run.
        availability: f64,
        /// Incidents classified on-device.
        incidents: u64,
        /// Whether the on-device evidence chain verified.
        chain_ok: bool,
        /// The summary digest folded into the fleet evidence root.
        digest: [u8; 32],
    },
    /// One fleet-level incident.
    FleetIncident {
        /// `"coordinated-campaign"` or `"lateral-movement"`.
        kind: &'static str,
        /// Correlated attack signature.
        signature: String,
        /// Carrier devices (campaign) or chain length (lateral).
        devices: u32,
        /// Campaign: carriers detected on-device; lateral: chain onset.
        detail: u64,
    },
}

/// One fully-addressed log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Device id (`d`).
    pub device: u32,
    /// Sim-cycle timestamp (`c`).
    pub cycle: u64,
    /// Per-device sequence number (`s`).
    pub seq: u32,
    /// The payload.
    pub event: LogEvent,
}

impl LogRecord {
    /// Renders the record as one canonical JSONL line (no newline).
    pub fn line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_line(&mut out);
        out
    }

    /// Appends the canonical line to `out` (no newline, no per-record
    /// allocation, no `fmt` on the high-volume arms — the bulk-export
    /// path `write_jsonl` uses).
    pub fn write_line(&self, out: &mut String) {
        out.push_str("{\"v\":1,\"d\":");
        push_u64(out, u64::from(self.device));
        out.push_str(",\"c\":");
        push_u64(out, self.cycle);
        out.push_str(",\"s\":");
        push_u64(out, u64::from(self.seq));
        match &self.event {
            LogEvent::Span { stage, arg, cycles } => {
                out.push_str(",\"k\":\"span\",\"stage\":\"");
                out.push_str(stage.name());
                out.push_str("\",\"arg\":");
                push_u64(out, u64::from(*arg));
                out.push_str(",\"cycles\":");
                push_u64(out, *cycles);
            }
            LogEvent::Fault { code } => {
                out.push_str(",\"k\":\"fault\",\"event\":\"");
                out.push_str(fault_name(*code));
                out.push_str("\",\"code\":");
                push_u64(out, u64::from(*code));
            }
            LogEvent::Policy { code } => {
                out.push_str(",\"k\":\"policy\",\"event\":\"");
                out.push_str(policy_name(*code));
                out.push_str("\",\"code\":");
                push_u64(out, u64::from(*code));
            }
            LogEvent::Seal { root, covered } => {
                let _ = write!(
                    out,
                    ",\"k\":\"seal\",\"root\":\"{}\",\"covered\":{covered}",
                    hex::encode(root)
                );
            }
            LogEvent::Device {
                profile,
                attack,
                detected,
                availability,
                incidents,
                chain_ok,
                digest,
            } => {
                out.push_str(",\"k\":\"device\",\"profile\":");
                write_string(out, profile);
                out.push_str(",\"attack\":");
                match attack {
                    Some(name) => write_string(out, name),
                    None => out.push_str("null"),
                }
                let _ = write!(
                    out,
                    ",\"detected\":{},\"availability\":{availability},\"incidents\":{incidents},\
                     \"chain_ok\":{chain_ok},\"digest\":\"{}\"",
                    match detected {
                        Some(cycle) => cycle.to_string(),
                        None => "null".into(),
                    },
                    hex::encode(digest)
                );
            }
            LogEvent::FleetIncident {
                kind,
                signature,
                devices,
                detail,
            } => {
                let _ = write!(
                    out,
                    ",\"k\":\"fleet-incident\",\"type\":\"{kind}\",\"signature\":"
                );
                write_string(out, signature);
                let _ = write!(out, ",\"devices\":{devices},\"detail\":{detail}");
            }
        }
        out.push('}');
    }
}

/// Builds one device's log records from its capture: every trace span
/// (fault-plane and policy spans decoded to their event vocabulary) plus
/// every evidence seal, merged by cycle and densely sequenced.
pub fn device_records(capture: &ObsCapture) -> Vec<LogRecord> {
    // The ring records in *processing* order, and the fault plane can
    // deliver an event late — a span processed at cycle 125k may carry
    // its origin timestamp 120k — so the spans are only *mostly* cycle-
    // ordered and a real sort is required. It is a stable sort over a
    // nearly-sorted sequence (cheap), and stability is load-bearing
    // twice: same-cycle spans keep recording order, and seals (appended
    // after all spans) land after same-cycle spans.
    let mut staged: Vec<(u64, LogEvent)> =
        Vec::with_capacity(capture.spans.len() + capture.seals.len());
    for span in &capture.spans {
        let event = match span.stage {
            Stage::FaultPlane => LogEvent::Fault { code: span.arg },
            Stage::Policy => LogEvent::Policy { code: span.arg },
            stage => LogEvent::Span {
                stage,
                arg: span.arg,
                cycles: span.cycles,
            },
        };
        staged.push((span.at.cycle(), event));
    }
    for seal in &capture.seals {
        staged.push((
            seal.at.cycle(),
            LogEvent::Seal {
                root: seal.root,
                covered: seal.covered,
            },
        ));
    }
    staged.sort_by_key(|(cycle, _)| *cycle);
    staged
        .into_iter()
        .enumerate()
        .map(|(seq, (cycle, event))| LogRecord {
            device: capture.device,
            cycle,
            seq: seq as u32,
            event,
        })
        .collect()
}

/// Renders records as a JSONL document (one line each, trailing newline).
///
/// # Panics
///
/// Debug-asserts the strict `(device, cycle, seq)` ordering contract.
pub fn write_jsonl(records: &[LogRecord]) -> String {
    debug_assert!(
        records
            .windows(2)
            .all(|w| (w[0].device, w[0].cycle, w[0].seq) < (w[1].device, w[1].cycle, w[1].seq)),
        "JSONL records out of (device, cycle, seq) order"
    );
    let mut out = String::with_capacity(records.len() * 96);
    for record in records {
        record.write_line(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_and_policy_vocabularies_decode() {
        use fault_code::*;
        use policy_code::*;
        assert_eq!(fault_name(fault_code::EVENT_LOST), "event-lost");
        assert_eq!(fault_name(fault_code::SENSING_DEGRADED), "sensing-degraded");
        assert_eq!(policy_name(policy_code::TIER_RAISED), "tier-raised");
        assert_eq!(
            policy_name(policy_code::ACTION_SUPPRESSED),
            "action-suppressed"
        );
        assert_eq!(fault_name(99), "unknown");
        assert_eq!(policy_name(99), "unknown");

        // Every defined code decodes to its own name; 0 and one past the
        // last code decode to "unknown".
        fn check(decode: fn(u32) -> &'static str, codes: &[u32]) {
            let names: Vec<&str> = codes.iter().map(|&c| decode(c)).collect();
            assert!(!names.contains(&"unknown"), "{names:?}");
            let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(distinct.len(), names.len(), "{names:?}");
            let last = *codes.iter().max().expect("codes");
            assert_eq!(decode(0), "unknown");
            assert_eq!(decode(last + 1), "unknown");
        }
        check(
            fault_name,
            &[
                EVENT_LOST,
                EVENT_DELAYED,
                EVENT_REORDERED,
                EVENT_CORRUPTED,
                MONITOR_STALLED,
                MONITOR_CRASHED,
                RESPONSE_DROPPED,
                DELIVERY_RETRY,
                DELIVERY_RECOVERED,
                MONITOR_QUARANTINED,
                SENSING_DEGRADED,
            ],
        );
        check(
            policy_name,
            &[
                TIER_RAISED,
                TIER_LOWERED,
                BREAKER_OPENED,
                BREAKER_HALF_OPEN,
                BREAKER_CLOSED,
                ACTION_SUPPRESSED,
            ],
        );
    }

    #[test]
    fn lines_are_canonical_and_escaped() {
        let seal = LogRecord {
            device: 3,
            cycle: 250_000,
            seq: 7,
            event: LogEvent::Seal {
                root: [0xab; 32],
                covered: 41,
            },
        };
        assert_eq!(
            seal.line(),
            format!(
                "{{\"v\":1,\"d\":3,\"c\":250000,\"s\":7,\"k\":\"seal\",\"root\":\"{}\",\"covered\":41}}",
                "ab".repeat(32)
            )
        );
        let device = LogRecord {
            device: 0,
            cycle: 1,
            seq: 0,
            event: LogEvent::Device {
                profile: "cyber\"resilient".into(),
                attack: None,
                detected: None,
                availability: 0.5,
                incidents: 0,
                chain_ok: true,
                digest: [0; 32],
            },
        };
        assert!(device.line().contains("cyber\\\"resilient"));
        assert!(device.line().contains("\"attack\":null"));
    }
}
