//! Fleet-scale observation: the summary stream, fleet-level exports and
//! proof-carrying incident reconstruction.
//!
//! [`observe_fleet`] wraps [`run_fleet_observed`] and keeps every
//! [`DeviceSummary`] the aggregator ingests — in strict device-id order,
//! so everything derived here is byte-identical across worker counts.
//! [`fleet_jsonl`] renders that stream plus the verdict's incidents and
//! the fleet evidence seal as one JSONL document; [`incident_dossiers`]
//! turns each fleet incident into an
//! [`IncidentDossier`] by
//! deterministically *re-running* the cited carrier devices
//! ([`DeviceSpec::generate`] is pure in `(base_seed, device_id)`),
//! verifying three independent things per carrier:
//!
//! 1. every cited evidence record's Merkle inclusion proof against the
//!    covering on-device seal ([`DeviceDossier::from_store`]);
//! 2. the re-run summary digest equals the digest the fleet run shipped
//!    (the re-run really is the same device);
//! 3. that digest's inclusion proof against the fleet evidence root
//!    ([`MerkleAccumulator::inclusion_proof`]).

use crate::log::{write_jsonl, LogEvent, LogRecord};
use cres_crypto::merkle::MerkleAccumulator;
use cres_fleet::{
    run_fleet_observed, DeviceSpec, DeviceSummary, FleetConfig, FleetError, FleetIncident,
    FleetReport, FleetSocConfig,
};
use cres_forensics::{DeviceDossier, IncidentDossier};
use cres_platform::campaign::BuiltAttack;
use cres_platform::runner::ScenarioRunner;
use cres_sim::SimTime;

/// A fleet run plus the per-device summary stream it produced.
#[derive(Debug, Clone)]
pub struct FleetObservation {
    /// The fleet configuration that ran.
    pub config: FleetConfig,
    /// The fleet report (verdict + schedule-dependent accounting).
    pub report: FleetReport,
    /// Every device summary, strict device-id order.
    pub summaries: Vec<DeviceSummary>,
}

/// Runs the fleet and captures the summary stream alongside the report.
pub fn observe_fleet<B>(
    config: &FleetConfig,
    soc_config: &FleetSocConfig,
    workers: usize,
    builder: B,
) -> Result<FleetObservation, FleetError>
where
    B: Fn(&str) -> BuiltAttack + Sync,
{
    let mut summaries = Vec::with_capacity(config.devices as usize);
    let report = run_fleet_observed(config, soc_config, workers, builder, |summary| {
        summaries.push(summary.clone());
    })?;
    Ok(FleetObservation {
        config: config.clone(),
        report,
        summaries,
    })
}

/// Renders a fleet observation as one JSONL document: one `device` record
/// per summary (stamped at the simulation horizon), then fleet-scope
/// records — every fleet incident and the final evidence seal — addressed
/// to the device-id sentinel one past the last device.
///
/// A pure function of the verdict and summary stream, so the bytes are
/// identical for any worker count.
pub fn fleet_jsonl(observation: &FleetObservation) -> String {
    let horizon = observation.config.device_cycles;
    let mut records: Vec<LogRecord> = observation
        .summaries
        .iter()
        .map(|summary| LogRecord {
            device: summary.device,
            cycle: horizon,
            seq: 0,
            event: LogEvent::Device {
                profile: summary.profile.to_string(),
                attack: summary.attack.clone(),
                detected: summary.detected_at,
                availability: summary.availability,
                incidents: summary.total_incidents,
                chain_ok: summary.evidence_chain_ok,
                digest: summary.digest,
            },
        })
        .collect();
    let fleet_scope = observation.config.devices;
    let mut seq = 0u32;
    for incident in &observation.report.verdict.incidents {
        let event = match incident {
            FleetIncident::CoordinatedCampaign {
                signature,
                devices,
                detected,
            } => LogEvent::FleetIncident {
                kind: "coordinated-campaign",
                signature: signature.clone(),
                devices: *devices,
                detail: u64::from(*detected),
            },
            FleetIncident::LateralMovement {
                signature,
                chain,
                onset,
            } => LogEvent::FleetIncident {
                kind: "lateral-movement",
                signature: signature.clone(),
                devices: *chain,
                detail: *onset,
            },
        };
        records.push(LogRecord {
            device: fleet_scope,
            cycle: horizon,
            seq,
            event,
        });
        seq += 1;
    }
    if let Some(root) = observation.report.verdict.evidence_root {
        records.push(LogRecord {
            device: fleet_scope,
            cycle: horizon,
            seq,
            event: LogEvent::Seal {
                root,
                covered: observation.report.verdict.evidence_leaves,
            },
        });
    }
    write_jsonl(&records)
}

/// One carrier's fleet-level verification results, alongside its
/// [`DeviceDossier`] inside the reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarrierCheck {
    /// Device id.
    pub device: u32,
    /// Re-run summary digest equals the digest the fleet run shipped.
    pub digest_ok: bool,
    /// Summary digest carries a verifying inclusion proof against the
    /// fleet evidence root.
    pub fleet_proof_ok: bool,
}

/// One fleet incident reconstructed into a dossier, plus the per-carrier
/// fleet-root verification the dossier types are agnostic to.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReconstruction {
    /// The dossier: correlation facts + per-device evidence citations.
    pub dossier: IncidentDossier,
    /// Fleet-level checks, same order as `dossier.devices`.
    pub carriers: Vec<CarrierCheck>,
}

impl IncidentReconstruction {
    /// True when every on-device citation proof, every re-run digest and
    /// every fleet-root inclusion proof verifies.
    pub fn fully_verified(&self) -> bool {
        self.dossier.all_verified()
            && self
                .carriers
                .iter()
                .all(|c| c.digest_ok && c.fleet_proof_ok)
    }
}

/// Reconstructs every fleet incident in the verdict into a
/// proof-carrying dossier, re-running up to `max_carriers` carrier
/// devices per incident.
pub fn incident_dossiers<B>(
    observation: &FleetObservation,
    builder: B,
    max_carriers: usize,
) -> Vec<IncidentReconstruction>
where
    B: Fn(&str) -> BuiltAttack,
{
    let verdict = &observation.report.verdict;
    // Rebuild the fleet accumulator once: digests in device order are
    // exactly what the SOC appended, so the root must match the verdict.
    let digests: Vec<[u8; 32]> = observation.summaries.iter().map(|s| s.digest).collect();
    let mut accumulator = MerkleAccumulator::new();
    for digest in &digests {
        accumulator.append_digest(digest);
    }
    let root_matches = accumulator.root() == verdict.evidence_root;
    verdict
        .incidents
        .iter()
        .map(|incident| {
            let (signature, campaign) = match incident {
                FleetIncident::CoordinatedCampaign { signature, .. } => (signature, true),
                FleetIncident::LateralMovement { signature, .. } => (signature, false),
            };
            let track = verdict
                .signatures
                .iter()
                .find(|t| &t.signature == signature);
            let window = (
                SimTime::at_cycle(track.and_then(|t| t.first_onset).unwrap_or(0)),
                SimTime::at_cycle(
                    track
                        .and_then(|t| t.last_onset)
                        .unwrap_or(observation.config.device_cycles),
                ),
            );
            let mut devices = Vec::new();
            let mut carriers = Vec::new();
            for summary in observation
                .summaries
                .iter()
                .filter(|s| s.attack.as_deref() == Some(signature.as_str()))
                .take(max_carriers)
            {
                let (dossier, rerun_digest) = reconstruct_carrier(observation, summary, &builder);
                let fleet_proof_ok = root_matches
                    && accumulator
                        .inclusion_proof(digests.iter(), u64::from(summary.device))
                        .is_some_and(|proof| accumulator.verify_proof(&summary.digest, &proof));
                carriers.push(CarrierCheck {
                    device: summary.device,
                    digest_ok: rerun_digest == summary.digest,
                    fleet_proof_ok,
                });
                devices.push(dossier);
            }
            IncidentReconstruction {
                dossier: IncidentDossier {
                    signature: signature.clone(),
                    campaign,
                    window,
                    devices,
                },
                carriers,
            }
        })
        .collect()
}

/// Deterministically re-runs one carrier device, seals its evidence at
/// the horizon and reconstructs its dossier. Returns the re-run summary
/// digest so the caller can check it against the fleet-run digest.
fn reconstruct_carrier<B>(
    observation: &FleetObservation,
    summary: &DeviceSummary,
    builder: &B,
) -> (DeviceDossier, [u8; 32])
where
    B: Fn(&str) -> BuiltAttack,
{
    let spec = DeviceSpec::generate(&observation.config, summary.device);
    let scenario = spec
        .scenario_spec()
        .materialise(builder)
        .expect("signature names came from the fleet run's own catalog");
    let runner = ScenarioRunner::new(spec.platform_config(observation.config.telemetry));
    let (report, mut platform) = runner.run_keep(scenario);
    let rerun = DeviceSummary::from_report(summary.device, &report);
    // Seal at the horizon so every record is covered and provable.
    platform.ssm.seal_evidence(SimTime::at_cycle(spec.cycles));
    let dossier = DeviceDossier::from_store(
        summary.device,
        summary.attack.clone(),
        platform.ssm.evidence(),
    );
    (dossier, rerun.digest)
}
