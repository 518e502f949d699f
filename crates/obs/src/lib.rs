//! The flight-recorder export plane.
//!
//! Everything the platform records in memory — trace-ring spans, metric
//! registries, evidence seals, fleet verdicts — stays useless to an
//! operator until it leaves the process in a format another tool opens.
//! This crate is that exit: three deterministic, canonical-bytes
//! exporters plus the forensics glue that turns a fleet incident into a
//! proof-carrying dossier.
//!
//! * [`log`] — a schema-versioned **JSONL event log**: one record per
//!   trace span, fault-plane transition, policy decision, evidence seal,
//!   device summary and fleet incident, in strict `(device, cycle, seq)`
//!   order.
//! * [`chrome`] — a **Chrome `trace_event` stream** (Perfetto
//!   compatible): every device is a process, every pipeline [`Stage`] a
//!   named thread track, 1 sim cycle = 1 µs.
//! * [`prom`] — a **Prometheus text exposition** of the metrics registry
//!   (cumulative-bucket histogram semantics) and fleet aggregates.
//! * [`fleet`] — fleet-scale capture: the summary stream observed in
//!   device order, rendered to JSONL/Prometheus, and
//!   [`IncidentDossier`][cres_forensics::IncidentDossier] construction
//!   with Merkle inclusion proofs for every cited evidence record.
//! * [`lint`] — artifact validators (the `obs_lint` CI gate): schema,
//!   ordering, track-overlap and cumulative-bucket checks over the
//!   exported bytes, with no dependence on how they were produced.
//!
//! Everything here is **post-hoc**: exporters read a finished
//! [`ObsCapture`] (taken from
//! [`ScenarioRunner::run_keep`][cres_platform::ScenarioRunner::run_keep]'s
//! platform) or a finished fleet observation. Nothing touches the
//! simulation hot path, so the zero-allocation discipline and
//! bit-identical reports are untouched — `e16_observe` pins both.
//!
//! [`Stage`]: cres_sim::Stage

pub mod capture;
pub mod chrome;
pub mod fleet;
pub mod lint;
pub mod log;
pub mod prom;

pub use capture::ObsCapture;
pub use chrome::{chrome_events, chrome_trace, ChromeEvent};
pub use fleet::{
    fleet_jsonl, incident_dossiers, observe_fleet, CarrierCheck, FleetObservation,
    IncidentReconstruction,
};
pub use log::{device_records, write_jsonl, LogEvent, LogRecord};
pub use prom::{fleet_prometheus, prometheus};
