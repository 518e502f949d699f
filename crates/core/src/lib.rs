#![deny(missing_docs)]

//! The cyber-resilient embedded platform: the paper's three
//! microarchitectural characteristics assembled into a runnable system.
//!
//! This crate wires the whole workspace together:
//!
//! * [`config`] — platform profiles: [`config::PlatformProfile::CyberResilient`]
//!   (isolated SSM + active monitors + active response),
//!   [`config::PlatformProfile::PassiveTrust`] (secure boot + watchdog +
//!   reboot: the state of the art the paper critiques) and
//!   [`config::PlatformProfile::TeeShared`] (adds a resource-sharing TEE,
//!   §IV's vulnerable topology),
//! * [`provision`] — factory provisioning: vendor keys, signed firmware,
//!   fused OTP, derived device keys, TEE population,
//! * [`platform`] — the [`platform::Platform`]: SoC + boot chain + TEE +
//!   monitors + SSM + response manager, with the isolation topology
//!   *enforced through the permission matrix*,
//! * [`runner`] — the discrete-event scenario runner driving workload,
//!   monitors, attacks and the detect→respond→recover loop,
//! * [`metrics`] — the [`metrics::RunReport`] experiments consume,
//! * [`campaign`] — the ordered executor that campaigns and fleets share,
//!   and the parallel campaign engine fanning independent scenario runs
//!   across it with deterministic, submission-ordered results,
//! * [`pool`] — per-worker platform pooling (provisioning cache +
//!   platform recycling): campaign jobs skip repeated RSA keygen and big
//!   buffer rebuilds while staying bit-identical to fresh runs,
//! * [`telemetry`] — always-on pipeline observability: a cycle-stamped
//!   trace ring, per-stage cost accounting and a metrics registry that
//!   merges deterministically across campaign jobs,
//! * [`comms`] — TEE-keyed authenticated M2M telemetry (tamper, forgery
//!   and replay rejection — the paper's §III-4 MITM concern).
//!
//! # Quickstart
//!
//! ```
//! use cres_platform::config::{PlatformConfig, PlatformProfile};
//! use cres_platform::runner::{Scenario, ScenarioRunner};
//! use cres_sim::SimDuration;
//!
//! let config = PlatformConfig::new(PlatformProfile::CyberResilient, 42);
//! let scenario = Scenario::quiet(SimDuration::cycles(200_000));
//! let report = ScenarioRunner::new(config).run(scenario);
//! assert!(report.boot_ok);
//! assert!(report.evidence_chain_ok);
//! ```

pub mod campaign;
pub mod comms;
pub mod config;
pub mod faultplane;
pub mod json;
pub mod metrics;
pub mod platform;
pub mod pool;
pub mod provision;
pub mod runner;
pub mod telemetry;

pub use campaign::{Campaign, CampaignSummary, Job, JobResult, ScenarioSpec};
pub use comms::{AuthMessage, RejectReason, SecureChannel};
pub use config::{PlatformConfig, PlatformProfile};
pub use faultplane::{FaultPlane, FaultPlaneConfig, FaultPlaneStats, RetryPolicy};
pub use metrics::{AttackOutcomeReport, RunReport};
pub use platform::Platform;
pub use pool::{PlatformPool, PoolStats, ScoreScratch};
pub use runner::{Scenario, ScenarioRunner};
pub use telemetry::{
    MetricsRegistry, TelemetryConfig, TelemetryRecorder, TelemetrySnapshot, TraceRing, TraceSpan,
};
