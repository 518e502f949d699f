#![deny(missing_docs)]

//! Fleet-scale CRES simulation: N device platforms behind one fleet SOC.
//!
//! The rest of the workspace simulates *one* embedded platform; critical
//! infrastructure is a fleet. This crate instantiates N heterogeneous
//! device platforms — profile, firmware batch and RNG stream forked per
//! device from one base seed (see [`spec`]) — executes them on the
//! workspace's one ordered executor (work-stealing workers, each owning
//! its own `PlatformPool` so the warm path stays allocation-light and
//! lock-free — see [`runner`]), and folds compact per-device summaries
//! into a streaming fleet SOC ([`soc`]) that runs *cross-device*
//! correlation without ever materialising all N full `RunReport`s at
//! once:
//!
//! * **coordinated campaigns** — the same attack signature landing on many
//!   devices raises a fleet-level incident;
//! * **lateral-movement timelines** — per-signature injection onsets on
//!   the shared sim clock, chained when consecutive onsets fall inside a
//!   propagation window;
//! * **fleet-wide quarantine** — devices that lost their attack (missed
//!   detection, attacker wins, broken evidence chain) are quarantined
//!   individually, and a confirmed campaign escalates to quarantining
//!   every device carrying the signature.
//!
//! Memory stays bounded end to end. Only [`summary::DeviceSummary`]
//! values (a few dozen bytes plus the attack name) leave a worker; they
//! wait for the fold in a ring of [`REORDER_WINDOW`] slots, and a worker
//! that far ahead parks until the fold catches up. Fleet evidence is an
//! incremental [`cres_crypto::merkle::MerkleAccumulator`] over per-device
//! summary digests (O(log n) state). A panicking device or observer is
//! re-raised on the caller; it never leaves the run hanging.
//!
//! The fleet verdict is **bit-identical across worker counts**: the SOC
//! ingests summaries strictly in device order, so 1, 2 and 8 workers
//! produce byte-equal [`soc::FleetVerdict`] JSON — pinned by
//! `tests/fleet_determinism.rs`.
//!
//! # Quickstart
//!
//! ```
//! use cres_fleet::{run_fleet, FleetConfig};
//!
//! let config = FleetConfig::new(24, 42);
//! let report = run_fleet(&config, 2, cres_attacks::catalog::try_build).unwrap();
//! assert_eq!(report.verdict.devices, 24);
//! assert!(report.devices_per_sec > 0.0);
//! // the verdict is a pure function of the config, not of the worker count
//! let again = run_fleet(&config, 1, cres_attacks::catalog::try_build).unwrap();
//! assert_eq!(report.verdict.to_json(), again.verdict.to_json());
//! ```

pub mod runner;
pub mod soc;
pub mod spec;
pub mod summary;

pub use cres_platform::campaign::REORDER_WINDOW;
pub use runner::{run_fleet, run_fleet_observed, FleetError, FleetReport};
pub use soc::{FleetIncident, FleetSoc, FleetSocConfig, FleetVerdict, SignatureTrack};
pub use spec::{AttackMix, DeviceAttack, DeviceSpec, FleetConfig};
pub use summary::DeviceSummary;
