#![warn(missing_docs)]

//! A trusted execution environment model.
//!
//! The paper's §IV argues that a TEE *sharing the physical processor and
//! memory with the general-purpose processor* is structurally attackable —
//! microarchitectural side channels (Spectre/Meltdown-class) and trusted-app
//! downgrade (\[16\], Project Zero \[32\]) both exploit that sharing. This crate
//! models a GlobalPlatform-style TEE precisely enough to reproduce those two
//! attack classes and contrast them with the physically isolated SSM:
//!
//! * [`ta`] — signed trusted-application manifests with optional rollback
//!   protection (off = the downgrade vulnerability),
//! * [`keystore`] — the secure-storage TA: handles out, secrets never
//!   returned to the normal world,
//! * [`tee`] — SMC sessions and the deployment flag that makes
//!   side-channel extraction possible ([`tee::TeeDeployment::SharedResources`]).

pub mod keystore;
pub mod ta;
pub mod tee;

pub use keystore::Keystore;
pub use ta::{TaManifest, TaSigner};
pub use tee::{SessionId, Tee, TeeDeployment, TeeError};
