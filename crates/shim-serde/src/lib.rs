#![warn(missing_docs)]

//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so the real `serde`
//! cannot be fetched. This workspace only ever uses serde as a *marker*
//! (`#[derive(Serialize, Deserialize)]` on report and domain types; nothing
//! drives serde's `Serializer`/`Deserializer` data model), so this crate
//! provides exactly that surface:
//!
//! * [`Serialize`] / [`Deserialize`] marker traits with blanket impls, so
//!   any `T: Serialize` bound a caller writes is satisfiable;
//! * the `derive` feature re-exports no-op derive macros under the same
//!   names, keeping every `#[derive(Serialize, Deserialize)]` in the tree
//!   compiling unchanged.
//!
//! Types that genuinely need to cross a process boundary serialize through
//! the hand-written JSON encoder in `cres_platform::json` instead.

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

#[cfg(feature = "derive")]
pub use shim_serde_derive::{Deserialize, Serialize};
