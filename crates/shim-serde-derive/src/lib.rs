//! No-op `Serialize`/`Deserialize` derive macros.
//!
//! The build environment has no access to crates.io, so the real
//! `serde_derive` cannot be fetched. Nothing in this workspace serializes
//! through serde's data model — the derives are used purely as markers on
//! report/domain types — so the derives here expand to nothing and the
//! marker traits in `shim-serde` carry blanket impls. Report types that
//! genuinely need serialization are written by the in-repo JSON encoder
//! (`cres_platform::json`) instead.

use proc_macro::TokenStream;

/// Marker derive: expands to nothing (see crate docs).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Marker derive: expands to nothing (see crate docs).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
