//! Offline stand-in for `serde`. The container this benchmark builds in
//! has no crates.io access; the Swing crates only *derive* the serde
//! traits (all JSON in the repository is hand-rolled), so marker traits
//! and no-op derives are enough to build them unchanged.

/// Marker for `serde::Serialize` (never implemented by the no-op derive).
pub trait Serialize {}

/// Marker for `serde::Deserialize` (never implemented by the no-op derive).
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
