//! # swing-bench
//!
//! The reproduction harness: one bench target per table and figure of
//! the paper's evaluation (plus the ablations and the two extensions),
//! each regenerating the corresponding rows or series from the
//! simulator (`swing-sim`). Nothing here times code: what a layer costs
//! is measured by `swing-benchmark`.
//!
//! Run everything with `cargo bench -p swing-bench`; run one figure with
//! e.g. `cargo bench -p swing-bench --bench fig4_policies`. The text
//! output of each target is recorded in `EXPERIMENTS.md` next to the
//! paper's numbers.

#![warn(missing_docs)]

pub mod fmt;
pub mod repro;

pub use fmt::Table;
