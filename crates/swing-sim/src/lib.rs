//! # swing-sim
//!
//! Scenarios, campaigns and federations over the one simulation engine.
//! The engine itself — `SimSwarm` + `SimFabric` in `swing-runtime::sim`,
//! the production `Dispatcher` of every unit under virtual time, with
//! the calibrated device and radio models of `swing-device` /
//! `swing-net` behind it — substitutes the paper's physical testbed
//! (nine heterogeneous Android devices on an 802.11n WLAN); this crate
//! moves no tuple itself, it only composes what the engine runs and
//! reads back what it recorded.
//!
//! * [`scenario`] — the paper's topology as a builder: source and sink
//!   on `A`, operator replicas (one stage, or a chain of stages with a
//!   cost each) on described worker devices, radio links, churn and
//!   mobility; the [`SwarmReport`] is filled from the engine's
//!   telemetry registry and tuple-lifecycle events.
//! * [`metrics`] — per-frame, per-worker and timeline measurements.
//! * [`experiments`] — canned scenarios for every figure and table in
//!   the paper's evaluation.
//! * [`campaign`] — seeded chaos campaign over the self-healing
//!   runtime: a fault grid (crashes, master outage, partitions, churn
//!   storms) × seeds, each point checking conservation, bounded
//!   recovery, and byte-identical replay.
//! * [`shard`] — conservative windowed parallel engine: each shard is
//!   one swarm with its own event queue, advanced by a scoped-thread
//!   pool with gateway-latency lookahead so the schedule is
//!   byte-identical at any thread count.
//! * [`federation`] — swarm-of-swarms built on [`shard`]: K swarms from
//!   one config, gateway links scored by the paper's `L_i` estimator,
//!   telemetry rolled up through exactly-mergeable snapshots.
//! * [`tournament`] — seeded policy tournaments: selection policies ×
//!   churn traces (flash crowds, battery cliffs, RSSI sweeps), scoring
//!   frames played, p99, time-to-first-death and time-to-half-swarm,
//!   with byte-identical same-seed replay.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;
pub mod federation;
pub mod metrics;
pub mod scenario;
pub mod shard;
pub mod tournament;

pub use federation::{Federation, FederationConfig, FederationReport, SwarmStatus};
pub use metrics::{FrameRecord, SwarmReport, TimelinePoint, WorkerStats};
pub use scenario::Scenario;
pub use swing_runtime::sim::WorkerSpec;
pub use tournament::{
    run_cell, run_tournament, Cell, ChurnTrace, Comparison, TournamentConfig, TournamentSummary,
};
