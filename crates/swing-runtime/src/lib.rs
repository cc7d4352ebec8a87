//! # swing-runtime
//!
//! The live Swing runtime — the Rust analog of the paper's SEEP-based
//! Android prototype. It implements the full §IV-B workflow:
//!
//! 1. **Install** — each device holds a [`UnitRegistry`] mapping stage
//!    names to function-unit factories ("each device has already
//!    installed all the function units").
//! 2. **Launch & join** — a [`Master`] listens for
//!    connections; [`WorkerNode`]s join it (optionally
//!    after finding it in the `swing_reactor` lease registry).
//! 3. **Deploy** — the master assigns stage instances to devices and
//!    sends `Activate`/`Connect` control messages.
//! 4. **Execute** — on `Start`, source executors sense and dispatch
//!    tuples through per-unit [`Router`](swing_core::routing::Router)s;
//!    downstreams ACK with processing delays; sinks reorder and play
//!    back.
//!
//! Transports are pluggable through [`Fabric`]:
//! in-process channels for tests/examples, reactor sockets for real
//! socket-level runs. [`LocalSwarm`] assembles a whole
//! swarm in one process with a few lines.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
pub mod clock;
pub mod config;
mod control;
pub mod dispatch;
pub mod executor;
pub mod fabric;
pub mod inflight;
mod machine;
pub mod master;
pub mod node;
pub mod registry;
pub mod sim;
pub mod swarm;

/// One-stop imports for building and running swarms.
///
/// Extends [`swing_core::prelude`] (graph, tuples, units, policies,
/// clocks, flow control) with the runtime's own surface: the live
/// [`LocalSwarm`], the deterministic [`SimSwarm`], the
/// shared [`SwarmConfig`], registries, and fault injection.
///
/// ```
/// use swing_runtime::prelude::*;
/// ```
pub mod prelude {
    pub use crate::chaos::{ChaosControl, ChaosReport, FaultPlan, LinkFaults};
    pub use crate::checkpoint::{CheckpointStore, FileCheckpoint, MemoryCheckpoint};
    pub use crate::config::SwarmConfig;
    pub use crate::executor::{DeliveryStats, NodeConfig, SinkReport};
    pub use crate::master::{HeartbeatConfig, Placement};
    pub use crate::registry::UnitRegistry;
    pub use crate::sim::{
        SimEnergyConfig, SimFabric, SimLinkConfig, SimSwarm, SimSwarmConfig, WorkerSpec,
    };
    pub use crate::swarm::{LocalSwarm, LocalSwarmBuilder};
    pub use swing_core::prelude::*;
    pub use swing_telemetry::Telemetry;
}

pub use chaos::{ChaosControl, ChaosReport, FaultPlan, LinkFaults};
pub use checkpoint::{CheckpointStore, FileCheckpoint, MasterCheckpoint, MemoryCheckpoint};
pub use config::SwarmConfig;
pub use dispatch::Dispatcher;
pub use executor::{DeliveryStats, ExecProbe, NodeConfig, SinkReport};
pub use fabric::Fabric;
pub use master::{HeartbeatConfig, Master, MasterConfig, MasterStatus, Placement};
pub use node::WorkerNode;
pub use registry::{AnyUnit, UnitRegistry};
pub use sim::{SimFabric, SimLinkConfig, SimSwarm, SimSwarmConfig, WorkerSpec};
pub use swarm::{LocalSwarm, LocalSwarmBuilder};

/// Lock `m` whether or not a holder panicked: every value this crate
/// keeps behind a mutex (a map, a counter pair, a snapshot slot) is
/// valid between any two statements of its holders, so poisoning tells
/// a reader nothing.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn lock_hands_back_the_guard_after_a_panicked_holder() {
        let m = std::sync::Mutex::new(7);
        let holder = std::thread::scope(|s| s.spawn(|| panic!("{}", m.lock().unwrap())).join());
        assert!(holder.is_err() && m.is_poisoned() && *super::lock(&m) == 7);
    }
}
