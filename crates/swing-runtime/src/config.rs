//! One configuration surface for both execution harnesses.
//!
//! [`SwarmConfig`] carries every knob that means the same thing to the
//! live threaded swarm ([`LocalSwarm`](crate::swarm::LocalSwarm)) and
//! the deterministic harness ([`SimSwarm`](crate::sim::SimSwarm)):
//! routing, pacing, reorder span, retransmission, overload control,
//! telemetry domain, clock, and fault injection. Build one, then hand
//! it to either side:
//!
//! * [`LocalSwarmBuilder::config`](crate::swarm::LocalSwarmBuilder::config)
//!   consumes it wholesale (individual builder methods remain as
//!   per-knob shorthands over the same struct).
//! * [`SimSwarmConfig::from_swarm`](crate::sim::SimSwarmConfig::from_swarm)
//!   seeds the simulator's node configuration from it, so an experiment
//!   validated under virtual time runs live with the identical knobs.

use crate::chaos::FaultPlan;
use crate::clock::global_clock;
use crate::executor::NodeConfig;
use crate::master::HeartbeatConfig;
use swing_core::clock::ClockHandle;
use swing_core::config::{ReorderConfig, RetryConfig};
use swing_core::flow::FlowConfig;
use swing_core::routing::{Policy, RouterConfig};
use swing_core::Result;
use swing_net::NetTimeouts;
use swing_telemetry::Telemetry;

/// The knobs shared by live and simulated swarm construction.
///
/// Defaults mirror [`NodeConfig::default`]: LRS routing, 24 FPS
/// sources, a one-second reorder span, retries on, overload control
/// off, a fresh telemetry domain, the process-global real clock, and
/// no fault injection.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Router configuration (policy, control period, probing).
    pub router: RouterConfig,
    /// Source sensing rate, tuples per second.
    pub input_fps: f64,
    /// Sink reorder-buffer configuration.
    pub reorder: ReorderConfig,
    /// ACK-deadline retransmission configuration.
    pub retry: RetryConfig,
    /// Overload control: bounded mailboxes, credit-based source
    /// admission, and the shed policy (disabled by default).
    pub flow: FlowConfig,
    /// Telemetry domain every executor emits into.
    pub telemetry: Telemetry,
    /// The clock every executor reads. [`SimSwarm`](crate::sim::SimSwarm)
    /// replaces it with the swarm's `VirtualClock`.
    pub clock: ClockHandle,
    /// Deterministic transport fault injection for the live swarm.
    /// The simulator models faults with its own seeded
    /// [`SimLinkConfig`](crate::sim::SimLinkConfig) instead and does
    /// not apply this plan.
    pub chaos: Option<FaultPlan>,
    /// Master-side liveness probing. `None` (the default) disables
    /// failure detection: silent workers are never pruned. When set,
    /// the timeout must be strictly greater than the probe interval —
    /// [`validate`](Self::validate) rejects anything else, since a
    /// timeout at or below the interval declares every worker dead
    /// before its first reply can arrive.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Transport timing: dial timeout and the registry heartbeat
    /// interval / lease TTL. Only the reactor fabric consults it.
    pub net: NetTimeouts,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        let node = NodeConfig::default();
        SwarmConfig {
            router: node.router,
            input_fps: node.input_fps,
            reorder: node.reorder,
            retry: node.retry,
            flow: node.flow,
            telemetry: node.telemetry,
            clock: node.clock,
            chaos: None,
            heartbeat: None,
            net: NetTimeouts::default(),
        }
    }
}

impl SwarmConfig {
    /// A default configuration routing with the given policy.
    #[must_use]
    pub fn with_policy(policy: Policy) -> Self {
        SwarmConfig {
            router: RouterConfig::new(policy),
            ..SwarmConfig::default()
        }
    }

    /// Check every knob for consistency (delegates to
    /// [`NodeConfig::validate`], the single source of truth both
    /// harnesses call at start, plus the heartbeat timing rules).
    pub fn validate(&self) -> Result<()> {
        self.node_config().validate()?;
        if let Some(hb) = &self.heartbeat {
            hb.validate().map_err(swing_core::Error::Malformed)?;
        }
        self.net.validate()?;
        Ok(())
    }

    /// The per-node runtime configuration these knobs describe. The
    /// `worker` metric label keeps its default — the node layer sets it
    /// on spawn.
    #[must_use]
    pub fn node_config(&self) -> NodeConfig {
        NodeConfig {
            router: self.router.clone(),
            input_fps: self.input_fps,
            reorder: self.reorder,
            retry: self.retry.clone(),
            flow: self.flow,
            telemetry: self.telemetry.clone(),
            worker_label: "local".to_string(),
            clock: self.clock.clone(),
        }
    }

    /// Rebuild the shared knobs from an existing [`NodeConfig`]
    /// (inverse of [`node_config`](Self::node_config); the worker label
    /// is per-node state and is dropped).
    #[must_use]
    pub fn from_node_config(node: NodeConfig) -> Self {
        SwarmConfig {
            router: node.router,
            input_fps: node.input_fps,
            reorder: node.reorder,
            retry: node.retry,
            flow: node.flow,
            telemetry: node.telemetry,
            clock: node.clock,
            chaos: None,
            heartbeat: None,
            net: NetTimeouts::default(),
        }
    }

    /// Reset the clock to the process-global real clock (undoes a
    /// virtual-clock injection when reusing a sim-tuned config live).
    #[must_use]
    pub fn real_clock(mut self) -> Self {
        self.clock = global_clock();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swing_core::flow::OverloadPolicy;

    #[test]
    fn default_matches_node_config_default() {
        let cfg = SwarmConfig::default();
        let node = cfg.node_config();
        let reference = NodeConfig::default();
        assert_eq!(node.input_fps, reference.input_fps);
        assert_eq!(node.router.policy, reference.router.policy);
        assert_eq!(node.retry.enabled, reference.retry.enabled);
        assert!(!node.flow.enabled);
        assert!(cfg.chaos.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn flow_without_retries_is_rejected() {
        let mut cfg = SwarmConfig {
            flow: FlowConfig::bounded(8),
            retry: RetryConfig::disabled(),
            ..SwarmConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.retry = RetryConfig::default();
        cfg.validate().unwrap();
    }

    #[test]
    fn heartbeat_timing_is_validated() {
        use std::time::Duration;
        let hb = |interval_ms: u64, timeout_ms: u64| SwarmConfig {
            heartbeat: Some(HeartbeatConfig {
                interval: Duration::from_millis(interval_ms),
                timeout: Duration::from_millis(timeout_ms),
            }),
            ..SwarmConfig::default()
        };
        // Sane: timeout strictly above the probe interval.
        hb(100, 400).validate().unwrap();
        // Zero interval or zero timeout never probes / always evicts.
        assert!(hb(0, 400).validate().is_err());
        assert!(hb(100, 0).validate().is_err());
        // Timeout at or below the interval evicts before the first
        // reply can land.
        assert!(hb(100, 100).validate().is_err());
        assert!(hb(400, 100).validate().is_err());
        // No heartbeat config at all is fine (detection off).
        SwarmConfig::default().validate().unwrap();
    }

    #[test]
    fn net_timeouts_are_validated() {
        use std::time::Duration;
        let mut cfg = SwarmConfig::default();
        cfg.validate().unwrap();
        // A lease TTL at or below the renewal interval expires every
        // registration between heartbeats.
        cfg.net.heartbeat_ttl = cfg.net.heartbeat_interval;
        assert!(cfg.validate().is_err());
        cfg.net = NetTimeouts::default();
        cfg.net.connect = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn round_trips_through_node_config() {
        let mut cfg = SwarmConfig::with_policy(Policy::Rr);
        cfg.input_fps = 60.0;
        cfg.flow = FlowConfig {
            policy: OverloadPolicy::ShedNewest,
            ..FlowConfig::bounded(16)
        };
        let back = SwarmConfig::from_node_config(cfg.node_config());
        assert_eq!(back.router.policy, Policy::Rr);
        assert_eq!(back.input_fps, 60.0);
        assert_eq!(back.flow.mailbox_capacity, 16);
        assert_eq!(back.flow.policy, OverloadPolicy::ShedNewest);
    }
}
