//! Swarm-of-swarms: a federation of [`SimSwarm`]s on the sharded
//! parallel engine.
//!
//! The paper's swarm is one master over a handful of co-located
//! devices; SwarMS-style deployments compose many such swarms. This
//! module instantiates K swarms from one shared configuration, joins
//! them with inter-swarm **gateway links** (one-way latency at least
//! [`timing::GATEWAY_MIN_LATENCY_US`], which doubles as the engine's
//! conservative lookahead), and runs them as shards of
//! [`shard::run_to_horizon`]. Routing composes across tiers exactly as
//! inside a swarm: each member runs LRS internally, and its gateway
//! egress picks the outbound link with the best `L_i` latency view,
//! scored by the same estimator.
//!
//! Every member gets its own telemetry domain, its own control plane
//! and its own forked RNG streams, so the federation is a pure
//! function of its seed: the same [`FederationConfig`] exports a
//! byte-identical federated telemetry JSON at any thread count.
//! Telemetry rolls up by folding each member's registry into one
//! snapshot in shard order ([`Registry::merge_into`] is exact on
//! counters, gauges and histogram buckets); member swarms reuse the
//! same worker names, so merged metric keys collide on purpose and the
//! rollup reads as federated totals.
//!
//! [`Registry::merge_into`]: swing_telemetry::Registry::merge_into

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use swing_core::graph::AppGraph;
use swing_core::rng::DetRng;
use swing_core::timing;
use swing_core::{Tuple, SECOND_US};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_telemetry::{names as tn, to_json, Snapshot, Telemetry};

use crate::shard::{self, Shard};

/// Shape of a federation run.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Member swarms (shards). Total devices = `swarms *
    /// workers_per_swarm`.
    pub swarms: usize,
    /// Devices per member swarm: one endpoint host (source + sink) and
    /// `workers_per_swarm - 1` operator hosts.
    pub workers_per_swarm: usize,
    /// Frames each member's source senses before going quiet.
    pub frames_per_source: u64,
    /// Source capture rate, frames per second.
    pub input_fps: f64,
    /// Master seed; every member seed and link jitter stream forks off
    /// it.
    pub seed: u64,
    /// Outbound gateway links per member (ring neighbours `i+1 ..
    /// i+fanout`, wrapped). With fanout ≥ 2 the gateway estimator has
    /// real routing choice.
    pub gateway_fanout: usize,
    /// One-way gateway link latency; must dominate the lookahead
    /// ([`timing::GATEWAY_MIN_LATENCY_US`]).
    pub gateway_latency_us: u64,
    /// Upper bound of seeded per-frame gateway jitter.
    pub gateway_jitter_us: u64,
    /// Every Nth played sink frame becomes gateway egress.
    pub egress_sample_every: u64,
    /// Worker threads for the windowed engine (clamped to the shard
    /// count; 1 reproduces the exact same schedule serially).
    pub threads: usize,
    /// Virtual horizon of the windowed run; the in-flight tail drains
    /// past it during finish.
    pub horizon_us: u64,
}

impl Default for FederationConfig {
    /// A 10-swarm × 10-device federation, 30 fps for 10 s of virtual
    /// time — the CI-scale scenario.
    fn default() -> Self {
        FederationConfig {
            swarms: 10,
            workers_per_swarm: 10,
            frames_per_source: 300,
            input_fps: 30.0,
            seed: 1,
            gateway_fanout: 2,
            gateway_latency_us: timing::GATEWAY_MIN_LATENCY_US,
            gateway_jitter_us: 5_000,
            egress_sample_every: 5,
            threads: 1,
            horizon_us: 30 * SECOND_US,
        }
    }
}

/// Post-run state of one member swarm — the federation's analogue of a
/// master status row, reported per shard in campaign summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarmStatus {
    /// Shard index.
    pub id: usize,
    /// Final control-plane epoch (bumped by every eviction, join and
    /// re-placement wave inside the member).
    pub epoch: u64,
    /// Workers alive at the end of the run.
    pub alive_workers: usize,
    /// Frames the member's source sensed.
    pub sensed: u64,
    /// Frames its sink played.
    pub played: u64,
    /// Frames that arrived after playback passed them.
    pub stale: u64,
    /// Frames shed at the source admission gate.
    pub shed_source: u64,
    /// Frames shed from operator mailboxes.
    pub shed_queue: u64,
    /// Frames abandoned by the retransmission layer.
    pub lost: u64,
    /// Gateway frames the member emitted toward peers.
    pub gateway_egress: u64,
    /// Peer gateway frames the member consumed.
    pub gateway_ingress: u64,
    /// p99 end-to-end (sense → play) latency, microseconds.
    pub p99_e2e_us: u64,
    /// The shed-accounting identity held exactly with zero loss.
    pub conserved: bool,
}

impl SwarmStatus {
    /// Serialize this status row as one JSON object (a row of the
    /// campaign artifact's federation section).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"epoch\":{},\"alive_workers\":{},\"sensed\":{},\
             \"played\":{},\"stale\":{},\"shed_source\":{},\"shed_queue\":{},\
             \"lost\":{},\"gateway_egress\":{},\"gateway_ingress\":{},\
             \"p99_e2e_us\":{},\"conserved\":{}}}",
            self.id,
            self.epoch,
            self.alive_workers,
            self.sensed,
            self.played,
            self.stale,
            self.shed_source,
            self.shed_queue,
            self.lost,
            self.gateway_egress,
            self.gateway_ingress,
            self.p99_e2e_us,
            self.conserved
        )
    }
}

/// Where the wall time of one [`Federation::run`] went, phase by phase
/// (the rows of DESIGN.md's one-evaluation table). The phases are
/// serial, so they sum to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunWall {
    /// The windowed event loop, to the horizon.
    pub engine: Duration,
    /// Draining every member's tail and stopping its units
    /// ([`SimSwarm::finish`]), which ends with the swarm dropped.
    pub finish: Duration,
    /// Reading each member's status row from its registry.
    pub status: Duration,
    /// Folding each member's registry into the federated rollup.
    pub rollup: Duration,
    /// Dropping each member's telemetry domain once it is folded.
    pub teardown: Duration,
    /// Rendering the rollup as JSON.
    pub export: Duration,
}

/// What a [`Federation::run`] produced.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Per-member status rows, in shard order.
    pub swarms: Vec<SwarmStatus>,
    /// Synchronization windows the engine executed.
    pub windows: u64,
    /// Threads the engine pool used.
    pub threads: usize,
    /// Total devices simulated.
    pub devices: usize,
    /// Gateway frames routed onto inter-swarm links.
    pub routed: u64,
    /// Federation-tier ACKs consumed by emitters.
    pub acked: u64,
    /// The federated telemetry rollup (per-swarm registries merged in
    /// shard order) rendered as JSON — the byte-identity artifact CI
    /// diffs across thread counts.
    pub federated_json: String,
    /// The merged snapshot itself, for programmatic totals.
    pub federated: Snapshot,
    /// Wall time per phase of this run.
    pub wall: RunWall,
}

impl FederationReport {
    /// Conservation held in every member swarm.
    #[must_use]
    pub fn all_conserved(&self) -> bool {
        self.swarms.iter().all(|s| s.conserved)
    }

    /// Sum of a counter across the federation (from the merged
    /// rollup).
    #[must_use]
    pub fn federated_counter(&self, name: &str) -> u64 {
        self.federated.counter_total(name)
    }

    /// Total gateway frames consumed across the federation. Always at
    /// most [`routed`](Self::routed): frames still traversing a
    /// gateway link at the horizon are in flight, not lost.
    #[must_use]
    pub fn federated_ingress(&self) -> u64 {
        self.federated.counter_total(tn::GATEWAY_INGRESS)
    }

    /// Per-member rows plus federated totals as one JSON document (the
    /// campaign artifact's `federation` section).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.swarms.iter().map(SwarmStatus::to_json).collect();
        format!(
            "{{\"swarms\":{},\"devices\":{},\"windows\":{},\"threads\":{},\
             \"routed\":{},\"acked\":{},\"federated\":{{\"sensed\":{},\
             \"played\":{},\"stale\":{},\"shed_source\":{},\"shed_queue\":{},\
             \"lost\":{},\"gateway_egress\":{},\"gateway_ingress\":{},\
             \"conserved\":{}}},\"members\":[{}]}}",
            self.swarms.len(),
            self.devices,
            self.windows,
            self.threads,
            self.routed,
            self.acked,
            self.federated_counter(tn::SOURCE_SENSED),
            self.federated_counter(tn::SINK_PLAYED),
            self.federated_counter(tn::SINK_STALE),
            self.federated_counter(tn::SOURCE_SHED),
            self.federated_counter(tn::EXEC_SHED_IN_QUEUE),
            self.federated_counter(tn::EXEC_LOST),
            self.federated_counter(tn::GATEWAY_EGRESS),
            self.federated_counter(tn::GATEWAY_INGRESS),
            self.all_conserved(),
            rows.join(",")
        )
    }
}

/// A built federation, ready to run (or to have chaos scheduled onto
/// its members first).
#[derive(Debug)]
pub struct Federation {
    shards: Vec<Shard>,
    config: FederationConfig,
    telemetry: Vec<Telemetry>,
}

fn member_graph() -> AppGraph {
    let mut g = AppGraph::new("federation-member");
    let s = g.add_source("cam");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).expect("valid edge");
    g.connect(o, k).expect("valid edge");
    g
}

pub(crate) fn member_registry(frames: u64) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("cam", move || {
        let count = AtomicU64::new(0);
        swing_core::unit::closure_source(move |_now| {
            if count.fetch_add(1, Ordering::Relaxed) < frames {
                Some(Tuple::new().with("v", 1i64))
            } else {
                None
            }
        })
    });
    r.register_operator("work", || swing_core::unit::PassThrough);
    r.register_sink("out", || swing_core::unit::closure_sink(|_, _| ()));
    r
}

/// The member node configuration the federation standardizes on when
/// no shared [`SwarmConfig`](swing_runtime::config::SwarmConfig) is
/// supplied: the chaos-campaign settings (retransmission on, a reorder
/// span wide enough that churn converts to staleness rather than
/// skips) at the federation's capture rate. The campaign's 8192-entry
/// dedup window is a bound, not a reservation — a window holds what its
/// upstream has sent — so a federated sink's one window per operator
/// host costs the same here as under any smaller bound.
fn member_sim_config(seed: u64, fps: f64) -> SimSwarmConfig {
    let mut c = crate::campaign::sim_config(seed);
    c.node.input_fps = fps;
    c
}

impl Federation {
    /// Instantiate `config.swarms` members, all from the same graph
    /// and node configuration, each with a forked seed and a private
    /// telemetry domain, wired in a gateway ring of
    /// `config.gateway_fanout` outbound links per member.
    ///
    /// # Errors
    /// Propagates a member swarm failing to start.
    ///
    /// # Panics
    /// If the gateway latency is below the conservative lookahead or
    /// the shape is degenerate (zero swarms/workers).
    pub fn build(config: FederationConfig) -> swing_core::Result<Federation> {
        Self::build_with(config, None)
    }

    /// Like [`build`](Self::build), but seeding every member's node
    /// configuration from one shared
    /// [`SwarmConfig`](swing_runtime::config::SwarmConfig) — the same
    /// knobs a live `LocalSwarmBuilder` consumes, instantiated K
    /// times. Sim-only knobs keep the federation defaults and each
    /// member still gets a private telemetry domain.
    pub fn build_with(
        config: FederationConfig,
        shared: Option<&swing_runtime::config::SwarmConfig>,
    ) -> swing_core::Result<Federation> {
        assert!(config.swarms > 0, "a federation needs at least one swarm");
        assert!(
            config.workers_per_swarm > 0,
            "a member swarm needs at least one worker"
        );
        assert!(
            config.gateway_latency_us >= timing::GATEWAY_MIN_LATENCY_US,
            "gateway latency {} us is below the conservative lookahead {} us",
            config.gateway_latency_us,
            timing::GATEWAY_MIN_LATENCY_US
        );
        let mut master = DetRng::seed_from_u64(config.seed);
        let mut shards = Vec::with_capacity(config.swarms);
        let mut telemetry = Vec::with_capacity(config.swarms);
        for i in 0..config.swarms {
            let member_seed = master.fork(i as u64).next_u64();
            let sim_cfg = match shared {
                Some(s) => {
                    let mut c = SimSwarmConfig::from_swarm(s);
                    c.seed = member_seed;
                    c.node.telemetry = Telemetry::new();
                    c
                }
                None => member_sim_config(member_seed, config.input_fps),
            };
            // Same worker names in every member: merged metric keys
            // collide on purpose, so the rollup sums to federated
            // totals instead of exploding into per-member rows.
            let workers: Vec<(String, UnitRegistry)> = (0..config.workers_per_swarm)
                .map(|w| {
                    let frames = if w == 0 { config.frames_per_source } else { 0 };
                    (format!("w{w}"), member_registry(frames))
                })
                .collect();
            let mut swarm = SimSwarm::start(member_graph(), workers, sim_cfg)?;
            if config.swarms > 1 && config.gateway_fanout > 0 {
                swarm.enable_gateway(config.egress_sample_every);
            }
            telemetry.push(swarm.telemetry().clone());
            shards.push(Shard::new(i, swarm));
        }
        // Ring-with-chords topology: member i links to the next
        // `fanout` members, wrapped. Deterministic construction order;
        // each link's jitter stream forks from the master seed.
        let fanout = config.gateway_fanout.min(config.swarms.saturating_sub(1));
        for i in 0..config.swarms {
            for k in 1..=fanout {
                let j = (i + k) % config.swarms;
                shard::connect(
                    &mut shards,
                    i,
                    j,
                    config.gateway_latency_us,
                    config.gateway_jitter_us,
                    &mut master,
                );
            }
        }
        Ok(Federation {
            shards,
            config,
            telemetry,
        })
    }

    /// Total devices across the federation.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.config.swarms * self.config.workers_per_swarm
    }

    /// Mutable access to member `i`'s swarm, for scheduling chaos
    /// (crashes, joins, partitions, master outages) before the run.
    pub fn swarm_mut(&mut self, i: usize) -> &mut SimSwarm {
        &mut self.shards[i].swarm
    }

    /// Run the windowed engine to the configured horizon, drain every
    /// member's in-flight tail, and roll the telemetry up.
    ///
    /// Consumes the federation: draining a member's tail
    /// ([`SimSwarm::finish`]) flushes its sinks and sheds whatever its
    /// mailboxes still hold, which is what makes the conservation
    /// identity exact.
    #[must_use]
    pub fn run(mut self) -> FederationReport {
        let mut wall = RunWall::default();
        let mut lap = Instant::now();
        // Charge the time since the last lap to one phase.
        let mut charge = |phase: &mut Duration| {
            let now = Instant::now();
            *phase += now - lap;
            lap = now;
        };
        let engine = shard::run_to_horizon(
            &mut self.shards,
            timing::GATEWAY_MIN_LATENCY_US,
            self.config.horizon_us,
            self.config.threads,
        );
        charge(&mut wall.engine);
        let mut routed = 0u64;
        let mut acked = 0u64;
        let mut swarms = Vec::with_capacity(self.shards.len());
        let mut federated = Snapshot::default();
        // finish() is serial: the engine stopped, members no longer
        // exchange, and each tail drain touches only member state.
        for (shard, telemetry) in self.shards.into_iter().zip(self.telemetry) {
            let id = shard.id();
            routed += shard.routed();
            acked += shard.acked();
            let swarm = shard.swarm;
            let epoch = swarm.epoch();
            let alive_workers = swarm.alive_workers().len();
            let (gw_egress, gw_ingress) = swarm.gateway_counts();
            let _ = swarm.finish();
            charge(&mut wall.finish);
            // The member's registry is walked once: its status row is
            // read by name, then its series fold into the rollup — in
            // shard order, which makes the JSON below the byte-identity
            // artifact.
            let registry = telemetry.registry();
            let sensed = registry.counter_total(tn::SOURCE_SENSED);
            let played = registry.counter_total(tn::SINK_PLAYED);
            let stale = registry.counter_total(tn::SINK_STALE);
            let shed_source = registry.counter_total(tn::SOURCE_SHED);
            let shed_queue = registry.counter_total(tn::EXEC_SHED_IN_QUEUE);
            let lost = registry.counter_total(tn::EXEC_LOST);
            swarms.push(SwarmStatus {
                id,
                epoch,
                alive_workers,
                sensed,
                played,
                stale,
                shed_source,
                shed_queue,
                lost,
                gateway_egress: gw_egress,
                gateway_ingress: gw_ingress,
                p99_e2e_us: registry.histogram_total(tn::SINK_E2E_LATENCY_US).p99(),
                conserved: lost == 0
                    && sensed == (played + stale) + shed_source + shed_queue + lost,
            });
            charge(&mut wall.status);
            registry.merge_into(&mut federated);
            charge(&mut wall.rollup);
            // The swarm is gone: this was the last handle to its domain.
            drop(telemetry);
            charge(&mut wall.teardown);
        }
        let federated_json = to_json(&federated);
        charge(&mut wall.export);
        FederationReport {
            swarms,
            windows: engine.windows,
            threads: engine.threads,
            devices: self.config.swarms * self.config.workers_per_swarm,
            routed,
            acked,
            federated_json,
            federated,
            wall,
        }
    }
}
