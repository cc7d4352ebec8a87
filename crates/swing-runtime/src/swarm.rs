//! High-level swarm assembly: build a master and a set of worker nodes
//! in one process (threads connected by channels or loopback sockets), run
//! the app, and collect sink statistics.
//!
//! ```no_run
//! use swing_core::graph::AppGraph;
//! use swing_core::routing::Policy;
//! use swing_core::unit::{closure_sink, closure_source, PassThrough};
//! use swing_runtime::registry::UnitRegistry;
//! use swing_runtime::swarm::LocalSwarm;
//! use swing_core::Tuple;
//!
//! let mut g = AppGraph::new("demo");
//! let s = g.add_source("src");
//! let o = g.add_operator("work");
//! let k = g.add_sink("out");
//! g.connect(s, o).unwrap();
//! g.connect(o, k).unwrap();
//!
//! let registry = || {
//!     let mut r = UnitRegistry::new();
//!     r.register_source("src", || closure_source(|_| Some(Tuple::new())));
//!     r.register_operator("work", || PassThrough);
//!     r.register_sink("out", || closure_sink(|_, _| ()));
//!     r
//! };
//! let mut swarm = LocalSwarm::builder(g)
//!     .policy(Policy::Lrs)
//!     .input_fps(24.0)
//!     .worker("A", registry())
//!     .worker("B", registry())
//!     .start()
//!     .unwrap();
//! std::thread::sleep(std::time::Duration::from_secs(1));
//! let reports = swarm.stop();
//! println!("{} results", reports[0].1.consumed);
//! ```

use crate::chaos::{ChaosControl, FaultPlan};
use crate::checkpoint::StoreHandle;
use crate::config::SwarmConfig;
use crate::executor::{DeliveryStats, NodeConfig, SinkReport};
use crate::fabric::Fabric;
use crate::master::{Master, MasterConfig, Placement};
use crate::node::WorkerNode;
use crate::registry::UnitRegistry;
use std::time::Duration;
use swing_core::config::{ReorderConfig, RetryConfig};
use swing_core::flow::FlowConfig;
use swing_core::graph::AppGraph;
use swing_core::routing::{Policy, RouterConfig};
use swing_core::{Error, Result};
use swing_telemetry::Telemetry;

/// Per-unit delivery counters: `(worker name, unit, counters)`.
pub type DeliveryByUnit = Vec<(String, swing_core::UnitId, DeliveryStats)>;

/// Builder for a [`LocalSwarm`].
///
/// All per-knob methods are shorthands over one [`SwarmConfig`] — build
/// a config up front and pass it to [`config`](Self::config) to share
/// the exact same knobs with a [`SimSwarm`](crate::sim::SimSwarm) run.
#[derive(Debug)]
pub struct LocalSwarmBuilder {
    graph: AppGraph,
    config: SwarmConfig,
    placement: Placement,
    checkpoint: Option<StoreHandle>,
    transport: Transport,
    workers: Vec<(String, UnitRegistry)>,
}

/// Which fabric [`LocalSwarmBuilder::start`] constructs. Deferred to
/// start so networked fabrics pick up the final `SwarmConfig::net`
/// knobs and telemetry domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    InProc,
    Reactor,
}

impl LocalSwarmBuilder {
    /// Replace every shared knob at once with a prebuilt [`SwarmConfig`]
    /// (routing, pacing, reorder, retry, overload control, telemetry,
    /// clock, chaos plan).
    #[must_use]
    pub fn config(mut self, config: SwarmConfig) -> Self {
        self.config = config;
        self
    }

    /// Route with the given policy (default LRS).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.router = RouterConfig::new(policy);
        self
    }

    /// Full router configuration.
    #[must_use]
    pub fn router_config(mut self, config: RouterConfig) -> Self {
        self.config.router = config;
        self
    }

    /// Source sensing rate in tuples per second (default 24).
    #[must_use]
    pub fn input_fps(mut self, fps: f64) -> Self {
        self.config.input_fps = fps;
        self
    }

    /// Sink reorder span (default 1 s).
    #[must_use]
    pub fn reorder(mut self, reorder: ReorderConfig) -> Self {
        self.config.reorder = reorder;
        self
    }

    /// ACK-deadline retransmission configuration (default enabled; pass
    /// [`RetryConfig::disabled`] for the fire-and-forget baseline).
    #[must_use]
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.config.retry = retry;
        self
    }

    /// Overload control: bounded mailboxes, credit-based source
    /// admission, and the shed policy (default
    /// [`FlowConfig::disabled`]). Requires retries — credits are
    /// metered by the in-flight table.
    #[must_use]
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.config.flow = flow;
        self
    }

    /// Emit metrics into an externally owned [`Telemetry`] domain (e.g.
    /// one scraped by an exporter). By default every swarm gets a fresh
    /// domain, shared by all of its workers and reachable via
    /// [`LocalSwarm::telemetry`].
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Drive every executor in the swarm from this clock (default: the
    /// process-global real clock, so timestamps stay comparable across
    /// swarms). The live threads still schedule with real waits — for
    /// discrete-event virtual time use [`crate::sim::SimSwarm`], which
    /// single-threads the same dispatch machinery.
    #[must_use]
    pub fn clock(mut self, clock: swing_core::clock::ClockHandle) -> Self {
        self.config.clock = clock;
        self
    }

    /// Wrap the swarm's fabric in deterministic fault injection. The
    /// control handle is available from [`LocalSwarm::chaos`] after
    /// start.
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.config.chaos = Some(plan);
        self
    }

    /// Use loopback sockets instead of in-process channels: the
    /// non-blocking reactor fabric, every link multiplexed on one
    /// [`swing_reactor`] thread, the configuration that scales a single
    /// process to 1000-worker swarms. Reactor metrics land in the
    /// swarm's telemetry domain.
    #[must_use]
    pub fn reactor(mut self) -> Self {
        self.transport = Transport::Reactor;
        self
    }

    /// Network timing knobs (dial timeout, registry heartbeat interval
    /// and lease TTL) used by the reactor fabric.
    #[must_use]
    pub fn net(mut self, timeouts: swing_net::NetTimeouts) -> Self {
        self.config.net = timeouts;
        self
    }

    /// Stage placement strategy (default: source/sink on first worker).
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Enable master-side liveness probing: silent workers are removed
    /// from the roster and deployment after the configured timeout,
    /// and their units are re-placed onto the survivors.
    #[must_use]
    pub fn heartbeat(mut self, config: crate::master::HeartbeatConfig) -> Self {
        self.config.heartbeat = Some(config);
        self
    }

    /// Persist the master's control state to this store on every
    /// membership change. A master spawned later against the same store
    /// (see [`LocalSwarm::recover_master`]) resumes from the checkpoint
    /// instead of cold-starting.
    #[must_use]
    pub fn checkpoint(mut self, store: StoreHandle) -> Self {
        self.checkpoint = Some(store);
        self
    }

    /// Add a worker device with its installed units. The first worker
    /// hosts the source and sink (device `A` in the paper).
    #[must_use]
    pub fn worker(mut self, name: impl Into<String>, registry: UnitRegistry) -> Self {
        self.workers.push((name.into(), registry));
        self
    }

    /// Launch the master and all workers; returns once the deployment
    /// has started (master broadcast Start).
    pub fn start(self) -> Result<LocalSwarm> {
        if self.workers.is_empty() {
            return Err(Error::Malformed("a swarm needs at least one worker".into()));
        }
        self.config.validate()?;
        let node_config = self.config.node_config();
        let base = match self.transport {
            Transport::InProc => Fabric::in_proc(),
            Transport::Reactor => Fabric::reactor_with(
                swing_reactor::ReactorConfig {
                    timeouts: self.config.net,
                    ..swing_reactor::ReactorConfig::default()
                },
                Some(&node_config.telemetry),
            ),
        };
        let (fabric, chaos) = match self.config.chaos {
            Some(plan) => {
                let (f, ctl) = Fabric::chaos(base, plan);
                (f, Some(ctl))
            }
            None => (base, None),
        };
        // Event timestamps follow the injected clock (real or virtual).
        let tel_clock = node_config.clock.clone();
        node_config
            .telemetry
            .set_time_source(move || tel_clock.now_us());
        let master_config = MasterConfig {
            expected_workers: self.workers.len(),
            placement: self.placement,
            heartbeat: self.config.heartbeat,
            clock: node_config.clock.clone(),
            checkpoint: self.checkpoint,
            ..MasterConfig::default()
        };
        let master = Master::spawn(self.graph, master_config.clone(), fabric.clone())?;
        let mut nodes = Vec::new();
        for (name, registry) in self.workers {
            nodes.push(WorkerNode::spawn(
                name,
                fabric.clone(),
                master.addr(),
                registry,
                node_config.clone(),
            )?);
            // Workers join in the order given (the first hosts source
            // and sink), whatever order the fabric would have delivered
            // their `Join`s in.
            if !(master.status()).wait_admitted(nodes.len(), Duration::from_secs(10)) {
                return Err(Error::DiscoveryTimeout);
            }
        }
        if !master.status().wait_started(Duration::from_secs(10)) {
            return Err(Error::DiscoveryTimeout);
        }
        Ok(LocalSwarm {
            master,
            master_config,
            nodes,
            fabric,
            node_config,
            chaos,
        })
    }
}

/// A running swarm of in-process worker nodes under one master.
#[derive(Debug)]
pub struct LocalSwarm {
    master: Master,
    master_config: MasterConfig,
    nodes: Vec<WorkerNode>,
    fabric: Fabric,
    node_config: NodeConfig,
    chaos: Option<ChaosControl>,
}

impl LocalSwarm {
    /// Start building a swarm for `graph`.
    #[must_use]
    pub fn builder(graph: AppGraph) -> LocalSwarmBuilder {
        LocalSwarmBuilder {
            graph,
            config: SwarmConfig::default(),
            placement: Placement::SourceOnFirst,
            checkpoint: None,
            transport: Transport::InProc,
            workers: Vec::new(),
        }
    }

    /// The fault-injection control handle, when the swarm was built
    /// with [`LocalSwarmBuilder::chaos`].
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosControl> {
        self.chaos.as_ref()
    }

    /// The telemetry domain every worker in this swarm emits into:
    /// scrape it live with [`Telemetry::prometheus_text`] /
    /// [`Telemetry::to_json`], or attach a
    /// [`swing_telemetry::SnapshotExporter`].
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.node_config.telemetry
    }

    /// The dialable data address of the named worker (e.g. to target it
    /// with [`ChaosControl::partition`] or a scheduled crash).
    #[must_use]
    pub fn worker_addr(&self, name: &str) -> Option<String> {
        self.nodes
            .iter()
            .find(|n| n.name() == name)
            .map(|n| n.data_addr().to_owned())
    }

    /// The master's control address (for external workers to join).
    #[must_use]
    pub fn master_addr(&self) -> &str {
        self.master.addr()
    }

    /// The fabric this swarm runs on (e.g. to dial extra links, or to
    /// reach the reactor handle for registry wiring on a
    /// [`reactor`](LocalSwarmBuilder::reactor) swarm).
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The master's live status: started flag, current deployment,
    /// deployment epoch, evicted workers, per-unit deploy counts.
    #[must_use]
    pub fn master_status(&self) -> std::sync::Arc<crate::master::MasterStatus> {
        self.master.status()
    }

    /// Kill the master abruptly: its control thread exits without
    /// telling anyone, like a master-device crash. The data plane keeps
    /// flowing (routes are already installed on the workers). Recover
    /// with [`recover_master`](Self::recover_master) — the swarm must
    /// have been built with [`LocalSwarmBuilder::checkpoint`] for the
    /// new incarnation to adopt the running deployment.
    pub fn kill_master(&mut self) {
        self.master.kill();
    }

    /// Spawn a replacement master after [`kill_master`](Self::kill_master).
    ///
    /// `graph` must be the same application (the checkpoint records its
    /// shape and rejects a mismatch). The new master loads the
    /// checkpoint, hails the recorded workers, adopts the units they
    /// still run, and re-places anything hosted by workers that died
    /// while no master was watching.
    pub fn recover_master(&mut self, graph: AppGraph) -> Result<()> {
        self.master = Master::spawn(graph, self.master_config.clone(), self.fabric.clone())?;
        Ok(())
    }

    /// Per-worker activation counters: how many times each unit's
    /// executor was actually spawned on that worker. Recovery that
    /// *adopts* running units leaves these at one.
    #[must_use]
    pub fn activation_counts(
        &self,
    ) -> Vec<(String, std::collections::HashMap<swing_core::UnitId, u64>)> {
        self.nodes
            .iter()
            .map(|n| (n.name().to_owned(), n.activation_counts()))
            .collect()
    }

    /// Let the app run for a while.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Add a worker while the app is running (the paper's Fig. 9 join).
    pub fn add_worker(&mut self, name: impl Into<String>, registry: UnitRegistry) -> Result<()> {
        let node = WorkerNode::spawn(
            name,
            self.fabric.clone(),
            self.master.addr(),
            registry,
            self.node_config.clone(),
        )?;
        self.nodes.push(node);
        Ok(())
    }

    /// Abruptly kill a worker by name (the paper's Fig. 9 leave).
    /// Returns whether a worker with that name existed.
    pub fn kill_worker(&mut self, name: &str) -> bool {
        if let Some(idx) = self.nodes.iter().position(|n| n.name() == name) {
            let mut node = self.nodes.remove(idx);
            node.stop();
            true
        } else {
            false
        }
    }

    /// Names of the currently running workers.
    pub fn worker_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.name().to_owned()).collect()
    }

    /// The master's current deployment (updated on churn; with
    /// heartbeats enabled, silently dead workers disappear from it).
    #[must_use]
    pub fn deployment(&self) -> swing_core::graph::Deployment {
        self.master.status().deployment()
    }

    /// Latest routing-table snapshots across the whole swarm:
    /// `(worker name, unit, snapshot)` for every unit that has
    /// dispatched tuples. Useful for observing which downstreams LRS
    /// selected and how it weighted them.
    pub fn router_snapshots(
        &self,
    ) -> Vec<(
        String,
        swing_core::UnitId,
        swing_core::routing::RouterSnapshot,
    )> {
        let mut out = Vec::new();
        for node in &self.nodes {
            for (unit, snap) in node.router_snapshots() {
                out.push((node.name().to_owned(), unit, snap));
            }
        }
        out
    }

    /// Per-unit delivery counters across the whole swarm:
    /// `(worker name, unit, stats)` for every executor on a live worker.
    ///
    /// Built from one [`Telemetry`] snapshot, so the five counters of
    /// each unit are read in a single consistent pass — and, counters
    /// being monotone atomics, a value observed here can never exceed
    /// what the next call observes.
    pub fn delivery_stats(&self) -> DeliveryByUnit {
        let live = self.worker_names();
        delivery_from_snapshot(&self.node_config.telemetry.snapshot(), &live)
    }

    /// Swarm-wide delivery counters, merged over every unit.
    #[must_use]
    pub fn delivery_totals(&self) -> DeliveryStats {
        let mut total = DeliveryStats::default();
        for (_, _, s) in self.delivery_stats() {
            total.merge(&s);
        }
        total
    }

    /// Stop everything and collect `(worker name, sink report)` pairs for
    /// every sink instance in the swarm.
    pub fn stop(self) -> Vec<(String, SinkReport)> {
        self.stop_with_delivery().0
    }

    /// Like [`stop`](Self::stop), but also return the final per-unit
    /// delivery counters (executors publish them on shutdown).
    pub fn stop_with_delivery(mut self) -> (Vec<(String, SinkReport)>, DeliveryByUnit) {
        self.master.stop();
        let mut reports = Vec::new();
        for node in &mut self.nodes {
            let meters = node.sink_meters();
            node.stop();
            for (_, meter) in meters {
                reports.push((node.name().to_owned(), meter.report()));
            }
        }
        let delivery = self.delivery_stats();
        (reports, delivery)
    }
}

/// Group a registry snapshot's `swing_exec_*_total` counters back into
/// per-unit [`DeliveryStats`], keeping only metrics of live workers (a
/// killed worker's counters stay in the registry but no longer describe
/// a running executor). Shared with the deterministic harness
/// ([`crate::sim::SimSwarm`]), whose stats must group identically.
pub(crate) fn delivery_from_snapshot(
    snap: &swing_telemetry::Snapshot,
    live: &[String],
) -> DeliveryByUnit {
    use std::collections::BTreeMap;
    use swing_telemetry::names as n;
    let mut map: BTreeMap<(String, u32), DeliveryStats> = BTreeMap::new();
    {
        let mut fill = |name: &str, pick: fn(&mut DeliveryStats) -> &mut u64| {
            for (key, value) in snap.counters_named(name) {
                let (Some(worker), Some(unit)) =
                    (key.label(n::LABEL_WORKER), key.label(n::LABEL_UNIT))
                else {
                    continue;
                };
                let Ok(unit) = unit.parse::<u32>() else {
                    continue;
                };
                if !live.iter().any(|w| w == worker) {
                    continue;
                }
                *pick(map.entry((worker.to_string(), unit)).or_default()) += value;
            }
        };
        fill(n::EXEC_SENT, |d| &mut d.sent);
        fill(n::EXEC_ACKED, |d| &mut d.acked);
        fill(n::EXEC_RETRIED, |d| &mut d.retried);
        fill(n::EXEC_DUPLICATED, |d| &mut d.duplicated);
        fill(n::EXEC_LOST, |d| &mut d.lost);
    }
    map.into_iter()
        .map(|((worker, unit), stats)| (worker, swing_core::UnitId(unit), stats))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use swing_core::unit::{closure_sink, closure_source, closure_unit, Context};
    use swing_core::Tuple;

    fn pipeline_graph() -> AppGraph {
        let mut g = AppGraph::new("test-app");
        let s = g.add_source("src");
        let o = g.add_operator("double");
        let k = g.add_sink("out");
        g.connect(s, o).unwrap();
        g.connect(o, k).unwrap();
        g
    }

    fn registry(consumed: Option<Arc<AtomicU64>>) -> UnitRegistry {
        let mut r = UnitRegistry::new();
        r.register_source("src", || {
            closure_source(|_now| Some(Tuple::new().with("x", 21i64)))
        });
        r.register_operator("double", || {
            closure_unit(|t: Tuple, ctx: &mut Context<'_>| {
                let x = t.i64("x").unwrap();
                ctx.send(Tuple::new().with("x", x * 2));
            })
        });
        let consumed = consumed.unwrap_or_default();
        r.register_sink("out", move || {
            let c = Arc::clone(&consumed);
            closure_sink(move |t: Tuple, _| {
                assert_eq!(t.i64("x").unwrap(), 42);
                c.fetch_add(1, Ordering::Relaxed);
            })
        });
        r
    }

    #[test]
    fn in_proc_swarm_runs_the_full_workflow() {
        let consumed = Arc::new(AtomicU64::new(0));
        let swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(200.0)
            .worker("A", registry(Some(Arc::clone(&consumed))))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(800));
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(total > 50, "only {total} tuples consumed");
        assert_eq!(consumed.load(Ordering::Relaxed), total);
        // End-to-end latency at 200 FPS through two hops stays small.
        let (_, r) = &reports[0];
        assert!(r.latency_ms.mean() < 250.0, "{}", r.latency_ms.mean());
    }

    #[test]
    fn reactor_swarm_runs_the_full_workflow() {
        let swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(100.0)
            .reactor()
            .worker("A", registry(None))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(700));
        // All links multiplex on the reactor; its metrics land in the
        // swarm's telemetry domain.
        let snap = swarm.telemetry().snapshot();
        let frames = snap.counter_total(swing_telemetry::names::REACTOR_FRAMES_SENT);
        assert!(frames > 0, "no frames counted on the reactor");
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(total > 20, "only {total} tuples consumed over the reactor");
    }

    #[test]
    fn worker_joins_mid_run() {
        let mut swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(100.0)
            .worker("A", registry(None))
            .worker("B", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(200));
        swarm.add_worker("C", registry(None)).unwrap();
        swarm.run_for(Duration::from_millis(400));
        assert_eq!(swarm.worker_names(), vec!["A", "B", "C"]);
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(total > 20, "only {total} consumed");
    }

    #[test]
    fn worker_leaving_does_not_stop_the_app() {
        let mut swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(100.0)
            .worker("A", registry(None))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(300));
        assert!(swarm.kill_worker("C"));
        assert!(!swarm.kill_worker("C"));
        swarm.run_for(Duration::from_millis(400));
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        // The app kept producing after the leave.
        assert!(total > 40, "only {total} consumed");
    }

    #[test]
    fn heartbeat_prunes_a_silently_dead_worker() {
        let mut swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(100.0)
            .heartbeat(crate::master::HeartbeatConfig {
                interval: Duration::from_millis(100),
                timeout: Duration::from_millis(400),
            })
            .worker("A", registry(None))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(300));
        let before = swarm.deployment().len();
        assert!(before >= 4, "expected full deployment, got {before}");
        // Kill C abruptly: its node thread dies without sending Leave.
        assert!(swarm.kill_worker("C"));
        // Within a couple of heartbeat timeouts the master prunes C's
        // units from the deployment.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let now_len = swarm.deployment().len();
            if now_len < before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "master never pruned the dead worker (still {now_len} units)"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // The app keeps running on the survivors.
        swarm.run_for(Duration::from_millis(300));
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(total > 20, "only {total} consumed");
    }

    #[test]
    fn router_snapshots_expose_live_routing_state() {
        let swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(200.0)
            .worker("A", registry(None))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(800));
        let snaps = swarm.router_snapshots();
        // At least the source on A has dispatched enough to publish.
        let (name, _, snap) = snaps
            .iter()
            .find(|(name, _, _)| name == "A")
            .expect("no snapshot from A");
        assert_eq!(name, "A");
        // Source routes to the `double` replicas on B and C.
        assert_eq!(snap.routes.len(), 2);
        let total: f64 = snap.routes.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(snap.routes.iter().all(|r| r.acked > 0));
        swarm.stop();
    }

    /// Regression test for the non-atomic delivery reads: every call to
    /// `delivery_stats` is one consistent registry pass over monotone
    /// counters, so no counter may ever be observed decreasing while
    /// the swarm runs — and the distinct-ACK invariant
    /// `acked <= sent + retried` holds within a single snapshot (an ACK
    /// is only counted after its transmission was).
    #[test]
    fn delivery_stats_snapshots_are_monotone_and_consistent() {
        let swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(400.0)
            .worker("A", registry(None))
            .worker("B", registry(None))
            .start()
            .unwrap();
        let mut prev = DeliveryStats::default();
        for _ in 0..40 {
            let total = swarm.delivery_totals();
            assert!(total.sent >= prev.sent, "sent went backwards");
            assert!(total.acked >= prev.acked, "acked went backwards");
            assert!(total.retried >= prev.retried, "retried went backwards");
            assert!(total.lost >= prev.lost, "lost went backwards");
            assert!(
                total.duplicated >= prev.duplicated,
                "duplicated went backwards"
            );
            assert!(
                total.acked <= total.sent + total.retried,
                "acked {} outran transmissions {}+{}",
                total.acked,
                total.sent,
                total.retried
            );
            prev = total;
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(prev.sent > 0, "the swarm never dispatched anything");
        swarm.stop();
    }

    /// A killed worker's counters drop out of `delivery_stats` (they
    /// stay in the registry but no longer describe a live executor),
    /// while the survivors' keep accumulating.
    #[test]
    fn delivery_stats_exclude_killed_workers() {
        let mut swarm = LocalSwarm::builder(pipeline_graph())
            .policy(Policy::Lrs)
            .input_fps(200.0)
            .worker("A", registry(None))
            .worker("B", registry(None))
            .worker("C", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(300));
        assert!(swarm.delivery_stats().iter().any(|(w, _, _)| w == "C"));
        assert!(swarm.kill_worker("C"));
        assert!(
            swarm.delivery_stats().iter().all(|(w, _, _)| w != "C"),
            "killed worker still reported"
        );
        swarm.stop();
    }

    #[test]
    fn empty_swarm_is_rejected() {
        assert!(LocalSwarm::builder(pipeline_graph()).start().is_err());
    }

    #[test]
    fn single_worker_hosts_everything() {
        let swarm = LocalSwarm::builder(pipeline_graph())
            .input_fps(100.0)
            .worker("A", registry(None))
            .start()
            .unwrap();
        swarm.run_for(Duration::from_millis(300));
        let reports = swarm.stop();
        let total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(total > 10, "only {total} consumed");
    }
}
