//! The worker node: one mobile device participating in the swarm.
//!
//! A node owns a message inbox on the [`Fabric`], a control connection to
//! the master, the installed [`UnitRegistry`], and the executors of the
//! function units the master activated on it (§IV-B steps 2–4).

use crate::executor::{
    spawn, DeliveryStats, ExecHandle, ExecMsg, ExecProbe, NodeConfig, SinkMeter,
};
use crate::fabric::{Fabric, MsgSender};
use crate::lock;
use crate::registry::UnitRegistry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use swing_core::graph::StageId;
use swing_core::Result;
use swing_core::{DeviceId, UnitId};
use swing_net::Message;

/// Shared slot an executor publishes its latest probe into.
type ProbeSlot = Arc<Mutex<Option<ExecProbe>>>;

/// How a node joins a swarm through the registry: where the
/// [`RegistryServer`](swing_reactor::RegistryServer) lives, which app's
/// master to look up, and the [`Heartbeater`](swing_reactor::Heartbeater)
/// that will keep the node's own lease renewed. Passed to
/// [`WorkerNode::register_and_spawn`].
#[derive(Debug)]
pub struct RegistryJoin<'a> {
    /// Dialable address of the registry service.
    pub registry_addr: &'a str,
    /// Application namespace for both the lookup and the registration.
    pub app: &'a str,
    /// Renews this node's `(app, "worker")` lease; shared by every
    /// node in the process.
    pub heartbeater: &'a swing_reactor::Heartbeater,
    /// Transport timing — bounds the master lookup and sets the lease
    /// interval/TTL.
    pub timeouts: swing_net::NetTimeouts,
}

/// A running worker node.
#[derive(Debug)]
pub struct WorkerNode {
    name: String,
    data_addr: String,
    inbox_tx: MsgSender,
    join: Option<JoinHandle<()>>,
    meters: Arc<Mutex<HashMap<UnitId, Arc<SinkMeter>>>>,
    probes: Arc<Mutex<HashMap<UnitId, ProbeSlot>>>,
    activations: Arc<Mutex<HashMap<UnitId, u64>>>,
}

impl WorkerNode {
    /// Spawn a node: create its inbox, join the master at `master_addr`,
    /// and serve until stopped.
    pub fn spawn(
        name: impl Into<String>,
        fabric: Fabric,
        master_addr: &str,
        registry: UnitRegistry,
        config: NodeConfig,
    ) -> Result<WorkerNode> {
        let name = name.into();
        // Metrics emitted by this node's executors carry its name.
        let mut config = config;
        config.worker_label.clone_from(&name);
        let (data_addr, inbox) = fabric.listen()?;
        // Keep a sender to our own inbox so `stop` can nudge the loop.
        let inbox_tx = fabric.dial_own(&data_addr)?;
        let master = fabric.dial(master_addr)?;
        master
            .send(Message::Join {
                device: DeviceId(0), // assigned by the master via Welcome
                name: name.clone(),
                listen_addr: data_addr.clone(),
            })
            .map_err(|_| {
                swing_core::Error::io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "master inbox is closed",
                ))
            })?;
        let meters: Arc<Mutex<HashMap<UnitId, Arc<SinkMeter>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let meters2 = Arc::clone(&meters);
        let probes: Arc<Mutex<HashMap<UnitId, ProbeSlot>>> = Arc::new(Mutex::new(HashMap::new()));
        let probes2 = Arc::clone(&probes);
        let activations: Arc<Mutex<HashMap<UnitId, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let activations2 = Arc::clone(&activations);
        let thread_name = format!("swing-node-{name}");
        let reg = registry;
        let fabric2 = fabric.clone();
        let master2 = master.clone();
        let node_name = name.clone();
        let listen_addr = data_addr.clone();
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let mut state = NodeState {
                    name: node_name,
                    device: DeviceId(0),
                    fabric: fabric2,
                    registry: reg,
                    config,
                    master: master2,
                    listen_addr,
                    executors: HashMap::new(),
                    stages: HashMap::new(),
                    max_epoch: 0,
                    dialed: HashMap::new(),
                    meters: meters2,
                    probes: probes2,
                    activations: activations2,
                };
                while let Ok(msg) = inbox.recv() {
                    if !state.handle(msg) {
                        break;
                    }
                }
                for (_, mut h) in state.executors.drain() {
                    h.stop();
                }
            })
            .expect("spawn node thread");
        Ok(WorkerNode {
            name,
            data_addr,
            inbox_tx,
            join: Some(join),
            meters,
            probes,
            activations,
        })
    }

    /// Discover the master through a [`RegistryServer`] (§IV-C's
    /// Discovery Service) and join it, then register this node's own
    /// data address as an `(app, "worker")` service kept alive by
    /// `heartbeater`: if the node dies, its lease lapses and the master
    /// (watching through
    /// [`Master::attach_registry`](crate::master::Master::attach_registry))
    /// evicts it and re-places its units. Requires a reactor fabric.
    ///
    /// Graceful leavers should pass [`service_entry`](Self::service_entry)
    /// to [`Heartbeater::remove`](swing_reactor::Heartbeater::remove)
    /// before stopping.
    ///
    /// [`RegistryServer`]: swing_reactor::RegistryServer
    pub fn register_and_spawn(
        name: impl Into<String>,
        fabric: Fabric,
        join: &RegistryJoin<'_>,
        registry: UnitRegistry,
        config: NodeConfig,
    ) -> Result<WorkerNode> {
        let Some(reactor) = fabric.reactor_handle() else {
            return Err(swing_core::Error::Malformed(
                "registry discovery requires a reactor fabric".into(),
            ));
        };
        let master = swing_reactor::await_service(
            reactor,
            join.registry_addr,
            join.app,
            "master",
            join.timeouts.connect,
            join.timeouts,
        )?;
        let node = WorkerNode::spawn(name, fabric, &master.addr, registry, config)?;
        join.heartbeater.add(node.service_entry(join.app))?;
        Ok(node)
    }

    /// The registry entry describing this node as an `(app, "worker")`
    /// service at its data address.
    #[must_use]
    pub fn service_entry(&self, app: &str) -> swing_net::ServiceEntry {
        swing_net::ServiceEntry {
            app: app.to_owned(),
            role: "worker".to_owned(),
            stage: String::new(),
            addr: self.data_addr.clone(),
        }
    }

    /// The node's human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's dialable data address.
    #[must_use]
    pub fn data_addr(&self) -> &str {
        &self.data_addr
    }

    /// Sink meters of every sink instance hosted on this node, keyed by
    /// unit id.
    #[must_use]
    pub fn sink_meters(&self) -> Vec<(UnitId, Arc<SinkMeter>)> {
        lock(&self.meters)
            .iter()
            .map(|(u, m)| (*u, Arc::clone(m)))
            .collect()
    }

    /// Latest routing-table snapshots of the units hosted on this node
    /// (units with no downstream edge — sinks, or units that never
    /// dispatched — are omitted). Available while running and after
    /// stop.
    #[must_use]
    pub fn router_snapshots(&self) -> Vec<(UnitId, swing_core::routing::RouterSnapshot)> {
        lock(&self.probes)
            .iter()
            .filter_map(|(u, p)| lock(p).as_ref().map(|s| (*u, s.router.clone())))
            .filter(|(_, s)| !s.routes.is_empty())
            .collect()
    }

    /// Latest delivery counters of every unit hosted on this node that
    /// has published a probe (including sinks, whose counters track the
    /// duplicates their dedup window suppressed).
    #[must_use]
    pub fn delivery_stats(&self) -> Vec<(UnitId, DeliveryStats)> {
        lock(&self.probes)
            .iter()
            .filter_map(|(u, p)| lock(p).as_ref().map(|s| (*u, s.delivery)))
            .collect()
    }

    /// How many times each unit on this node was actually activated
    /// (executor spawned). A master recovery that *adopts* running units
    /// leaves these counters untouched — the kill/recover test asserts
    /// every healthy unit stays at exactly one activation.
    #[must_use]
    pub fn activation_counts(&self) -> HashMap<UnitId, u64> {
        lock(&self.activations).clone()
    }

    /// Stop the node: shuts down its executors and control loop. Peers
    /// see the links break and re-route, exactly like an abrupt leave.
    pub fn stop(&mut self) {
        let _ = self.inbox_tx.send(Message::Stop);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for WorkerNode {
    fn drop(&mut self) {
        self.stop();
    }
}

struct NodeState {
    name: String,
    device: DeviceId,
    fabric: Fabric,
    registry: UnitRegistry,
    config: NodeConfig,
    master: MsgSender,
    /// Our own dialable address, re-announced on master recovery.
    listen_addr: String,
    executors: HashMap<UnitId, ExecHandle>,
    /// Stage each hosted unit instantiates (for `Announce`).
    stages: HashMap<UnitId, StageId>,
    /// Highest deployment epoch seen. Topology messages stamped with an
    /// older epoch come from a master view that has since moved on
    /// (e.g. we were pruned and re-placed) and are dropped — the fence
    /// that keeps zombie control traffic from corrupting live routes.
    max_epoch: u64,
    /// Cache of dialed peer inboxes by address.
    dialed: HashMap<String, MsgSender>,
    meters: Arc<Mutex<HashMap<UnitId, Arc<SinkMeter>>>>,
    probes: Arc<Mutex<HashMap<UnitId, ProbeSlot>>>,
    activations: Arc<Mutex<HashMap<UnitId, u64>>>,
}

impl NodeState {
    /// Handle one message; returns `false` to stop serving.
    fn handle(&mut self, msg: Message) -> bool {
        match msg {
            Message::Welcome { device } => {
                self.device = device;
            }
            Message::Activate {
                unit,
                stage,
                stage_name,
                epoch,
            } => {
                if self.fenced(epoch) {
                    return true;
                }
                if self.executors.contains_key(&unit) {
                    // Already running this unit (recovering master chose
                    // to redeploy what we adopted): keep the live one.
                    return true;
                }
                let Some(any) = self.registry.create(&stage_name) else {
                    // App not installed correctly; refuse politely.
                    let _ = self.master.send(Message::Leave {
                        device: self.device,
                    });
                    return true;
                };
                let is_sink = matches!(any, crate::registry::AnyUnit::Sink(_));
                let (handle, meter) = spawn(unit, any, self.config.clone());
                if is_sink {
                    lock(&self.meters).insert(unit, meter);
                }
                lock(&self.probes).insert(unit, handle.probe_handle());
                self.executors.insert(unit, handle);
                self.stages.insert(unit, stage);
                *lock(&self.activations).entry(unit).or_insert(0) += 1;
                let _ = self.master.send(Message::Ready {
                    device: self.device,
                });
            }
            Message::Connect {
                upstream,
                downstream,
                addr,
                epoch,
                kind,
            } => {
                if self.fenced(epoch) {
                    return true;
                }
                // If we host the upstream, `addr` reaches the downstream;
                // if we host the downstream, `addr` reaches the upstream
                // (for ACKs). A node can host both ends.
                let sender = self.dial(&addr);
                if let (Some(h), Some(sender)) = (self.executors.get(&upstream), sender.clone()) {
                    h.send(ExecMsg::AddDownstream {
                        unit: downstream,
                        sender,
                        kind,
                    });
                }
                if let (Some(h), Some(sender)) = (self.executors.get(&downstream), sender) {
                    h.send(ExecMsg::AddUpstream {
                        unit: upstream,
                        sender,
                    });
                }
            }
            Message::Start => {
                for h in self.executors.values() {
                    h.send(ExecMsg::Start);
                }
            }
            Message::Stop => return false,
            Message::Data { dest, from, tuple } => {
                if let Some(h) = self.executors.get(&dest) {
                    h.send(ExecMsg::Data { from, tuple });
                }
            }
            Message::Ack {
                seq,
                to,
                processing_us,
                ..
            } => {
                if let Some(h) = self.executors.get(&to) {
                    h.send(ExecMsg::Ack { seq, processing_us });
                }
            }
            Message::Disconnect {
                upstream,
                downstream,
                epoch,
            } => {
                if self.fenced(epoch) {
                    return true;
                }
                // The master evicted the device at the other end of this
                // edge (heartbeat prune / leave). Whichever end we host,
                // cut the route so in-flight tuples re-route to the
                // survivors.
                if let Some(h) = self.executors.get(&upstream) {
                    h.send(ExecMsg::RemoveDownstream { unit: downstream });
                }
                if let Some(h) = self.executors.get(&downstream) {
                    h.send(ExecMsg::RemoveUpstream { unit: upstream });
                }
            }
            Message::Ping => {
                let _ = self.master.send(Message::Pong {
                    device: self.device,
                });
            }
            Message::MasterHello { addr, epoch } => {
                // A recovered master hails us. Adopt it (its epoch is
                // already bumped past the old incarnation's) and
                // re-announce everything we still run so it can
                // reconcile adopt-vs-redeploy.
                if epoch < self.max_epoch {
                    return true; // stale incarnation
                }
                self.max_epoch = epoch;
                if let Ok(sender) = self.fabric.dial(&addr) {
                    self.master = sender;
                }
                let units: Vec<(UnitId, StageId)> = self
                    .executors
                    .keys()
                    .filter_map(|u| self.stages.get(u).map(|s| (*u, *s)))
                    .collect();
                let _ = self.master.send(Message::Announce {
                    device: self.device,
                    name: self.name.clone(),
                    listen_addr: self.listen_addr.clone(),
                    units,
                    epoch,
                });
            }
            _ => {}
        }
        true
    }

    /// Epoch fence: drop topology messages older than the newest epoch
    /// seen, and ratchet the fence forward otherwise.
    fn fenced(&mut self, epoch: u64) -> bool {
        if epoch < self.max_epoch {
            return true;
        }
        self.max_epoch = epoch;
        false
    }

    fn dial(&mut self, addr: &str) -> Option<MsgSender> {
        if let Some(s) = self.dialed.get(addr) {
            return Some(s.clone());
        }
        match self.fabric.dial(addr) {
            Ok(s) => {
                self.dialed.insert(addr.to_owned(), s.clone());
                Some(s)
            }
            Err(_) => None,
        }
    }
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeState")
            .field("name", &self.name)
            .field("device", &self.device)
            .field("executors", &self.executors.len())
            .finish_non_exhaustive()
    }
}
