//! The master: control, bootstrapping and deployment (§IV-B).
//!
//! "The master initiates the app, broadcasts its IP address, launches a
//! socket server and waits for connections. [...] The master deploys the
//! app dataflow graph by assigning function units and connecting
//! devices. [...] The master thread is responsible only for control,
//! bootstrapping connections and sending start/stop commands."

use crate::checkpoint::{MasterCheckpoint, StoreHandle};
use crate::fabric::{Fabric, MsgSender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use swing_core::clock::ClockHandle;
use swing_core::graph::{AppGraph, Deployment, Role, StageId};
use swing_core::Result;
use swing_core::{DeviceId, UnitId};
use swing_net::Message;

/// Where the master places stages when deploying.
///
/// The paper's evaluation runs source and sink on the master's device
/// (`A`) and replicates the compute stages on every worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Sources and sinks on the first-joined device; every operator
    /// stage replicated on each other device (or on the first device too
    /// if it is the only one).
    #[default]
    SourceOnFirst,
    /// Every stage (including operators) on every device.
    ReplicateEverywhere,
}

impl Placement {
    /// Which of a roster of `roster_len` devices (in join order) host a
    /// stage of `role`: positions in the roster. A stage's parallelism
    /// hint caps how many replicas the policy fans out to, earliest
    /// joined first.
    #[must_use]
    pub fn hosts(
        self,
        role: Role,
        parallelism: Option<u32>,
        roster_len: usize,
    ) -> std::ops::Range<usize> {
        let wanted = match (role, self) {
            (_, Placement::ReplicateEverywhere) => 0..roster_len,
            (Role::Source | Role::Sink, Placement::SourceOnFirst) => 0..roster_len.min(1),
            (Role::Operator, Placement::SourceOnFirst) if roster_len > 1 => 1..roster_len,
            (Role::Operator, Placement::SourceOnFirst) => 0..roster_len,
        };
        let cap = parallelism.map_or(usize::MAX, |c| c as usize);
        wanted.start..wanted.end.min(wanted.start.saturating_add(cap))
    }
}

/// Liveness-probing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often the master pings every worker.
    pub interval: Duration,
    /// A worker silent for this long is treated as departed and removed
    /// from the roster and deployment (its peers' executors notice the
    /// broken data links independently).
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(2),
        }
    }
}

impl HeartbeatConfig {
    /// Reject configurations that cannot detect failure soundly: both
    /// durations must be nonzero and the timeout strictly greater than
    /// the probe interval (a timeout at or below the interval declares
    /// every worker dead between two pings).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.interval.is_zero() {
            return Err("heartbeat interval must be nonzero".into());
        }
        if self.timeout.is_zero() {
            return Err("heartbeat timeout must be nonzero".into());
        }
        if self.timeout <= self.interval {
            return Err(format!(
                "heartbeat timeout ({:?}) must be strictly greater than the \
                 probe interval ({:?})",
                self.timeout, self.interval
            ));
        }
        Ok(())
    }
}

/// Master configuration.
#[derive(Clone)]
pub struct MasterConfig {
    /// Devices to wait for before deploying.
    pub expected_workers: usize,
    /// Stage placement strategy.
    pub placement: Placement,
    /// Liveness probing; `None` relies purely on transport-level
    /// disconnection (the default, matching the paper's prototype).
    pub heartbeat: Option<HeartbeatConfig>,
    /// The clock failure detection reads. Injecting a
    /// [`VirtualClock`](swing_core::clock::VirtualClock) makes heartbeat
    /// pruning deterministic under simulation like every other layer.
    pub clock: ClockHandle,
    /// Durable control-plane state. When set, the master saves a
    /// checkpoint on every membership change, and a freshly spawned
    /// master finding a compatible checkpoint recovers from it instead
    /// of cold-starting (workers re-announce; units are adopted, not
    /// redeployed).
    pub checkpoint: Option<StoreHandle>,
    /// How long a recovering master waits for checkpointed workers to
    /// re-announce before declaring them dead and re-placing their units.
    pub recovery_grace: Duration,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            expected_workers: 1,
            placement: Placement::SourceOnFirst,
            heartbeat: None,
            clock: crate::clock::global_clock(),
            checkpoint: None,
            recovery_grace: Duration::from_secs(2),
        }
    }
}

impl std::fmt::Debug for MasterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterConfig")
            .field("expected_workers", &self.expected_workers)
            .field("placement", &self.placement)
            .field("heartbeat", &self.heartbeat)
            .field("checkpoint", &self.checkpoint)
            .field("recovery_grace", &self.recovery_grace)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
struct WorkerInfo {
    device: DeviceId,
    #[allow(dead_code)]
    name: String,
    addr: String,
}

/// Shared view of the master's progress.
#[derive(Debug, Default)]
pub struct MasterStatus {
    // std, not parking_lot: the pair must come with a condvar.
    started: std::sync::Mutex<bool>,
    started_changed: std::sync::Condvar,
    deployment: Mutex<Deployment>,
    epoch: AtomicU64,
    dead_workers: Mutex<Vec<String>>,
    deploys: Mutex<BTreeMap<UnitId, u64>>,
}

impl MasterStatus {
    /// Whether Start has been broadcast.
    #[must_use]
    pub fn started(&self) -> bool {
        *self.started_flag()
    }

    /// Block until Start has been broadcast, for at most `timeout`.
    /// Returns whether it has.
    #[must_use]
    pub fn wait_started(&self, timeout: Duration) -> bool {
        let (started, _) = self
            .started_changed
            .wait_timeout_while(self.started_flag(), timeout, |started| !*started)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *started
    }

    fn set_started(&self, started: bool) {
        *self.started_flag() = started;
        self.started_changed.notify_all();
    }

    fn started_flag(&self) -> std::sync::MutexGuard<'_, bool> {
        // A bool is valid whatever a panicking holder was doing.
        self.started
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshot of the current deployment.
    #[must_use]
    pub fn deployment(&self) -> Deployment {
        self.deployment.lock().clone()
    }

    /// The current deployment epoch. Bumped on every topology-changing
    /// wave (initial deploy, late join, re-placement, recovery); workers
    /// fence out control messages from older epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Names of workers the master has declared dead (leave, heartbeat
    /// prune, or failure to re-announce after recovery), oldest first.
    #[must_use]
    pub fn dead_workers(&self) -> Vec<String> {
        self.dead_workers.lock().clone()
    }

    /// Times each unit was sent an Activate. Recovery that adopts a
    /// running unit does not bump its counter — the kill/recover test
    /// asserts healthy units stay at one deploy.
    #[must_use]
    pub fn deploy_counts(&self) -> BTreeMap<UnitId, u64> {
        self.deploys.lock().clone()
    }
}

/// A running master thread.
#[derive(Debug)]
pub struct Master {
    addr: String,
    inbox_tx: MsgSender,
    join: Option<JoinHandle<()>>,
    status: Arc<MasterStatus>,
    silent: Arc<AtomicBool>,
}

impl Master {
    /// Launch the master for `graph` on the given fabric.
    ///
    /// If `config.checkpoint` holds a checkpoint recorded by a previous
    /// incarnation for this same graph, the master recovers: it restores
    /// the roster and placement under a bumped epoch, asks the
    /// checkpointed workers to re-announce, and adopts still-running
    /// units instead of redeploying them.
    pub fn spawn(graph: AppGraph, config: MasterConfig, fabric: Fabric) -> Result<Master> {
        graph
            .validate()
            .map_err(|e| swing_core::Error::Malformed(format!("invalid app graph: {e}")))?;
        if let Some(h) = &config.heartbeat {
            h.validate()
                .map_err(|e| swing_core::Error::Malformed(format!("invalid heartbeat: {e}")))?;
        }
        // A readable checkpoint that belongs to a *different* application
        // is a deployment mistake, not a cold start — refuse loudly
        // instead of silently ignoring the recorded state.
        if let Some(store) = &config.checkpoint {
            if let Some(bytes) = store.load() {
                if let Ok(ck) = MasterCheckpoint::decode(&bytes) {
                    if ck.graph_name != graph.name()
                        || ck.n_stages != graph.stages().count()
                        || ck.n_edges != graph.edges().len()
                    {
                        return Err(swing_core::Error::Malformed(format!(
                            "checkpoint records app '{}' ({} stages, {} edges), \
                             refusing to recover '{}'",
                            ck.graph_name,
                            ck.n_stages,
                            ck.n_edges,
                            graph.name()
                        )));
                    }
                }
            }
        }
        let (addr, inbox) = fabric.listen()?;
        let inbox_tx = fabric.dial(&addr)?;
        let status = Arc::new(MasterStatus::default());
        let status2 = Arc::clone(&status);
        let silent = Arc::new(AtomicBool::new(false));
        let silent2 = Arc::clone(&silent);
        let my_addr = addr.clone();
        let join = std::thread::Builder::new()
            .name("swing-master".into())
            .spawn(move || {
                let heartbeat = config.heartbeat;
                let clock = config.clock.clone();
                let mut state = MasterState {
                    graph,
                    config,
                    fabric,
                    addr: my_addr,
                    workers: Vec::new(),
                    senders: HashMap::new(),
                    deployment: Deployment::new(),
                    next_device: 0,
                    started: false,
                    epoch: 0,
                    status: status2,
                    last_pong: HashMap::new(),
                    last_ping_us: clock.now_us(),
                    recovering: HashMap::new(),
                    recovery_deadline_us: None,
                };
                state.try_recover();
                // Without heartbeats the loop normally parks on the inbox;
                // an in-progress recovery still needs periodic wakeups so
                // the re-announce grace deadline can fire.
                let idle = if state.recovery_deadline_us.is_some() {
                    Duration::from_millis(25)
                } else {
                    Duration::from_secs(3600)
                };
                let tick = heartbeat
                    .map(|h| h.interval.min(h.timeout) / 2)
                    .unwrap_or(idle)
                    .max(Duration::from_millis(20));
                loop {
                    match inbox.recv_timeout(tick) {
                        Ok(msg) => {
                            if !state.handle(msg) {
                                break;
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                    state.on_tick(heartbeat);
                }
                if !silent2.load(Ordering::SeqCst) {
                    state.broadcast(&Message::Stop);
                }
            })
            .expect("spawn master thread");
        Ok(Master {
            addr,
            inbox_tx,
            join: Some(join),
            status,
            silent,
        })
    }

    /// Address workers join at.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Make this master discoverable through a [`RegistryServer`]
    /// (§IV-C's Discovery Service: "the master broadcasts itself [...];
    /// each worker [...] connects to it upon discovery"):
    /// registers `(app, "master")` under a heartbeat-renewed lease and
    /// watches `(app, "worker")` registrations, forwarding every expiry
    /// tombstone into the master's inbox — a worker whose lease lapses
    /// is evicted and its units re-placed, exactly like a heartbeat
    /// prune. Requires a reactor fabric. Keep the returned attachment
    /// alive for as long as the master should stay registered.
    ///
    /// [`RegistryServer`]: swing_reactor::RegistryServer
    pub fn attach_registry(
        &self,
        fabric: &Fabric,
        registry_addr: &str,
        app: &str,
        timeouts: swing_net::NetTimeouts,
    ) -> Result<RegistryAttachment> {
        let Some(reactor) = fabric.reactor_handle() else {
            return Err(swing_core::Error::Malformed(
                "registry discovery requires a reactor fabric".into(),
            ));
        };
        let heartbeater = swing_reactor::Heartbeater::spawn(reactor, registry_addr, timeouts)?;
        heartbeater.add(swing_net::ServiceEntry {
            app: app.to_owned(),
            role: "master".to_owned(),
            stage: String::new(),
            addr: self.addr.clone(),
        })?;
        let mut watcher = swing_reactor::RegistryClient::connect(reactor, registry_addr, timeouts)?;
        let app2 = app.to_owned();
        watcher.watch(&app2, "worker", "")?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let inbox = self.inbox_tx.clone();
        let poll = timeouts.heartbeat_interval;
        let bridge = std::thread::Builder::new()
            .name("swing-registry-watch".into())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    match watcher.recv_expired(poll) {
                        Ok(entry) => {
                            let sent = inbox.send(Message::ServiceExpired {
                                app: entry.app,
                                role: entry.role,
                                stage: entry.stage,
                                addr: entry.addr,
                            });
                            if sent.is_err() {
                                return; // master gone
                            }
                        }
                        Err(swing_core::Error::WouldBlock) => {}
                        Err(_) => {
                            // Registry link broke: re-dial and re-watch
                            // until it heals (or we are stopped).
                            std::thread::sleep(poll);
                            if watcher.reconnect().is_ok() {
                                let _ = watcher.watch(&app2, "worker", "");
                            }
                        }
                    }
                }
            })
            .expect("spawn registry watch thread");
        Ok(RegistryAttachment {
            heartbeater,
            stop,
            bridge: Some(bridge),
        })
    }

    /// Progress/status handle.
    #[must_use]
    pub fn status(&self) -> Arc<MasterStatus> {
        Arc::clone(&self.status)
    }

    /// Stop the application: broadcasts Stop to all workers and ends the
    /// master thread.
    pub fn stop(&mut self) {
        let _ = self.inbox_tx.send(Message::Stop);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }

    /// Kill the master abruptly: the thread exits *without* broadcasting
    /// Stop, so workers keep streaming master-less — exactly a master
    /// crash. Spawn a new master with the same `checkpoint` store to
    /// recover the swarm.
    pub fn kill(&mut self) {
        self.silent.store(true, Ordering::SeqCst);
        let _ = self.inbox_tx.send(Message::Stop);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Master {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Keeps a master registered and watching through a registry (see
/// [`Master::attach_registry`]). Dropping it stops the heartbeat — the
/// master's own lease lapses one TTL later — and the watch bridge.
#[derive(Debug)]
pub struct RegistryAttachment {
    #[allow(dead_code)] // held for its renewal thread
    heartbeater: swing_reactor::Heartbeater,
    stop: Arc<AtomicBool>,
    bridge: Option<JoinHandle<()>>,
}

impl Drop for RegistryAttachment {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.bridge.take() {
            let _ = h.join();
        }
    }
}

struct MasterState {
    graph: AppGraph,
    config: MasterConfig,
    fabric: Fabric,
    /// The master's own dialable address (sent in `MasterHello`).
    addr: String,
    workers: Vec<WorkerInfo>,
    senders: HashMap<DeviceId, MsgSender>,
    deployment: Deployment,
    next_device: u32,
    started: bool,
    /// Deployment epoch: bumped before every topology-changing wave and
    /// stamped into Activate/Connect/Disconnect so fenced-out workers
    /// (pruned but still alive) ignore stale control traffic.
    epoch: u64,
    status: Arc<MasterStatus>,
    /// Last liveness reply per device (heartbeat mode), clock micros.
    last_pong: HashMap<DeviceId, u64>,
    last_ping_us: u64,
    /// Checkpointed workers we are waiting to re-announce after recovery.
    recovering: HashMap<DeviceId, WorkerInfo>,
    /// When the re-announce grace period ends (clock micros).
    recovery_deadline_us: Option<u64>,
}

impl MasterState {
    fn handle(&mut self, msg: Message) -> bool {
        match msg {
            Message::Join {
                name, listen_addr, ..
            } => {
                self.on_join(name, listen_addr);
            }
            Message::Announce {
                device,
                name,
                listen_addr,
                units,
                ..
            } => {
                self.on_announce(device, name, listen_addr, units);
            }
            Message::Leave { device } => {
                self.remove_worker(device);
            }
            Message::Pong { device } => {
                self.last_pong.insert(device, self.config.clock.now_us());
            }
            // Registry lease of a worker lapsed (its heartbeats
            // stopped): evict it exactly like a heartbeat prune —
            // cut surviving routes, re-place its units. The watch
            // pattern already narrowed app and role, but a master
            // sharing its inbox with other traffic re-checks role.
            Message::ServiceExpired { role, addr, .. } if role == "worker" => {
                let dead: Option<DeviceId> = self
                    .workers
                    .iter()
                    .find(|w| w.addr == addr)
                    .map(|w| w.device);
                if let Some(device) = dead {
                    self.remove_worker(device);
                }
            }
            Message::Stop => return false,
            _ => {}
        }
        true
    }

    /// Periodic work between inbox messages: heartbeat probing/pruning
    /// and the recovery re-announce deadline.
    fn on_tick(&mut self, heartbeat: Option<HeartbeatConfig>) {
        if let Some(h) = heartbeat {
            let now = self.config.clock.now_us();
            if now.saturating_sub(self.last_ping_us) >= h.interval.as_micros() as u64 {
                self.broadcast(&Message::Ping);
                self.last_ping_us = now;
            }
            self.prune_silent(h.timeout);
        }
        if let Some(deadline) = self.recovery_deadline_us {
            if self.config.clock.now_us() >= deadline {
                self.recovery_deadline_us = None;
                let silent: Vec<DeviceId> = self.recovering.keys().copied().collect();
                for d in silent {
                    self.remove_worker(d);
                }
            }
        }
    }

    /// Drop a worker from the roster and the deployment, telling the
    /// surviving peers to cut their routes toward it so in-flight
    /// tuples re-route immediately (§IV-C: "re-routes data to other
    /// units") instead of waiting for retry deadlines — then re-place
    /// its units on the survivors under a new epoch, so a stage whose
    /// sole host died comes back instead of staying dark.
    fn remove_worker(&mut self, device: DeviceId) {
        let known = self.workers.iter().any(|w| w.device == device)
            || self.recovering.contains_key(&device);
        if !known {
            return;
        }
        let name = self
            .workers
            .iter()
            .find(|w| w.device == device)
            .map(|w| w.name.clone())
            .or_else(|| self.recovering.get(&device).map(|w| w.name.clone()))
            .unwrap_or_default();
        self.workers.retain(|w| w.device != device);
        self.recovering.remove(&device);
        self.senders.remove(&device);
        self.last_pong.remove(&device);
        self.status.dead_workers.lock().push(name);
        let units: Vec<UnitId> = self.deployment.instances_on(device).collect();
        if !units.is_empty() {
            self.epoch += 1;
            self.disconnect_edges_of(&units);
            for u in units {
                self.deployment.remove(u);
            }
            if self.started {
                self.reconcile();
            }
        }
        self.publish();
    }

    /// For every graph edge with exactly one end among `dead_units`,
    /// send the surviving end's host a Disconnect for that pair.
    fn disconnect_edges_of(&self, dead_units: &[UnitId]) {
        for e in self.graph.edges() {
            let (up_stage, down_stage) = (e.from, e.to);
            let ups: Vec<UnitId> = self.deployment.instances_of(up_stage).collect();
            let downs: Vec<UnitId> = self.deployment.instances_of(down_stage).collect();
            for &u in &ups {
                for &d in &downs {
                    let survivor = match (dead_units.contains(&u), dead_units.contains(&d)) {
                        (false, true) => u,
                        (true, false) => d,
                        _ => continue,
                    };
                    let Ok(dev) = self.deployment.device_of(survivor) else {
                        continue;
                    };
                    if let Some(s) = self.senders.get(&dev) {
                        let _ = s.send(Message::Disconnect {
                            upstream: u,
                            downstream: d,
                            epoch: self.epoch,
                        });
                    }
                }
            }
        }
    }

    /// Heartbeat mode: remove workers whose last Pong is too old.
    fn prune_silent(&mut self, timeout: Duration) {
        let now = self.config.clock.now_us();
        let silent: Vec<DeviceId> = self
            .workers
            .iter()
            .map(|w| w.device)
            .filter(|d| {
                self.last_pong
                    .get(d)
                    .map(|t| now.saturating_sub(*t) > timeout.as_micros() as u64)
                    .unwrap_or(false)
            })
            .collect();
        for d in silent {
            self.remove_worker(d);
        }
    }

    fn on_join(&mut self, name: String, listen_addr: String) {
        let Ok(sender) = self.fabric.dial(&listen_addr) else {
            return; // unreachable worker: ignore the join
        };
        let device = DeviceId(self.next_device);
        self.next_device += 1;
        let _ = sender.send(Message::Welcome { device });
        self.senders.insert(device, sender);
        self.last_pong.insert(device, self.config.clock.now_us());
        self.workers.push(WorkerInfo {
            device,
            name,
            addr: listen_addr,
        });
        if !self.started {
            if self.workers.len() >= self.config.expected_workers {
                self.epoch += 1;
                self.reconcile();
                self.broadcast(&Message::Start);
                self.started = true;
                self.status.set_started(true);
            }
        } else {
            // Late joiner (Fig. 9): activate replicas on it and splice
            // it into the running topology immediately.
            self.epoch += 1;
            self.reconcile();
        }
        self.publish();
    }

    /// Drive the deployment toward the `Placement` policy's desired state
    /// over the *current* roster: place and activate every (stage, device)
    /// the policy wants that has no instance yet, then connect the new
    /// units' edges. Add-only — instances on devices the policy no longer
    /// favors keep running (migration away from live hosts is not an
    /// error path). One routine serves initial deployment, late join,
    /// and re-placement after a death; callers bump the epoch first.
    fn reconcile(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        let order = self.graph.topo_order().expect("graph validated");
        let mut new_units: Vec<UnitId> = Vec::new();
        let mut touched: Vec<DeviceId> = Vec::new();
        for stage in order {
            let spec = self.graph.stage(stage).expect("stage exists");
            let (role, parallelism) = (spec.role, spec.parallelism);
            // Roster order keeps a parallelism cap stable across
            // reconciles; dead hosts fall out of the roster, so
            // replacement devices slide under the cap automatically.
            let hosts = (self.config.placement).hosts(role, parallelism, self.workers.len());
            let hosts: Vec<DeviceId> = self.workers[hosts].iter().map(|w| w.device).collect();
            for device in hosts {
                let have = self
                    .deployment
                    .instances_of(stage)
                    .any(|u| self.deployment.device_of(u) == Ok(device));
                if !have {
                    let unit = self.deployment.place(stage, device);
                    self.activate(device, unit, stage);
                    new_units.push(unit);
                    if !touched.contains(&device) {
                        touched.push(device);
                    }
                }
            }
        }
        if new_units.is_empty() {
            return;
        }
        self.connect_edges(Some(&new_units));
        // Freshly placed executors on an already-running app must start
        // producing/processing immediately.
        if self.started {
            for device in touched {
                if let Some(sender) = self.senders.get(&device) {
                    let _ = sender.send(Message::Start);
                }
            }
        }
    }

    fn activate(&self, device: DeviceId, unit: UnitId, stage: StageId) {
        let stage_name = self.graph.stage(stage).expect("stage exists").name.clone();
        if let Some(sender) = self.senders.get(&device) {
            let _ = sender.send(Message::Activate {
                unit,
                stage,
                stage_name,
                epoch: self.epoch,
            });
            *self.status.deploys.lock().entry(unit).or_insert(0) += 1;
        }
    }

    /// Send Connect messages for every instance pair along every graph
    /// edge. With `only_touching`, restrict to pairs involving one of the
    /// given (freshly placed) units.
    fn connect_edges(&self, only_touching: Option<&[UnitId]>) {
        for e in self.graph.edges() {
            let (up_stage, down_stage) = (e.from, e.to);
            let ups: Vec<UnitId> = self.deployment.instances_of(up_stage).collect();
            let downs: Vec<UnitId> = self.deployment.instances_of(down_stage).collect();
            for &u in &ups {
                for &d in &downs {
                    if let Some(filter) = only_touching {
                        if !filter.contains(&u) && !filter.contains(&d) {
                            continue;
                        }
                    }
                    let u_dev = self.deployment.device_of(u).expect("placed");
                    let d_dev = self.deployment.device_of(d).expect("placed");
                    let u_addr = self.addr_of(u_dev);
                    let d_addr = self.addr_of(d_dev);
                    // Tell the upstream's node how to reach the
                    // downstream, and the downstream's node how to reach
                    // the upstream (for ACKs).
                    if let (Some(s), Some(addr)) = (self.senders.get(&u_dev), d_addr.clone()) {
                        let _ = s.send(Message::Connect {
                            upstream: u,
                            downstream: d,
                            addr,
                            epoch: self.epoch,
                            kind: e.kind.clone(),
                        });
                    }
                    if let (Some(s), Some(addr)) = (self.senders.get(&d_dev), u_addr) {
                        let _ = s.send(Message::Connect {
                            upstream: u,
                            downstream: d,
                            addr,
                            epoch: self.epoch,
                            kind: e.kind.clone(),
                        });
                    }
                }
            }
        }
    }

    fn addr_of(&self, device: DeviceId) -> Option<String> {
        self.workers
            .iter()
            .find(|w| w.device == device)
            .map(|w| w.addr.clone())
    }

    fn broadcast(&self, msg: &Message) {
        for s in self.senders.values() {
            let _ = s.send(msg.clone());
        }
    }

    /// Publish the shared status *and* persist a checkpoint. Called at
    /// every membership/deployment change, so the checkpoint always
    /// reflects the latest epoch and placement.
    fn publish(&self) {
        *self.status.deployment.lock() = self.deployment.clone();
        self.status.epoch.store(self.epoch, Ordering::SeqCst);
        if let Some(store) = &self.config.checkpoint {
            store.save(&self.to_checkpoint().encode());
        }
    }

    fn to_checkpoint(&self) -> MasterCheckpoint {
        MasterCheckpoint {
            graph_name: self.graph.name().to_owned(),
            n_stages: self.graph.stages().count(),
            n_edges: self.graph.edges().len(),
            epoch: self.epoch,
            next_device: self.next_device,
            started: self.started,
            workers: self
                .workers
                .iter()
                .chain(self.recovering.values())
                .map(|w| (w.device, w.addr.clone(), w.name.clone()))
                .collect(),
            units: self.deployment.iter().collect(),
        }
    }

    /// If the configured store holds a checkpoint for this graph, resume
    /// from it: restore roster and placement under a bumped epoch, hail
    /// every checkpointed worker with `MasterHello`, and arm the
    /// re-announce grace deadline. Workers answer with `Announce`; units
    /// they still host are adopted, missing ones redeployed
    /// (`on_announce`), and workers that stay silent past the grace are
    /// pruned, which re-places their units.
    fn try_recover(&mut self) {
        let Some(store) = &self.config.checkpoint else {
            return;
        };
        let Some(bytes) = store.load() else {
            return;
        };
        let ck = match MasterCheckpoint::decode(&bytes) {
            Ok(ck) => ck,
            Err(_) => return, // untrusted checkpoint: cold-start
        };
        if ck.graph_name != self.graph.name()
            || ck.n_stages != self.graph.stages().count()
            || ck.n_edges != self.graph.edges().len()
        {
            return; // checkpoint from a different application
        }
        self.epoch = ck.epoch + 1;
        self.next_device = ck.next_device;
        self.started = ck.started;
        self.status.set_started(ck.started);
        for (u, s, d) in ck.units {
            self.deployment.restore(u, s, d);
        }
        for (device, addr, name) in ck.workers {
            self.recovering.insert(
                device,
                WorkerInfo {
                    device,
                    name,
                    addr: addr.clone(),
                },
            );
            if let Ok(sender) = self.fabric.dial(&addr) {
                let _ = sender.send(Message::MasterHello {
                    addr: self.addr.clone(),
                    epoch: self.epoch,
                });
            }
        }
        if !self.recovering.is_empty() {
            self.recovery_deadline_us =
                Some(self.config.clock.now_us() + self.config.recovery_grace.as_micros() as u64);
        }
        self.publish();
    }

    /// A worker re-announcing itself after a master restart: restore it
    /// to the roster and reconcile adopt-vs-redeploy per unit — units it
    /// still hosts are adopted untouched (no Activate, deploy counter
    /// unchanged), units the checkpoint places on it that died with it
    /// are re-activated under the current epoch.
    fn on_announce(
        &mut self,
        device: DeviceId,
        name: String,
        listen_addr: String,
        units: Vec<(UnitId, StageId)>,
    ) {
        if self.workers.iter().any(|w| w.device == device) {
            return; // duplicate announce: already restored
        }
        let expected = self.recovering.remove(&device);
        if expected.is_none() {
            // Unknown device (e.g. fenced-out zombie): treat as a fresh
            // join so it re-enters through the normal path.
            self.on_join(name, listen_addr);
            return;
        }
        let Ok(sender) = self.fabric.dial(&listen_addr) else {
            return;
        };
        self.senders.insert(device, sender);
        self.last_pong.insert(device, self.config.clock.now_us());
        self.workers.push(WorkerInfo {
            device,
            name,
            addr: listen_addr,
        });
        // Adopt-vs-redeploy: anything the checkpoint places here that the
        // worker no longer runs must be re-activated; anything it still
        // runs is adopted silently.
        let expected_units: Vec<(UnitId, StageId)> = self
            .deployment
            .instances_on(device)
            .map(|u| (u, self.deployment.stage_of(u).expect("placed")))
            .collect();
        let mut revived: Vec<UnitId> = Vec::new();
        for (unit, stage) in expected_units {
            if !units.contains(&(unit, stage)) {
                self.activate(device, unit, stage);
                revived.push(unit);
            }
        }
        if !revived.is_empty() {
            self.connect_edges(Some(&revived));
            if self.started {
                if let Some(s) = self.senders.get(&device) {
                    let _ = s.send(Message::Start);
                }
            }
        }
        if self.recovering.is_empty() {
            self.recovery_deadline_us = None;
        }
        self.publish();
    }
}

impl std::fmt::Debug for MasterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterState")
            .field("workers", &self.workers.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both policies × {1, 2, 5 devices} × {no cap, cap 1, cap beyond
    /// the roster}: what the live master and the simulator both place.
    #[test]
    fn placement_hosts_table() {
        use Placement::{ReplicateEverywhere, SourceOnFirst};
        // (policy, roster, cap) -> (source/sink hosts, operator hosts)
        let table = [
            (SourceOnFirst, 1, None, 0..1, 0..1),
            (SourceOnFirst, 1, Some(1), 0..1, 0..1),
            (SourceOnFirst, 1, Some(9), 0..1, 0..1),
            (SourceOnFirst, 2, None, 0..1, 1..2),
            (SourceOnFirst, 2, Some(1), 0..1, 1..2),
            (SourceOnFirst, 2, Some(9), 0..1, 1..2),
            (SourceOnFirst, 5, None, 0..1, 1..5),
            (SourceOnFirst, 5, Some(1), 0..1, 1..2),
            (SourceOnFirst, 5, Some(9), 0..1, 1..5),
            (ReplicateEverywhere, 1, None, 0..1, 0..1),
            (ReplicateEverywhere, 1, Some(1), 0..1, 0..1),
            (ReplicateEverywhere, 1, Some(9), 0..1, 0..1),
            (ReplicateEverywhere, 2, None, 0..2, 0..2),
            (ReplicateEverywhere, 2, Some(1), 0..1, 0..1),
            (ReplicateEverywhere, 2, Some(9), 0..2, 0..2),
            (ReplicateEverywhere, 5, None, 0..5, 0..5),
            (ReplicateEverywhere, 5, Some(1), 0..1, 0..1),
            (ReplicateEverywhere, 5, Some(9), 0..5, 0..5),
        ];
        for (policy, roster, cap, ends, operators) in table {
            let case = format!("{policy:?}, {roster} devices, cap {cap:?}");
            assert_eq!(policy.hosts(Role::Source, cap, roster), ends, "{case}");
            assert_eq!(policy.hosts(Role::Sink, cap, roster), ends, "{case}");
            assert_eq!(
                policy.hosts(Role::Operator, cap, roster),
                operators,
                "{case}"
            );
        }
        // An empty roster hosts nothing, whatever the policy.
        for policy in [SourceOnFirst, ReplicateEverywhere] {
            for role in [Role::Source, Role::Operator, Role::Sink] {
                assert!(policy.hosts(role, None, 0).is_empty());
            }
        }
    }
}
