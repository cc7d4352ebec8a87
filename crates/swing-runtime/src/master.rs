//! The master: control, bootstrapping and deployment (§IV-B).
//!
//! "The master initiates the app, broadcasts its IP address, launches a
//! socket server and waits for connections. [...] The master deploys the
//! app dataflow graph by assigning function units and connecting
//! devices. [...] The master thread is responsible only for control,
//! bootstrapping connections and sending start/stop commands."

use crate::checkpoint::{MasterCheckpoint, StoreHandle};
use crate::control::{Command, ControlPlane};
use crate::fabric::{Fabric, MsgSender};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// Shared view of the master's progress.
#[derive(Debug, Default)]
pub struct MasterStatus {
    /// `(started, workers admitted so far)`.
    progress: Mutex<(bool, usize)>,
    progress_changed: Condvar,
    deployment: Mutex<Deployment>,
    epoch: AtomicU64,
    dead_workers: Mutex<Vec<String>>,
    deploys: Mutex<BTreeMap<UnitId, u64>>,
}

impl MasterStatus {
    /// Whether Start has been broadcast.
    #[must_use]
    pub fn started(&self) -> bool {
        lock(&self.progress).0
    }

    /// Block until Start has been broadcast, for at most `timeout`.
    /// Returns whether it has.
    #[must_use]
    pub fn wait_started(&self, timeout: Duration) -> bool {
        self.wait(timeout, |p| p.0).0
    }

    /// Block until the master has admitted `n` workers, for at most
    /// `timeout`. Returns whether it has.
    pub(crate) fn wait_admitted(&self, n: usize, timeout: Duration) -> bool {
        self.wait(timeout, |p| p.1 >= n).1 >= n
    }

    fn wait(&self, timeout: Duration, done: impl Fn(&(bool, usize)) -> bool) -> (bool, usize) {
        let (progress, _) = self
            .progress_changed
            .wait_timeout_while(lock(&self.progress), timeout, |p| !done(p))
            .unwrap_or_else(PoisonError::into_inner);
        *progress
    }

    fn set_progress(&self, started: bool, admitted: usize) {
        *lock(&self.progress) = (started, admitted);
        self.progress_changed.notify_all();
    }

    /// Snapshot of the current deployment.
    #[must_use]
    pub fn deployment(&self) -> Deployment {
        lock(&self.deployment).clone()
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
        lock(&self.dead_workers).clone()
    }

    /// Times each unit was sent an Activate. Recovery that adopts a
    /// running unit does not bump its counter — the kill/recover test
    /// asserts healthy units stay at one deploy.
    #[must_use]
    pub fn deploy_counts(&self) -> BTreeMap<UnitId, u64> {
        lock(&self.deploys).clone()
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
        // Load, decode and shape-check the checkpoint once, here. An
        // unreadable record is untrusted: cold-start. A readable one that
        // belongs to a *different* application is a deployment mistake,
        // not a cold start — refuse loudly instead of ignoring it.
        let stored = config.checkpoint.as_ref().and_then(|store| store.load());
        let checkpoint = stored.and_then(|bytes| MasterCheckpoint::decode(&bytes).ok());
        if let Some(ck) = &checkpoint {
            if ck.graph_name != graph.name()
                || ck.n_stages != graph.stage_count()
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
        let (addr, inbox) = fabric.listen()?;
        let inbox_tx = fabric.dial_own(&addr)?;
        let status = Arc::new(MasterStatus::default());
        let status2 = Arc::clone(&status);
        let silent = Arc::new(AtomicBool::new(false));
        let silent2 = Arc::clone(&silent);
        let my_addr = addr.clone();
        let join = std::thread::Builder::new()
            .name("swing-master".into())
            .spawn(move || {
                let heartbeat = config.heartbeat;
                let mut state = MasterState {
                    plane: ControlPlane::new(graph, config.placement, config.expected_workers),
                    last_ping_us: config.clock.now_us(),
                    config,
                    fabric,
                    addr: my_addr,
                    peers: BTreeMap::new(),
                    status: status2,
                };
                // Without heartbeats the loop normally parks on the inbox;
                // a recovery still needs periodic wakeups so the
                // re-announce grace deadline can fire.
                let idle = match checkpoint {
                    Some(ck) => {
                        state.recover(ck);
                        Duration::from_millis(25)
                    }
                    None => Duration::from_secs(3600),
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
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
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

/// The master thread's I/O shell around the [`ControlPlane`]: the
/// inbox, the dialed peers, liveness timing, the checkpoint store and
/// the shared status. Every decision is the plane's; this turns its
/// commands into wire messages.
struct MasterState {
    plane: ControlPlane,
    config: MasterConfig,
    fabric: Fabric,
    /// The master's own dialable address (sent in `MasterHello`).
    addr: String,
    peers: BTreeMap<DeviceId, Peer>,
    status: Arc<MasterStatus>,
    last_ping_us: u64,
}

/// What the shell keeps per roster member.
struct Peer {
    addr: String,
    /// `None` for a checkpointed worker that has not re-announced.
    sender: Option<MsgSender>,
    /// Last liveness reply (heartbeat mode), clock micros.
    last_pong_us: u64,
}

impl MasterState {
    fn handle(&mut self, msg: Message) -> bool {
        match msg {
            Message::Join {
                name, listen_addr, ..
            } => self.on_join(name, listen_addr),
            Message::Announce {
                device,
                name,
                listen_addr,
                units,
                ..
            } => self.on_announce(device, name, listen_addr, &units),
            Message::Leave { device } => self.remove_worker(device),
            Message::Pong { device } => {
                if let Some(p) = self.peers.get_mut(&device) {
                    p.last_pong_us = self.config.clock.now_us();
                }
            }
            // Registry lease of a worker lapsed (its heartbeats
            // stopped): evict it exactly like a heartbeat prune —
            // cut surviving routes, re-place its units. The watch
            // pattern already narrowed app and role, but a master
            // sharing its inbox with other traffic re-checks role.
            Message::ServiceExpired { role, addr, .. } if role == "worker" => {
                let dead = self.peers.iter().find(|(_, p)| p.addr == addr);
                if let Some((&device, _)) = dead {
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
        let now = self.config.clock.now_us();
        if let Some(h) = heartbeat {
            if now.saturating_sub(self.last_ping_us) >= h.interval.as_micros() as u64 {
                self.broadcast(&Message::Ping);
                self.last_ping_us = now;
            }
            let timeout_us = h.timeout.as_micros() as u64;
            let silent: Vec<DeviceId> = (self.peers.iter())
                .filter(|(_, p)| p.sender.is_some())
                .filter(|(_, p)| now.saturating_sub(p.last_pong_us) > timeout_us)
                .map(|(&d, _)| d)
                .collect();
            for d in silent {
                self.remove_worker(d);
            }
        }
        for d in self.plane.recovery_expired(now) {
            self.remove_worker(d);
        }
    }

    /// A worker left, fell silent or let its lease lapse: the plane
    /// evicts it and re-places its units; the survivors are told.
    fn remove_worker(&mut self, device: DeviceId) {
        let Some((name, wave)) = self.plane.leave(device) else {
            return;
        };
        self.peers.remove(&device);
        lock(&self.status.dead_workers).push(name);
        self.carry_out(wave);
        self.publish();
    }

    fn on_join(&mut self, name: String, listen_addr: String) {
        let Ok(sender) = self.fabric.dial(&listen_addr) else {
            return; // unreachable worker: ignore the join
        };
        let (device, wave) = self.plane.join(name, self.offers());
        let _ = sender.send(Message::Welcome { device });
        self.admit(device, listen_addr, sender, wave);
    }

    /// A worker re-announcing itself after a master restart (see
    /// [`ControlPlane::announce`]).
    fn on_announce(
        &mut self,
        device: DeviceId,
        name: String,
        listen_addr: String,
        units: &[(UnitId, StageId)],
    ) {
        let Ok(sender) = self.fabric.dial(&listen_addr) else {
            return;
        };
        let Some((known_as, wave)) = (self.plane).announce(device, name, self.offers(), units)
        else {
            return; // duplicate announce: already restored
        };
        if known_as != device {
            let _ = sender.send(Message::Welcome { device: known_as });
        }
        self.admit(known_as, listen_addr, sender, wave);
    }

    /// The paper's workers "already hold all code": every stage.
    fn offers(&self) -> Vec<StageId> {
        self.plane.graph().stages().collect()
    }

    fn admit(&mut self, device: DeviceId, addr: String, sender: MsgSender, wave: Vec<Command>) {
        let peer = Peer {
            addr,
            sender: Some(sender),
            last_pong_us: self.config.clock.now_us(),
        };
        self.peers.insert(device, peer);
        self.carry_out(wave);
        self.publish();
    }

    /// Send each command of a wave, stamped with the epoch it was
    /// decided under, to the hosts it concerns.
    fn carry_out(&self, wave: Vec<Command>) {
        let epoch = self.plane.epoch();
        // A unit's host, while it is placed.
        let host = |unit| {
            self.peers
                .get(&self.plane.deployment().device_of(unit).ok()?)
        };
        let send = |to: Option<&Peer>, msg: Message| {
            let sender = to.and_then(|p| p.sender.as_ref());
            sender.is_some_and(|s| s.send(msg).is_ok())
        };
        for cmd in wave {
            match cmd {
                Command::Activate {
                    device,
                    unit,
                    stage,
                } => {
                    let spec = self.plane.graph().stage(stage).expect("stage exists");
                    let msg = Message::Activate {
                        unit,
                        stage,
                        stage_name: spec.name.clone(),
                        epoch,
                    };
                    if send(self.peers.get(&device), msg) {
                        *lock(&self.status.deploys).entry(unit).or_insert(0) += 1;
                    }
                }
                // Tell the upstream's node how to reach the downstream,
                // and the downstream's node how to reach the upstream
                // (for ACKs).
                Command::Connect { up, down, kind } => {
                    let (Some(u), Some(d)) = (host(up), host(down)) else {
                        continue;
                    };
                    for (to, peer) in [(u, d), (d, u)] {
                        let msg = Message::Connect {
                            upstream: up,
                            downstream: down,
                            addr: peer.addr.clone(),
                            epoch,
                            kind: kind.clone(),
                        };
                        send(Some(to), msg);
                    }
                }
                // The evicted end is no longer placed: this reaches the
                // end that survived.
                Command::Disconnect { up, down } => {
                    for end in [up, down] {
                        let msg = Message::Disconnect {
                            upstream: up,
                            downstream: down,
                            epoch,
                        };
                        send(host(end), msg);
                    }
                }
                Command::Start { device } => {
                    send(self.peers.get(&device), Message::Start);
                }
            }
        }
    }

    fn broadcast(&self, msg: &Message) {
        for s in self.peers.values().filter_map(|p| p.sender.as_ref()) {
            let _ = s.send(msg.clone());
        }
    }

    /// Publish the shared status *and* persist a checkpoint, once per
    /// handled membership event. Progress goes last: whoever
    /// [`MasterStatus::wait_started`] wakes finds the deployment there.
    fn publish(&self) {
        *lock(&self.status.deployment) = self.plane.deployment().clone();
        self.status
            .epoch
            .store(self.plane.epoch(), Ordering::SeqCst);
        if let Some(store) = &self.config.checkpoint {
            let addr_of = |d| {
                self.peers
                    .get(&d)
                    .map_or_else(String::new, |p| p.addr.clone())
            };
            store.save(&self.plane.checkpoint(addr_of).encode());
        }
        (self.status).set_progress(self.plane.started(), self.peers.len());
    }

    /// Resume from the previous incarnation's checkpoint: every worker
    /// in it is hailed with `MasterHello` and has `recovery_grace` to
    /// answer with `Announce`; one that stays silent is pruned on the
    /// tick after, which re-places its units.
    fn recover(&mut self, ck: MasterCheckpoint) {
        let grace_us = self.config.recovery_grace.as_micros() as u64;
        let deadline_us = self.config.clock.now_us() + grace_us;
        self.plane.restore(&ck, deadline_us);
        for (device, addr, _) in ck.workers {
            if let Ok(sender) = self.fabric.dial(&addr) {
                let _ = sender.send(Message::MasterHello {
                    addr: self.addr.clone(),
                    epoch: self.plane.epoch(),
                });
            }
            let peer = Peer {
                addr,
                sender: None,
                last_pong_us: 0,
            };
            self.peers.insert(device, peer);
        }
        self.publish();
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
