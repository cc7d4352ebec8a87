//! Registry client and lease renewal.
//!
//! [`RegistryClient`] is a synchronous request/reply facade over one
//! reactor-managed bidirectional connection: register, heartbeat,
//! lookup, watch. Asynchronous `ServiceExpired` pushes that interleave
//! with replies are buffered and drained via
//! [`recv_expired`](RegistryClient::recv_expired).
//!
//! [`Heartbeater`] keeps any number of registrations alive from a
//! single thread and a single connection: every heartbeat interval it
//! renews all leases in one batched round trip, and a negative
//! acknowledgement (lease lapsed while the renewal was in flight, or
//! the registry restarted) triggers fault-resilient *re-registration*
//! rather than an error — a service stays discoverable through
//! registry hiccups without its owner doing anything.

use crate::reactor::{Delivery, ReactorHandle};
use crate::sender::MsgSender;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swing_core::{Error, Result};
use swing_net::{Message, NetTimeouts, ServiceEntry};
use swing_telemetry::{names, Histogram, Telemetry};

/// Synchronous client for the registry service.
#[derive(Debug)]
pub struct RegistryClient {
    reactor: ReactorHandle,
    addr: String,
    out: MsgSender,
    inbox: Receiver<Message>,
    /// `ServiceExpired` pushes that arrived while awaiting a reply.
    expired: VecDeque<ServiceEntry>,
    timeouts: NetTimeouts,
    lookup_us: Option<Histogram>,
}

impl RegistryClient {
    /// Dial the registry at `addr` through `reactor`.
    pub fn connect(reactor: &ReactorHandle, addr: &str, timeouts: NetTimeouts) -> Result<Self> {
        let (tx, rx) = channel();
        let out = reactor.dial_bidi(addr, Delivery::Inbox(tx.into()))?;
        Ok(RegistryClient {
            reactor: reactor.clone(),
            addr: addr.to_owned(),
            out,
            inbox: rx,
            expired: VecDeque::new(),
            timeouts,
            lookup_us: None,
        })
    }

    /// Record client-observed lookup round trips into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.lookup_us = Some(telemetry.histogram(names::REGISTRY_LOOKUP_US, &[]));
    }

    /// Drop and re-dial the connection (used by [`Heartbeater`] when
    /// the registry link fails). Pending expiry pushes are kept; any
    /// watch must be re-issued by the caller.
    pub fn reconnect(&mut self) -> Result<()> {
        let (tx, rx) = channel();
        self.out = self
            .reactor
            .dial_bidi(&self.addr, Delivery::Inbox(tx.into()))?;
        self.inbox = rx;
        Ok(())
    }

    /// Register `entry` with the given lease TTL. `Ok(true)` means the
    /// lease is live.
    pub fn register(&mut self, entry: &ServiceEntry, ttl_ms: u64) -> Result<bool> {
        let reply = self.request(Message::RegisterService {
            app: entry.app.clone(),
            role: entry.role.clone(),
            stage: entry.stage.clone(),
            addr: entry.addr.clone(),
            ttl_ms,
        })?;
        match reply {
            Message::RegistryAck { registered } => Ok(registered),
            other => Err(unexpected(&other)),
        }
    }

    /// Renew `entry`'s lease. `Ok(false)` means the lease already
    /// expired and the caller must re-register.
    pub fn heartbeat(&mut self, entry: &ServiceEntry) -> Result<bool> {
        let reply = self.request(heartbeat_msg(entry))?;
        match reply {
            Message::RegistryAck { registered } => Ok(registered),
            other => Err(unexpected(&other)),
        }
    }

    /// Renew many leases in one batched round trip (all requests
    /// written before any reply is awaited — one reactor pass carries
    /// the lot). Returns one liveness flag per entry, in order.
    pub fn heartbeat_all(&mut self, entries: &[ServiceEntry]) -> Result<Vec<bool>> {
        for entry in entries {
            self.out
                .send(heartbeat_msg(entry))
                .map_err(|_| Error::Closed)?;
        }
        let mut alive = Vec::with_capacity(entries.len());
        while alive.len() < entries.len() {
            match self.recv_reply()? {
                Message::RegistryAck { registered } => alive.push(registered),
                other => return Err(unexpected(&other)),
            }
        }
        Ok(alive)
    }

    /// Live services matching the pattern (empty strings = wildcards).
    pub fn lookup(&mut self, app: &str, role: &str, stage: &str) -> Result<Vec<ServiceEntry>> {
        let t0 = Instant::now();
        let reply = self.request(Message::LookupServices {
            app: app.to_owned(),
            role: role.to_owned(),
            stage: stage.to_owned(),
        })?;
        match reply {
            Message::ServicesFound { services } => {
                if let Some(h) = &self.lookup_us {
                    h.record_duration(t0.elapsed());
                }
                Ok(services)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Subscribe to expiry tombstones for the pattern; matching
    /// expirations then arrive via [`recv_expired`](Self::recv_expired).
    pub fn watch(&mut self, app: &str, role: &str, stage: &str) -> Result<()> {
        let reply = self.request(Message::WatchServices {
            app: app.to_owned(),
            role: role.to_owned(),
            stage: stage.to_owned(),
        })?;
        match reply {
            Message::RegistryAck { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Next expiry tombstone, waiting up to `timeout`. Returns
    /// [`Error::WouldBlock`] when none arrived in time.
    pub fn recv_expired(&mut self, timeout: Duration) -> Result<ServiceEntry> {
        if let Some(e) = self.expired.pop_front() {
            return Ok(e);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::WouldBlock);
            }
            match self.inbox.recv_timeout(left) {
                Ok(Message::ServiceExpired {
                    app,
                    role,
                    stage,
                    addr,
                }) => {
                    return Ok(ServiceEntry {
                        app,
                        role,
                        stage,
                        addr,
                    })
                }
                Ok(_) => {} // stray reply with no request outstanding
                Err(RecvTimeoutError::Timeout) => return Err(Error::WouldBlock),
                Err(RecvTimeoutError::Disconnected) => return Err(Error::Closed),
            }
        }
    }

    fn request(&mut self, msg: Message) -> Result<Message> {
        self.out.send(msg).map_err(|_| Error::Closed)?;
        self.recv_reply()
    }

    /// Await the next *reply* (non-push) message, buffering expiry
    /// pushes that interleave. Bounded by the connect timeout — a
    /// registry that stays silent that long counts as gone.
    fn recv_reply(&mut self) -> Result<Message> {
        let deadline = Instant::now() + self.timeouts.connect;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::DiscoveryTimeout);
            }
            match self.inbox.recv_timeout(left) {
                Ok(Message::ServiceExpired {
                    app,
                    role,
                    stage,
                    addr,
                }) => self.expired.push_back(ServiceEntry {
                    app,
                    role,
                    stage,
                    addr,
                }),
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => return Err(Error::DiscoveryTimeout),
                Err(RecvTimeoutError::Disconnected) => return Err(Error::Closed),
            }
        }
    }
}

fn heartbeat_msg(entry: &ServiceEntry) -> Message {
    Message::ServiceHeartbeat {
        app: entry.app.clone(),
        role: entry.role.clone(),
        stage: entry.stage.clone(),
        addr: entry.addr.clone(),
    }
}

#[cold]
fn unexpected(msg: &Message) -> Error {
    Error::Malformed(format!("unexpected registry reply: {msg:?}"))
}

/// How long [`await_service`] sleeps between lookups that found nothing.
const LOOKUP_RETRY: Duration = Duration::from_millis(50);

/// Convenience: poll the registry until a service matching the pattern
/// appears or `timeout` elapses. Returns the first match.
pub fn await_service(
    reactor: &ReactorHandle,
    registry_addr: &str,
    app: &str,
    role: &str,
    timeout: Duration,
    timeouts: NetTimeouts,
) -> Result<ServiceEntry> {
    let mut client = RegistryClient::connect(reactor, registry_addr, timeouts)?;
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(entry) = client.lookup(app, role, "")?.into_iter().next() {
            return Ok(entry);
        }
        if Instant::now() >= deadline {
            return Err(Error::DiscoveryTimeout);
        }
        std::thread::sleep(LOOKUP_RETRY);
    }
}

enum HbCmd {
    Add(ServiceEntry, SyncSender<Result<bool>>),
    Remove(ServiceEntry),
    Stop,
}

/// One thread + one connection keeping any number of registrations
/// alive. Entries are registered on [`add`](Self::add) and renewed
/// every `heartbeat_interval`; lapsed or rejected leases are
/// re-registered automatically, and a broken registry link is re-dialed
/// with all entries re-registered once it heals.
#[derive(Debug)]
pub struct Heartbeater {
    cmd: Sender<HbCmd>,
    thread: Option<JoinHandle<()>>,
}

impl Heartbeater {
    /// Start a renewal thread against the registry at `registry_addr`.
    pub fn spawn(
        reactor: &ReactorHandle,
        registry_addr: &str,
        timeouts: NetTimeouts,
    ) -> Result<Self> {
        let mut client = RegistryClient::connect(reactor, registry_addr, timeouts)?;
        let (cmd_tx, cmd_rx) = channel::<HbCmd>();
        let interval = timeouts.heartbeat_interval;
        let ttl_ms = timeouts.ttl_ms();
        let thread = std::thread::Builder::new()
            .name("swing-heartbeat".into())
            .spawn(move || {
                let mut entries: Vec<ServiceEntry> = Vec::new();
                let mut next_beat = Instant::now() + interval;
                loop {
                    let wait = next_beat.saturating_duration_since(Instant::now());
                    match cmd_rx.recv_timeout(wait) {
                        Ok(HbCmd::Add(entry, reply)) => {
                            let ack = client.register(&entry, ttl_ms);
                            if ack.is_ok() {
                                entries.push(entry);
                            }
                            let _ = reply.send(ack);
                            continue;
                        }
                        Ok(HbCmd::Remove(entry)) => {
                            entries.retain(|e| *e != entry);
                            continue;
                        }
                        Ok(HbCmd::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                    next_beat = Instant::now() + interval;
                    if entries.is_empty() {
                        continue;
                    }
                    match client.heartbeat_all(&entries) {
                        Ok(alive) => {
                            // Lapsed leases (registry missed our renewals,
                            // or it restarted): re-register instead of
                            // giving up.
                            for (entry, live) in entries.iter().zip(alive) {
                                if !live {
                                    let _ = client.register(entry, ttl_ms);
                                }
                            }
                        }
                        Err(_) => {
                            // Broken link: re-dial and re-register the
                            // world. Failures retry next interval.
                            if client.reconnect().is_ok() {
                                for entry in &entries {
                                    let _ = client.register(entry, ttl_ms);
                                }
                            }
                        }
                    }
                }
            })
            .expect("spawn heartbeat thread");
        Ok(Heartbeater {
            cmd: cmd_tx,
            thread: Some(thread),
        })
    }

    /// Register `entry` and keep it renewed. Blocks until the initial
    /// registration is acknowledged.
    pub fn add(&self, entry: ServiceEntry) -> Result<bool> {
        let (tx, rx) = sync_channel(1);
        self.cmd
            .send(HbCmd::Add(entry, tx))
            .map_err(|_| Error::Closed)?;
        rx.recv().map_err(|_| Error::Closed)?
    }

    /// Stop renewing `entry`; its lease will lapse one TTL later (the
    /// registry tombstones it, which is how watchers learn of planned
    /// departures too).
    pub fn remove(&self, entry: ServiceEntry) {
        let _ = self.cmd.send(HbCmd::Remove(entry));
    }

    /// Stop the renewal thread (also done on drop). Leases lapse
    /// naturally afterwards.
    pub fn stop(&mut self) {
        let _ = self.cmd.send(HbCmd::Stop);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeater {
    fn drop(&mut self) {
        self.stop();
    }
}
