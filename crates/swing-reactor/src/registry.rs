//! The registry service: TTL'd service registrations, pattern lookup,
//! and expiry tombstones.
//!
//! Discovery follows the model the related frameworks
//! motivate: services register under (app, role, stage) patterns
//! (SwarMS-style discovery decoupled from fixed infrastructure) and
//! keep their registration alive with heartbeats; a lease that is not
//! renewed within its TTL expires and is *tombstoned* — every watcher
//! whose pattern matches receives a `ServiceExpired` push, which is
//! what drives the master's eviction/reconcile flow (CROWDio-style
//! liveness under churn).
//!
//! [`RegistryCore`] is the pure state machine (millisecond timestamps
//! injected by the caller, deterministic iteration order);
//! [`RegistryServer`] hosts it on a reactor listener.

use crate::reactor::{ConnEvent, ConnId, Delivery, ReactorHandle};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swing_core::Result;
use swing_net::{Message, NetTimeouts, ServiceEntry};
use swing_telemetry::{names, Telemetry};

/// A lookup/watch pattern over (app, role, stage); empty strings are
/// wildcards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Application pattern (empty = any).
    pub app: String,
    /// Role pattern (empty = any).
    pub role: String,
    /// Stage pattern (empty = any).
    pub stage: String,
}

impl Pattern {
    /// Build a pattern; empty components match anything.
    #[must_use]
    pub fn new(app: &str, role: &str, stage: &str) -> Self {
        Pattern {
            app: app.to_owned(),
            role: role.to_owned(),
            stage: stage.to_owned(),
        }
    }

    /// Whether `entry` matches this pattern.
    #[must_use]
    pub fn matches(&self, entry: &ServiceEntry) -> bool {
        (self.app.is_empty() || self.app == entry.app)
            && (self.role.is_empty() || self.role == entry.role)
            && (self.stage.is_empty() || self.stage == entry.stage)
    }
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    expires_at_ms: u64,
    ttl_ms: u64,
}

type Key = (String, String, String, String);

fn key(entry: &ServiceEntry) -> Key {
    (
        entry.app.clone(),
        entry.role.clone(),
        entry.stage.clone(),
        entry.addr.clone(),
    )
}

fn entry_of(k: &Key) -> ServiceEntry {
    ServiceEntry {
        app: k.0.clone(),
        role: k.1.clone(),
        stage: k.2.clone(),
        addr: k.3.clone(),
    }
}

/// The registry's pure state machine. All methods take the current time
/// as injected milliseconds, so unit tests control the clock exactly;
/// the lease table is a `BTreeMap`, so lookup results and expiry order
/// are deterministic.
#[derive(Debug, Default)]
pub struct RegistryCore {
    leases: BTreeMap<Key, Lease>,
    watchers: HashMap<ConnId, Vec<Pattern>>,
}

impl RegistryCore {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        RegistryCore::default()
    }

    /// Register (or refresh) a lease. Returns `true` when the entry is
    /// new, `false` when it renewed an existing registration.
    pub fn register(&mut self, entry: &ServiceEntry, ttl_ms: u64, now_ms: u64) -> bool {
        self.leases
            .insert(
                key(entry),
                Lease {
                    expires_at_ms: now_ms.saturating_add(ttl_ms),
                    ttl_ms,
                },
            )
            .is_none()
    }

    /// Renew a lease. Returns `false` when the lease does not exist
    /// (never registered, or already expired) — the caller must
    /// re-register.
    pub fn heartbeat(&mut self, entry: &ServiceEntry, now_ms: u64) -> bool {
        match self.leases.get_mut(&key(entry)) {
            Some(lease) => {
                lease.expires_at_ms = now_ms.saturating_add(lease.ttl_ms);
                true
            }
            None => false,
        }
    }

    /// Live entries matching `pattern`, in deterministic (sorted) order.
    #[must_use]
    pub fn lookup(&self, pattern: &Pattern) -> Vec<ServiceEntry> {
        self.leases
            .keys()
            .map(entry_of)
            .filter(|e| pattern.matches(e))
            .collect()
    }

    /// Subscribe `watcher` to expiry tombstones for `pattern`.
    pub fn watch(&mut self, watcher: ConnId, pattern: Pattern) {
        self.watchers.entry(watcher).or_default().push(pattern);
    }

    /// Drop every subscription held by `watcher` (its connection
    /// closed).
    pub fn drop_watcher(&mut self, watcher: ConnId) {
        self.watchers.remove(&watcher);
    }

    /// Remove every lease that lapsed at or before `now_ms`, returning
    /// the expired entries in deterministic order.
    pub fn expire(&mut self, now_ms: u64) -> Vec<ServiceEntry> {
        let dead: Vec<Key> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.expires_at_ms <= now_ms)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &dead {
            self.leases.remove(k);
        }
        dead.iter().map(entry_of).collect()
    }

    /// Watchers whose patterns match `entry`, in sorted order.
    #[must_use]
    pub fn watchers_matching(&self, entry: &ServiceEntry) -> Vec<ConnId> {
        let mut out: Vec<ConnId> = self
            .watchers
            .iter()
            .filter(|(_, pats)| pats.iter().any(|p| p.matches(entry)))
            .map(|(&id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of live leases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether the registry holds no leases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

/// A [`RegistryCore`] hosted on a reactor listener: one service thread
/// applying register/heartbeat/lookup/watch requests and sweeping
/// expirations.
#[derive(Debug)]
pub struct RegistryServer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RegistryServer {
    /// Bind the registry on `bind` (use port 0 for ephemeral) and start
    /// serving. The expiry sweep runs at half the configured heartbeat
    /// interval, so a lapsed lease is tombstoned at most
    /// `heartbeat_interval / 2` late.
    pub fn spawn(
        reactor: &ReactorHandle,
        bind: &str,
        timeouts: NetTimeouts,
        telemetry: Option<&Telemetry>,
    ) -> Result<Self> {
        let (ev_tx, ev_rx) = channel();
        let addr = reactor.listen(bind, Delivery::Service(ev_tx))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = reactor.clone();
        let metrics = telemetry.map(|t| ServerMetrics {
            size: t.gauge(names::REGISTRY_SIZE, &[]),
            registered: t.counter(names::REGISTRY_REGISTERED, &[]),
            heartbeats: t.counter(names::REGISTRY_HEARTBEATS, &[]),
            expired: t.counter(names::REGISTRY_EXPIRED, &[]),
            lookups: t.counter(names::REGISTRY_LOOKUPS, &[]),
        });
        let sweep = (timeouts.heartbeat_interval / 2).max(Duration::from_millis(10));
        let thread = std::thread::Builder::new()
            .name("swing-registry".into())
            .spawn(move || {
                let mut core = RegistryCore::new();
                let start = Instant::now();
                let now_ms = |start: Instant| start.elapsed().as_millis() as u64;
                while !stop2.load(Ordering::Relaxed) {
                    match ev_rx.recv_timeout(sweep) {
                        Ok(ConnEvent::Message(conn, msg)) => {
                            serve(&handle, &mut core, conn, msg, now_ms(start), &metrics);
                        }
                        Ok(ConnEvent::Closed(conn)) => core.drop_watcher(conn),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    // Expiry sweep: tombstone lapsed leases toward
                    // every matching watcher.
                    for entry in core.expire(now_ms(start)) {
                        if let Some(m) = &metrics {
                            m.expired.inc();
                        }
                        for watcher in core.watchers_matching(&entry) {
                            let _ = handle.send_to(
                                watcher,
                                Message::ServiceExpired {
                                    app: entry.app.clone(),
                                    role: entry.role.clone(),
                                    stage: entry.stage.clone(),
                                    addr: entry.addr.clone(),
                                },
                            );
                        }
                    }
                    if let Some(m) = &metrics {
                        m.size.set_u64(core.len() as u64);
                    }
                }
            })
            .expect("spawn registry thread");
        Ok(RegistryServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The registry's dialable address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop the service thread (also done on drop). The listener stays
    /// with the reactor; clients see dead connections.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct ServerMetrics {
    size: swing_telemetry::Gauge,
    registered: swing_telemetry::Counter,
    heartbeats: swing_telemetry::Counter,
    expired: swing_telemetry::Counter,
    lookups: swing_telemetry::Counter,
}

fn serve(
    handle: &ReactorHandle,
    core: &mut RegistryCore,
    conn: ConnId,
    msg: Message,
    now_ms: u64,
    metrics: &Option<ServerMetrics>,
) {
    match msg {
        Message::RegisterService {
            app,
            role,
            stage,
            addr,
            ttl_ms,
        } => {
            let entry = ServiceEntry {
                app,
                role,
                stage,
                addr,
            };
            let fresh = core.register(&entry, ttl_ms, now_ms);
            if fresh {
                if let Some(m) = metrics {
                    m.registered.inc();
                }
            }
            let _ = handle.send_to(conn, Message::RegistryAck { registered: true });
        }
        Message::ServiceHeartbeat {
            app,
            role,
            stage,
            addr,
        } => {
            let entry = ServiceEntry {
                app,
                role,
                stage,
                addr,
            };
            let live = core.heartbeat(&entry, now_ms);
            if live {
                if let Some(m) = metrics {
                    m.heartbeats.inc();
                }
            }
            let _ = handle.send_to(conn, Message::RegistryAck { registered: live });
        }
        Message::LookupServices { app, role, stage } => {
            if let Some(m) = metrics {
                m.lookups.inc();
            }
            let services = core.lookup(&Pattern { app, role, stage });
            let _ = handle.send_to(conn, Message::ServicesFound { services });
        }
        Message::WatchServices { app, role, stage } => {
            core.watch(conn, Pattern { app, role, stage });
            let _ = handle.send_to(conn, Message::RegistryAck { registered: true });
        }
        // Anything else on the registry port is a confused peer; ignore.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, role: &str, stage: &str, addr: &str) -> ServiceEntry {
        ServiceEntry {
            app: app.into(),
            role: role.into(),
            stage: stage.into(),
            addr: addr.into(),
        }
    }

    #[test]
    fn register_lookup_expire_lifecycle() {
        let mut core = RegistryCore::new();
        let master = entry("face", "master", "", "127.0.0.1:5000");
        let w1 = entry("face", "worker", "detect", "127.0.0.1:5001");
        let w2 = entry("face", "worker", "encode", "127.0.0.1:5002");
        assert!(core.register(&master, 1_000, 0));
        assert!(core.register(&w1, 1_000, 0));
        assert!(core.register(&w2, 1_000, 500));
        assert_eq!(core.len(), 3);

        // Pattern lookup: all workers of `face`.
        let workers = core.lookup(&Pattern::new("face", "worker", ""));
        assert_eq!(workers, vec![w1.clone(), w2.clone()]);
        // Wildcard app.
        assert_eq!(core.lookup(&Pattern::new("", "", "")).len(), 3);
        // Stage-qualified.
        assert_eq!(
            core.lookup(&Pattern::new("face", "worker", "encode")),
            vec![w2.clone()]
        );

        // w1 heartbeats at 900; master and w2 do not.
        assert!(core.heartbeat(&w1, 900));
        // At 1100: master (expires 1000) lapses; w1 renewed to 1900;
        // w2 expires at 1500.
        let dead = core.expire(1_100);
        assert_eq!(dead, vec![master.clone()]);
        assert_eq!(core.len(), 2);
        let dead = core.expire(1_600);
        assert_eq!(dead, vec![w2.clone()]);
        // Heartbeat after expiry: caller must re-register.
        assert!(!core.heartbeat(&w2, 1_700));
        assert!(core.register(&w2, 1_000, 1_700));
        assert!(core.heartbeat(&w2, 1_800));
    }

    #[test]
    fn re_register_refreshes_not_duplicates() {
        let mut core = RegistryCore::new();
        let e = entry("app", "worker", "", "127.0.0.1:1");
        assert!(core.register(&e, 100, 0));
        assert!(!core.register(&e, 100, 50));
        assert_eq!(core.len(), 1);
        // Refreshed lease survives past the original expiry.
        assert!(core.expire(120).is_empty());
        assert_eq!(core.expire(150), vec![e]);
    }

    #[test]
    fn watchers_match_by_pattern_and_drop_with_conn() {
        let mut core = RegistryCore::new();
        core.watch(ConnId(1), Pattern::new("face", "worker", ""));
        core.watch(ConnId(2), Pattern::new("", "", ""));
        core.watch(ConnId(3), Pattern::new("voice", "", ""));
        let w = entry("face", "worker", "detect", "127.0.0.1:5001");
        assert_eq!(core.watchers_matching(&w), vec![ConnId(1), ConnId(2)]);
        let m = entry("voice", "master", "", "127.0.0.1:6000");
        assert_eq!(core.watchers_matching(&m), vec![ConnId(2), ConnId(3)]);
        core.drop_watcher(ConnId(2));
        assert_eq!(core.watchers_matching(&w), vec![ConnId(1)]);
    }

    #[test]
    fn expiry_is_deterministic_order() {
        let mut core = RegistryCore::new();
        for port in [5, 3, 9, 1] {
            core.register(
                &entry("app", "worker", "", &format!("127.0.0.1:{port}")),
                100,
                0,
            );
        }
        let dead = core.expire(200);
        let addrs: Vec<&str> = dead.iter().map(|e| e.addr.as_str()).collect();
        assert_eq!(
            addrs,
            vec!["127.0.0.1:1", "127.0.0.1:3", "127.0.0.1:5", "127.0.0.1:9"]
        );
    }
}
