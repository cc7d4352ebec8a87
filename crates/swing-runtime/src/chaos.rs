//! Deterministic fault injection for the message fabric.
//!
//! [`ChaosFabric`](crate::fabric::Fabric::chaos) wraps any [`Fabric`](crate::fabric::Fabric)
//! and perturbs the *data plane* (Data and ACK messages) on every dialed
//! link: seeded probabilistic drops, extra delay, and duplication —
//! configurable per destination address via a [`FaultPlan`] — plus
//! whole-link partitions and scheduled "crashes" (a point in time after
//! which everything toward an address is black-holed, which is what a
//! died device looks like from the network).
//!
//! Faults are deterministic: each link runs its own RNG seeded from
//! `plan.seed ^ hash(addr)`, so the same plan over the same message
//! sequence injects the same faults. Control-plane messages (join,
//! activate, connect, start/stop) pass through untouched so deployments
//! still come up — except across partitions and crashes, which sever
//! *everything* (including master heartbeats, so eviction kicks in).
//!
//! The paper's churn evaluation (§VI-C, Fig. 9) kills devices and counts
//! the frames lost in flight; this layer is how the repo reproduces that
//! — and proves the retransmission layer closes the gap.

use crate::clock::global_clock;
use crate::fabric::MsgSender;
use crate::lock;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use swing_core::clock::ClockHandle;
use swing_core::rng::DetRng;
use swing_net::Message;

/// Probabilistic faults applied to the data plane of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a Data/ACK message is silently dropped.
    pub drop_prob: f64,
    /// Probability a Data/ACK message is delivered twice.
    pub dup_prob: f64,
    /// Probability a Data/ACK message is delayed before delivery.
    pub delay_prob: f64,
    /// Inclusive bounds of the injected delay, microseconds.
    pub delay_us: (u64, u64),
}

impl LinkFaults {
    /// No faults at all.
    #[must_use]
    pub fn lossless() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_us: (0, 0),
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("delay_prob", self.delay_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        assert!(
            self.delay_us.0 <= self.delay_us.1,
            "delay_us bounds must be ordered"
        );
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::lossless()
    }
}

/// Seeded, per-link fault configuration for a [`ChaosFabric`](crate::fabric::ChaosFabric)
/// (see [`Fabric::chaos`](crate::fabric::Fabric::chaos)).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Base RNG seed; each link derives its own stream from it.
    pub seed: u64,
    /// Faults applied to links with no per-address override.
    pub default: LinkFaults,
    /// Per-destination-address overrides.
    pub per_addr: HashMap<String, LinkFaults>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed (build it up with the
    /// chained setters).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop each data-plane message with probability `p` on every link.
    #[must_use]
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.default.drop_prob = p;
        self
    }

    /// Duplicate each data-plane message with probability `p`.
    #[must_use]
    pub fn dup_prob(mut self, p: f64) -> Self {
        self.default.dup_prob = p;
        self
    }

    /// Delay each data-plane message with probability `p` by a uniform
    /// duration in `[min_us, max_us]`.
    #[must_use]
    pub fn delay(mut self, p: f64, min_us: u64, max_us: u64) -> Self {
        self.default.delay_prob = p;
        self.default.delay_us = (min_us, max_us);
        self
    }

    /// Override the faults of the link toward `addr`.
    #[must_use]
    pub fn link(mut self, addr: impl Into<String>, faults: LinkFaults) -> Self {
        self.per_addr.insert(addr.into(), faults);
        self
    }

    fn faults_for(&self, addr: &str) -> LinkFaults {
        self.per_addr.get(addr).copied().unwrap_or(self.default)
    }

    fn validate(&self) {
        self.default.validate();
        for f in self.per_addr.values() {
            f.validate();
        }
    }
}

/// Counters of injected faults, for test assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Data-plane messages silently dropped.
    pub dropped: u64,
    /// Data-plane messages delivered twice.
    pub duplicated: u64,
    /// Data-plane messages delayed.
    pub delayed: u64,
    /// Messages (any plane) swallowed by partitions or crashes.
    pub severed: u64,
}

#[derive(Debug, Default)]
struct ChaosStats {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    severed: AtomicU64,
}

/// State shared between a [`ChaosFabric`]'s shims and its
/// [`ChaosControl`] handle.
#[derive(Debug)]
pub(crate) struct ChaosShared {
    plan: FaultPlan,
    /// The clock crash schedules are evaluated against. The process
    /// global by default; injectable so crash instants can be expressed
    /// in virtual time.
    clock: ClockHandle,
    /// Addresses all traffic toward which is currently swallowed.
    partitions: Mutex<HashSet<String>>,
    /// addr -> absolute clock time (µs) after which traffic toward it
    /// is swallowed (a scheduled crash, as seen from the network).
    crashes: Mutex<HashMap<String, u64>>,
    stats: ChaosStats,
}

impl ChaosShared {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        ChaosShared::with_clock(plan, global_clock())
    }

    pub(crate) fn with_clock(plan: FaultPlan, clock: ClockHandle) -> Self {
        plan.validate();
        ChaosShared {
            plan,
            clock,
            partitions: Mutex::new(HashSet::new()),
            crashes: Mutex::new(HashMap::new()),
            stats: ChaosStats::default(),
        }
    }

    fn is_severed(&self, addr: &str) -> bool {
        if lock(&self.partitions).contains(addr) {
            return true;
        }
        lock(&self.crashes)
            .get(addr)
            .is_some_and(|&at| self.clock.now_us() >= at)
    }
}

/// Live handle for steering a running [`ChaosFabric`](crate::fabric::ChaosFabric): partition/heal
/// links, schedule crashes, and read injected-fault counters.
#[derive(Debug, Clone)]
pub struct ChaosControl {
    shared: Arc<ChaosShared>,
}

impl ChaosControl {
    pub(crate) fn new(shared: Arc<ChaosShared>) -> Self {
        ChaosControl { shared }
    }

    /// Swallow all traffic toward `addr` (control plane included) until
    /// [`heal`](Self::heal) or [`unpartition`](Self::unpartition).
    pub fn partition(&self, addr: impl Into<String>) {
        lock(&self.shared.partitions).insert(addr.into());
    }

    /// Lift a partition.
    pub fn unpartition(&self, addr: &str) {
        lock(&self.shared.partitions).remove(addr);
    }

    /// Black-hole all traffic toward `addr` from absolute clock time
    /// `at_us` (on the fabric's injected clock) onward — a scheduled
    /// crash.
    pub fn crash_at(&self, addr: impl Into<String>, at_us: u64) {
        lock(&self.shared.crashes).insert(addr.into(), at_us);
    }

    /// Black-hole all traffic toward `addr` starting `delay` from now.
    pub fn crash_in(&self, addr: impl Into<String>, delay: Duration) {
        self.crash_at(addr, self.shared.clock.now_us() + delay.as_micros() as u64);
    }

    /// Lift every partition and cancel every scheduled crash.
    pub fn heal(&self) {
        lock(&self.shared.partitions).clear();
        lock(&self.shared.crashes).clear();
    }

    /// Snapshot of the injected-fault counters.
    #[must_use]
    pub fn report(&self) -> ChaosReport {
        let s = &self.shared.stats;
        ChaosReport {
            dropped: s.dropped.load(Ordering::Relaxed),
            duplicated: s.duplicated.load(Ordering::Relaxed),
            delayed: s.delayed.load(Ordering::Relaxed),
            severed: s.severed.load(Ordering::Relaxed),
        }
    }
}

fn link_seed(base: u64, addr: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    addr.hash(&mut h);
    base ^ h.finish()
}

/// Wrap `inner_tx` (a dialed link toward `addr`) in a fault-injecting
/// shim thread; returns the faulty sender. The shim exits when the inner
/// link breaks, so senders observe the broken link on their next send —
/// identical to an unwrapped fabric.
pub(crate) fn spawn_link_shim(
    addr: &str,
    inner_tx: MsgSender,
    shared: Arc<ChaosShared>,
) -> MsgSender {
    let (tx, rx) = std::sync::mpsc::channel();
    let faults = shared.plan.faults_for(addr);
    let mut rng = DetRng::seed_from_u64(link_seed(shared.plan.seed, addr));
    let addr = addr.to_owned();
    std::thread::Builder::new()
        .name(format!("swing-chaos-{addr}"))
        .spawn(move || {
            while let Ok(msg) = rx.recv() {
                if shared.is_severed(&addr) {
                    shared.stats.severed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let data_plane = matches!(msg, Message::Data { .. } | Message::Ack { .. });
                if data_plane {
                    if faults.drop_prob > 0.0 && rng.random_bool(faults.drop_prob) {
                        shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if faults.delay_prob > 0.0 && rng.random_bool(faults.delay_prob) {
                        let (lo, hi) = faults.delay_us;
                        let d = if hi > lo {
                            rng.random_range(lo..=hi)
                        } else {
                            lo
                        };
                        shared.stats.delayed.fetch_add(1, Ordering::Relaxed);
                        // FIFO link: the delay also holds back whatever
                        // queues up behind this message, like a stalled
                        // radio would.
                        std::thread::sleep(Duration::from_micros(d));
                    }
                    if faults.dup_prob > 0.0 && rng.random_bool(faults.dup_prob) {
                        shared.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                        if inner_tx.send(msg.clone()).is_err() {
                            return;
                        }
                    }
                }
                if inner_tx.send(msg).is_err() {
                    return; // inner link broken: propagate by dropping rx
                }
            }
        })
        .expect("spawn chaos shim thread");
    tx.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, MsgReceiver};
    use swing_core::{Tuple, UnitId};

    fn data(i: u64) -> Message {
        Message::Data {
            dest: UnitId(1),
            from: UnitId(0),
            tuple: Tuple::with_seq(swing_core::SeqNo(i)),
        }
    }

    fn drain(rx: &MsgReceiver) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(m) = rx.recv_timeout(Duration::from_millis(200)) {
            out.push(m);
        }
        out
    }

    #[test]
    fn seeded_drops_are_deterministic() {
        let run = || {
            let (fabric, _ctl) =
                Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(42).drop_prob(0.3));
            let (addr, rx) = fabric.listen().unwrap();
            let tx = fabric.dial(&addr).unwrap();
            for i in 0..200 {
                tx.send(data(i)).unwrap();
            }
            drain(&rx)
                .into_iter()
                .map(|m| match m {
                    Message::Data { tuple, .. } => tuple.seq().0,
                    _ => unreachable!(),
                })
                .collect::<Vec<u64>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must drop the same messages");
        assert!(a.len() < 200, "30% drop must lose something");
        assert!(a.len() > 100, "30% drop must not lose everything");
    }

    #[test]
    fn control_plane_is_exempt_from_probabilistic_faults() {
        let (fabric, ctl) = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(7).drop_prob(1.0));
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        for _ in 0..20 {
            tx.send(Message::Ping).unwrap();
        }
        tx.send(data(0)).unwrap();
        let got = drain(&rx);
        assert_eq!(got.len(), 20, "every Ping must arrive, no Data");
        assert!(got.iter().all(|m| *m == Message::Ping));
        assert_eq!(ctl.report().dropped, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let (fabric, ctl) = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(3).dup_prob(1.0));
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        tx.send(data(5)).unwrap();
        assert_eq!(drain(&rx).len(), 2);
        assert_eq!(ctl.report().duplicated, 1);
    }

    #[test]
    fn partition_severs_everything_until_healed() {
        let (fabric, ctl) = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(1));
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        ctl.partition(&addr);
        tx.send(Message::Ping).unwrap();
        tx.send(data(0)).unwrap();
        assert!(drain(&rx).is_empty());
        assert_eq!(ctl.report().severed, 2);
        ctl.heal();
        tx.send(Message::Ping).unwrap();
        assert_eq!(drain(&rx).len(), 1);
    }

    #[test]
    fn scheduled_crash_black_holes_after_the_instant() {
        let (fabric, ctl) = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(1));
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        tx.send(data(1)).unwrap();
        // Wait for delivery before crashing: the shim evaluates the
        // crash schedule when it processes a message, not when the
        // sender enqueued it.
        assert!(rx.recv_timeout(Duration::from_secs(2)).is_ok());
        ctl.crash_at(&addr, 0); // already in the past: severed now
        tx.send(data(2)).unwrap();
        assert!(drain(&rx).is_empty());
        assert_eq!(ctl.report().severed, 1);
    }

    #[test]
    fn per_link_overrides_beat_the_default() {
        let inner = Fabric::in_proc();
        let (lossy_addr, lossy_rx) = inner.listen().unwrap();
        let (clean_addr, clean_rx) = inner.listen().unwrap();
        let plan = FaultPlan::seeded(9)
            .drop_prob(1.0)
            .link(&clean_addr, LinkFaults::lossless());
        let (fabric, _ctl) = Fabric::chaos(inner, plan);
        let lossy = fabric.dial(&lossy_addr).unwrap();
        let clean = fabric.dial(&clean_addr).unwrap();
        for i in 0..5 {
            lossy.send(data(i)).unwrap();
            clean.send(data(i)).unwrap();
        }
        assert!(drain(&lossy_rx).is_empty());
        assert_eq!(drain(&clean_rx).len(), 5);
    }

    #[test]
    fn broken_inner_link_propagates_to_the_sender() {
        let (fabric, _ctl) = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(4));
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        drop(rx);
        // The shim notices on its forward; the second or a later send
        // fails once the shim thread has exited.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if tx.send(Message::Ping).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sender never observed the broken link"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    #[should_panic(expected = "drop_prob must be a probability")]
    fn invalid_probability_panics() {
        let _ = Fabric::chaos(Fabric::in_proc(), FaultPlan::seeded(0).drop_prob(1.5));
    }
}
