//! Message fabric: one abstraction over in-process channels and
//! sockets.
//!
//! Every node owns a single *inbox* on which control messages (from the
//! master) and data/ACK messages (from peer nodes) arrive. Nodes reach
//! each other by *dialing* an address obtained from the master's
//! `Connect` messages. In-process swarms use `std::sync::mpsc` channels under
//! `inproc:<n>` addresses; networked swarms use `127.0.0.1:<port>`
//! sockets, all multiplexed on one reactor thread and bridged onto the
//! same channel types, so the rest of the runtime is
//! transport-agnostic.

use crate::chaos::{ChaosControl, ChaosShared, FaultPlan};
use crate::lock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use swing_core::{Error, Result};
use swing_net::Message;
use swing_reactor::{Delivery, Reactor, ReactorConfig, ReactorHandle};
use swing_telemetry::Telemetry;

/// Sending half of a message pipe: a plain channel sender on in-proc,
/// sim and chaos links; on a reactor link it also wakes the reactor.
pub use swing_reactor::MsgSender;
/// Receiving half of a message pipe.
pub type MsgReceiver = Receiver<Message>;

/// Registry of in-process inboxes.
#[derive(Default)]
pub struct InProcNet {
    endpoints: Mutex<HashMap<String, MsgSender>>,
    next_id: AtomicU64,
}

impl fmt::Debug for InProcNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcNet")
            .field("endpoints", &lock(&self.endpoints).len())
            .finish()
    }
}

/// The transport a swarm runs on.
#[derive(Debug, Clone)]
pub enum Fabric {
    /// `std::sync::mpsc` channels inside one process.
    InProc(Arc<InProcNet>),
    /// Non-blocking TCP sockets (multi-thread or multi-process)
    /// multiplexed on one reactor thread (see [`swing_reactor`]): a
    /// single readiness loop instead of threads per link, which is
    /// what lets one process hold a thousand worker links.
    Reactor(Arc<ReactorNet>),
    /// Any fabric wrapped in deterministic fault injection
    /// (see [`crate::chaos`]).
    Chaos(Arc<ChaosFabric>),
}

/// Shared state of the reactor fabric: the handle every listen/dial
/// goes through. The reactor thread is shut down when the last clone
/// of the fabric drops.
#[derive(Debug)]
pub struct ReactorNet {
    handle: ReactorHandle,
}

impl ReactorNet {
    /// The underlying reactor handle (for attaching registry services
    /// or extra listeners on the same loop).
    #[must_use]
    pub fn handle(&self) -> &ReactorHandle {
        &self.handle
    }
}

impl Drop for ReactorNet {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

/// An inner fabric plus the shared fault state its links consult.
#[derive(Debug)]
pub struct ChaosFabric {
    inner: Fabric,
    shared: Arc<ChaosShared>,
}

impl Fabric {
    /// A fresh in-process fabric.
    #[must_use]
    pub fn in_proc() -> Self {
        Fabric::InProc(Arc::new(InProcNet::default()))
    }

    /// A reactor fabric with default tuning and no telemetry.
    #[must_use]
    pub fn reactor() -> Self {
        Fabric::reactor_with(ReactorConfig::default(), None)
    }

    /// A reactor fabric with explicit tuning. `telemetry`, when given,
    /// receives the `swing_reactor_*` metrics; `config.timeouts` holds
    /// the dial timeout. Both are bound at spawn.
    #[must_use]
    pub fn reactor_with(config: ReactorConfig, telemetry: Option<&Telemetry>) -> Self {
        Fabric::Reactor(Arc::new(ReactorNet {
            handle: Reactor::spawn(config, telemetry),
        }))
    }

    /// The reactor handle, when this fabric (or the fabric a chaos
    /// wrapper encloses) runs on one.
    #[must_use]
    pub fn reactor_handle(&self) -> Option<&ReactorHandle> {
        match self {
            Fabric::Reactor(net) => Some(net.handle()),
            Fabric::Chaos(net) => net.inner.reactor_handle(),
            _ => None,
        }
    }

    /// Wrap `inner` in deterministic fault injection driven by `plan`.
    /// Every link subsequently dialed through the returned fabric passes
    /// through a fault shim; the [`ChaosControl`] handle steers
    /// partitions/crashes and reads injected-fault counters.
    ///
    /// Panics if the plan holds an out-of-range probability.
    #[must_use]
    pub fn chaos(inner: Fabric, plan: FaultPlan) -> (Self, ChaosControl) {
        let shared = Arc::new(ChaosShared::new(plan));
        let control = ChaosControl::new(Arc::clone(&shared));
        (
            Fabric::Chaos(Arc::new(ChaosFabric { inner, shared })),
            control,
        )
    }

    /// Create an inbox, returning its dialable address and the receiver.
    pub fn listen(&self) -> Result<(String, MsgReceiver)> {
        match self {
            Fabric::InProc(net) => {
                let (tx, rx) = channel();
                let id = net.next_id.fetch_add(1, Ordering::Relaxed);
                let addr = format!("inproc:{id}");
                lock(&net.endpoints).insert(addr.clone(), tx.into());
                Ok((addr, rx))
            }
            Fabric::Reactor(net) => {
                let (tx, rx) = channel();
                let addr = net
                    .handle
                    .listen("127.0.0.1:0", Delivery::Inbox(tx.into()))?;
                Ok((addr, rx))
            }
            // Faults are injected on the dial side; listening is clean.
            Fabric::Chaos(net) => net.inner.listen(),
        }
    }

    /// Obtain a sender delivering to the inbox at `addr`.
    ///
    /// The returned sender reports an error (disconnected channel) once
    /// the peer goes away; callers treat that as a broken link.
    pub fn dial(&self, addr: &str) -> Result<MsgSender> {
        match self {
            Fabric::InProc(net) => lock(&net.endpoints).get(addr).cloned().ok_or_else(|| {
                Error::io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no in-proc endpoint at {addr}"),
                ))
            }),
            // No writer thread: the reactor drains the bounded outbox,
            // so a thousand links cost one thread total.
            Fabric::Reactor(net) => net.handle.dial(addr),
            Fabric::Chaos(net) => {
                let inner_tx = net.inner.dial(addr)?;
                Ok(crate::chaos::spawn_link_shim(
                    addr,
                    inner_tx,
                    Arc::clone(&net.shared),
                ))
            }
        }
    }

    /// [`dial`](Self::dial) for the owner of the inbox at `addr`, who
    /// keeps the sender to nudge its own loop: never through a fault
    /// shim, where a partition or crash of `addr` would swallow the
    /// owner's `Stop` and leave `stop()` joining a thread that never
    /// wakes.
    pub(crate) fn dial_own(&self, addr: &str) -> Result<MsgSender> {
        match self {
            Fabric::Chaos(net) => net.inner.dial_own(addr),
            clean => clean.dial(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn in_proc_messages_flow() {
        let fabric = Fabric::in_proc();
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        tx.send(Message::Ping).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap(),
            Message::Ping
        );
    }

    #[test]
    fn in_proc_unknown_address_fails() {
        let fabric = Fabric::in_proc();
        assert!(fabric.dial("inproc:999").is_err());
    }

    #[test]
    fn in_proc_dropped_inbox_fails_sends() {
        let fabric = Fabric::in_proc();
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        drop(rx);
        assert!(tx.send(Message::Ping).is_err());
    }

    #[test]
    fn reactor_messages_flow() {
        let fabric = Fabric::reactor();
        let (addr, rx) = fabric.listen().unwrap();
        let tx = fabric.dial(&addr).unwrap();
        tx.send(Message::Ping).unwrap();
        tx.send(Message::Pong {
            device: swing_core::DeviceId(3),
        })
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Message::Ping
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Message::Pong {
                device: swing_core::DeviceId(3)
            }
        );
    }

    #[test]
    fn reactor_multiple_dialers_share_inbox() {
        let fabric = Fabric::reactor();
        let (addr, rx) = fabric.listen().unwrap();
        let tx1 = fabric.dial(&addr).unwrap();
        let tx2 = fabric.dial(&addr).unwrap();
        tx1.send(Message::Ping).unwrap();
        tx2.send(Message::Ping).unwrap();
        for _ in 0..2 {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)).unwrap(),
                Message::Ping
            );
        }
    }

    #[test]
    fn reactor_dial_to_dead_address_errors() {
        let fabric = Fabric::reactor();
        // Grab a free port by binding/dropping a listener.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        assert!(fabric.dial(&addr).is_err());
    }

    #[test]
    fn separate_in_proc_fabrics_are_isolated() {
        let a = Fabric::in_proc();
        let b = Fabric::in_proc();
        let (addr, _rx) = a.listen().unwrap();
        assert!(b.dial(&addr).is_err());
    }
}
