//! The readiness loop: one thread multiplexing every live socket.
//!
//! Every registered socket is `O_NONBLOCK`, and the reactor thread
//! sleeps in one `epoll_wait` — declared first-party in `sys.rs`, no
//! `libc` crate (DESIGN.md §7) — over its listeners, its connections
//! and a wake handle. It asks for readability on everything, for
//! writability only on connections whose last write stopped on a full
//! socket buffer, and services exactly the descriptors the kernel
//! reports. An idle reactor makes no system call at all; a message
//! crosses it as fast as the kernel can report the socket ready.
//!
//! What the kernel cannot see — a message queued in an outbox, a
//! command, the last sender of a link going away — is announced through
//! the wake handle: a socket pair whose read end is in the epoll set,
//! written behind an "already notified" flag so that a burst of sends
//! costs one byte. [`MsgSender`], [`ReactorHandle`]'s commands and the
//! drop of a link's last sender all poke it.
//!
//! Connections come in two flavours:
//!
//! * **dialed** ([`ReactorHandle::dial`]) — the caller gets a
//!   [`MsgSender`] over a *bounded* outbox; the reactor moves messages
//!   from that outbox into the connection's write queue only while the
//!   queue is short, so a slow peer back-pressures producers through
//!   the channel bound (which is what the PR 5 credit gate ultimately
//!   leans on).
//! * **accepted** — inbound frames are decoded and delivered either to
//!   a plain inbox (`Delivery::Inbox`, the fabric path) or as
//!   [`ConnEvent`]s tagged with a [`ConnId`] (`Delivery::Service`, for
//!   services like the registry that reply on the same connection via
//!   [`ReactorHandle::send_to`]).

use crate::conn::{Drain, FramedConn, OutFrame};
use crate::sender::MsgSender;
use crate::sys::{Epoll, Event, READABLE, WRITABLE};
use bytes::BytesMut;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use swing_core::{Error, Result, SharedBytes};
use swing_net::wire::WireSegment;
use swing_net::{Message, NetTimeouts};
use swing_telemetry::{names, Counter, Gauge, Telemetry};

/// Identifies one reactor-managed connection (stable for its lifetime,
/// never reused within a reactor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// Inbound event stream for `Delivery::Service` consumers.
#[derive(Debug, Clone)]
pub enum ConnEvent {
    /// A decoded message arrived on the given connection.
    Message(ConnId, Message),
    /// The connection closed (EOF, error, or deregistration). Sent at
    /// most once, after which the `ConnId` is dead.
    Closed(ConnId),
}

/// Where a listener delivers the frames its accepted connections
/// receive.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// Decoded messages are forwarded to this sender, with no
    /// connection identity — the fabric inbox model, where all peers
    /// funnel into one queue.
    Inbox(MsgSender),
    /// Events tagged with the originating [`ConnId`], including a
    /// [`ConnEvent::Closed`] tombstone — for request/reply services.
    Service(Sender<ConnEvent>),
}

/// Reactor tuning.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Capacity of each dialed connection's outbox channel (the
    /// back-pressure bound producers block on).
    pub outbox_capacity: usize,
    /// Write-queue length at which the reactor stops pulling from a
    /// connection's outbox (keeps per-conn memory bounded by
    /// `outbox_capacity + writer_queue_limit` frames).
    pub writer_queue_limit: usize,
    /// Network timing (dial timeout is taken from here).
    pub timeouts: NetTimeouts,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            outbox_capacity: 256,
            writer_queue_limit: 64,
            timeouts: NetTimeouts::default(),
        }
    }
}

/// The reactor's wake handle: a socket pair whose read end sits in the
/// epoll set. Both ends live here, so a write can never meet a closed
/// peer however long a [`MsgSender`] outlives the reactor thread.
#[derive(Debug)]
pub(crate) struct Waker {
    /// A wake-up byte is in the pipe (or about to be) and the reactor
    /// has not consumed it yet: further wakes are free.
    notified: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            notified: AtomicBool::new(false),
            tx,
            rx,
        })
    }

    /// Make the reactor's current or next wait return. Call *after*
    /// publishing the work: the reactor clears the flag before it looks
    /// for work (SeqCst on both sides), so work published before a
    /// skipped wake is still found.
    pub(crate) fn wake(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            // The flag admits one byte at a time, so the pipe is never
            // full; nothing to do about an error here in any case.
            let _ = (&self.tx).write_all(&[1]);
        }
    }

    /// Reactor side, once `rx` is reported readable: swallow the byte,
    /// then re-arm. In that order — the flag is set for as long as a
    /// byte is in the pipe, so none can arrive between the two steps.
    fn reset(&self) {
        let _ = (&self.rx).read(&mut [0u8; 8]);
        self.notified.store(false, Ordering::SeqCst);
    }
}

enum Cmd {
    Listen {
        listener: TcpListener,
        delivery: Delivery,
        reply: SyncSender<Result<()>>,
    },
    Register {
        stream: TcpStream,
        outbox: Option<Receiver<Box<Message>>>,
        delivery: Option<Delivery>,
        reply: SyncSender<Result<ConnId>>,
    },
    SendTo(ConnId, Message),
    Close(ConnId),
    Shutdown,
}

/// Handle for registering work with a running [`Reactor`]. Cloneable;
/// the reactor thread is stopped and joined when every handle is
/// dropped or [`shutdown`](Self::shutdown) is called.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

struct Shared {
    cmd: Sender<Cmd>,
    waker: Arc<Waker>,
    config: ReactorConfig,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    fn shutdown(&self) {
        let _ = self.cmd.send(Cmd::Shutdown);
        self.waker.wake();
        // The slot holds a handle or nothing at every step, so a
        // poisoned lock is safe to recover (and this runs from Drop).
        let thread = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = thread {
            let _ = h.join();
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorHandle").finish_non_exhaustive()
    }
}

impl ReactorHandle {
    /// Bind a listener and deliver everything its accepted connections
    /// receive according to `delivery`. Returns the resolved address.
    pub fn listen<A: ToSocketAddrs>(&self, addr: A, delivery: Delivery) -> Result<String> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (reply, registered) = sync_channel(1);
        self.send_cmd(Cmd::Listen {
            listener,
            delivery,
            reply,
        })?;
        registered.recv().map_err(|_| Error::Closed)??;
        Ok(local.to_string())
    }

    /// Dial a peer for writing. The returned sender's `send` blocks
    /// once `outbox_capacity` messages are queued, which is the
    /// transport's back-pressure signal. Dropping every clone of the
    /// sender closes the connection after the queue drains.
    pub fn dial(&self, addr: &str) -> Result<MsgSender> {
        self.dial_with_delivery(addr, None)
    }

    /// Dial a peer bidirectionally: like [`dial`](Self::dial), but
    /// frames the peer sends back are delivered too (request/reply
    /// clients such as the registry client).
    pub fn dial_bidi(&self, addr: &str, delivery: Delivery) -> Result<MsgSender> {
        self.dial_with_delivery(addr, Some(delivery))
    }

    fn dial_with_delivery(&self, addr: &str, delivery: Option<Delivery>) -> Result<MsgSender> {
        let sock_addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::Malformed(format!("unresolvable address {addr}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, self.shared.config.timeouts.connect)?;
        let (tx, rx) = sync_channel(self.shared.config.outbox_capacity);
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send_cmd(Cmd::Register {
            stream,
            outbox: Some(rx),
            delivery,
            reply: reply_tx,
        })?;
        reply_rx.recv().map_err(|_| Error::Closed)??;
        Ok(MsgSender::waking(tx, Arc::clone(&self.shared.waker)))
    }

    /// Queue a message for writing on an accepted connection (the
    /// reply path for `Delivery::Service` consumers). Fire-and-forget:
    /// unknown / already-closed connections are ignored.
    pub fn send_to(&self, conn: ConnId, msg: Message) -> Result<()> {
        self.send_cmd(Cmd::SendTo(conn, msg))
    }

    /// Close one connection (its `Delivery::Service` consumer, if any,
    /// receives a `Closed` tombstone).
    pub fn close(&self, conn: ConnId) -> Result<()> {
        self.send_cmd(Cmd::Close(conn))
    }

    /// Stop the reactor thread, dropping every connection.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }

    fn send_cmd(&self, cmd: Cmd) -> Result<()> {
        self.shared.cmd.send(cmd).map_err(|_| Error::Closed)?;
        self.shared.waker.wake();
        Ok(())
    }
}

struct Metrics {
    wakeups: Counter,
    events: Counter,
    frames_sent: Counter,
    frames_received: Counter,
    conns_closed: Counter,
    open_conns: Gauge,
    writer_queue_depth: Gauge,
}

impl Metrics {
    fn new(telemetry: &Telemetry) -> Self {
        Metrics {
            wakeups: telemetry.counter(names::REACTOR_WAKEUPS, &[]),
            events: telemetry.counter(names::REACTOR_EVENTS, &[]),
            frames_sent: telemetry.counter(names::REACTOR_FRAMES_SENT, &[]),
            frames_received: telemetry.counter(names::REACTOR_FRAMES_RECEIVED, &[]),
            conns_closed: telemetry.counter(names::REACTOR_CONNS_CLOSED, &[]),
            open_conns: telemetry.gauge(names::REACTOR_OPEN_CONNS, &[]),
            writer_queue_depth: telemetry.gauge(names::REACTOR_WRITER_QUEUE_DEPTH, &[]),
        }
    }
}

/// The readiness loop. Construct with [`Reactor::spawn`]; interact
/// through the returned [`ReactorHandle`].
#[derive(Debug)]
pub struct Reactor;

impl Reactor {
    /// Start a reactor thread. `telemetry`, when given, receives the
    /// `swing_reactor_*` metrics.
    #[must_use]
    pub fn spawn(config: ReactorConfig, telemetry: Option<&Telemetry>) -> ReactorHandle {
        let (cmd_tx, cmd_rx) = channel();
        let waker = Arc::new(Waker::new().expect("create the reactor's wake socket pair"));
        let epoll = Epoll::new().expect("create the reactor's epoll instance");
        epoll
            .add(waker.rx.as_raw_fd(), WAKE_TOKEN, READABLE)
            .expect("register the reactor's wake handle");
        let event_loop = Loop {
            cmd_rx,
            waker: Arc::clone(&waker),
            listeners: Vec::new(),
            conns: Vec::new(),
            next_id: 0,
            ctx: Ctx {
                epoll,
                writer_queue_limit: config.writer_queue_limit,
                scratch: BytesMut::new(),
                segments: Vec::new(),
                read_buf: vec![0u8; 64 * 1024],
                frames: Vec::new(),
                metrics: telemetry.map(Metrics::new),
                events: 0,
                queued: 0,
                any_dead: false,
            },
        };
        let thread = std::thread::Builder::new()
            .name("swing-reactor".into())
            .spawn(move || event_loop.run())
            .expect("spawn reactor thread");
        ReactorHandle {
            shared: Arc::new(Shared {
                cmd: cmd_tx,
                waker,
                config,
                thread: Mutex::new(Some(thread)),
            }),
        }
    }
}

/// Epoll token of the wake handle. Connections register under their
/// id, listeners under `LISTENER | index`; ids count up from zero and
/// never get near either.
const WAKE_TOKEN: u64 = u64::MAX;
const LISTENER: u64 = 1 << 63;

/// What servicing a connection needs besides the connection itself:
/// the epoll set, codec scratch space reused across frames, and the
/// counters.
struct Ctx {
    epoll: Epoll,
    writer_queue_limit: usize,
    scratch: BytesMut,
    segments: Vec<WireSegment>,
    read_buf: Vec<u8>,
    frames: Vec<SharedBytes>,
    metrics: Option<Metrics>,
    /// Events serviced since the last flush into `metrics`.
    events: u64,
    /// Frames sitting in write queues, over all connections.
    queued: u64,
    /// Some connection was marked dead since the last `reap`.
    any_dead: bool,
}

impl Ctx {
    fn enqueue(&mut self, io: &mut FramedConn, msg: &Message) {
        io.enqueue(OutFrame::encode(msg, &mut self.scratch, &mut self.segments));
        self.queued += 1;
    }
}

struct Conn {
    id: u64,
    io: FramedConn,
    outbox: Option<Receiver<Box<Message>>>,
    delivery: Option<Delivery>,
    /// Outbox disconnected; close once the write queue drains.
    closing: bool,
    /// Registered for writability as well as readability.
    polling_write: bool,
    /// Reaped at the end of the current pass.
    dead: bool,
}

impl Conn {
    fn kill(&mut self, ctx: &mut Ctx) {
        self.dead = true;
        ctx.any_dead = true;
    }

    /// Refill the write queue from the outbox while it is short, write
    /// until the socket blocks or the queue drains, and ask for
    /// writability exactly when it blocked. A socket that blocked
    /// earlier is not tried again until the kernel reports it
    /// `writable`. Returns `true` when the refill stopped at the queue
    /// limit and the socket then took everything: the outbox may hold
    /// more, and no wake-up or writability report will say so.
    fn pump(&mut self, ctx: &mut Ctx, writable: bool) -> bool {
        let mut at_limit = false;
        if let Some(outbox) = &self.outbox {
            loop {
                if self.io.queue_len() >= ctx.writer_queue_limit {
                    at_limit = true;
                    break;
                }
                match outbox.try_recv() {
                    Ok(msg) => {
                        ctx.enqueue(&mut self.io, &msg);
                        ctx.events += 1;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.closing = true;
                        self.outbox = None;
                        break;
                    }
                }
            }
        }
        if self.io.write_blocked() && !writable {
            return false;
        }
        match self.io.drain_write() {
            Ok((done, _)) => {
                ctx.events += done;
                ctx.queued -= done;
                if let Some(m) = &ctx.metrics {
                    m.frames_sent.add(done);
                }
                if self.closing && self.io.queue_len() == 0 {
                    self.kill(ctx);
                }
            }
            Err(_) => self.kill(ctx),
        }
        let blocked = self.io.write_blocked();
        if blocked != self.polling_write && !self.dead {
            let interest = if blocked {
                READABLE | WRITABLE
            } else {
                READABLE
            };
            if ctx.epoll.modify(self.io.fd(), self.id, interest).is_err() {
                self.kill(ctx);
            }
            self.polling_write = blocked;
        }
        at_limit && !blocked && !self.dead
    }

    /// Read whatever the kernel has, decode and deliver it.
    fn read(&mut self, ctx: &mut Ctx) {
        ctx.frames.clear();
        let result = self.io.drain_read(&mut ctx.read_buf, &mut ctx.frames);
        ctx.events += ctx.frames.len() as u64;
        if let Some(m) = &ctx.metrics {
            m.frames_received.add(ctx.frames.len() as u64);
        }
        // An undecodable peer, or a consumer that went away: drop the
        // connection.
        let delivered = ctx.frames.drain(..).all(|frame| {
            Message::decode_shared(&frame).is_ok_and(|msg| match &self.delivery {
                Some(Delivery::Inbox(tx)) => tx.send(msg).is_ok(),
                Some(Delivery::Service(tx)) => {
                    tx.send(ConnEvent::Message(ConnId(self.id), msg)).is_ok()
                }
                // Write-only connection: inbound frames have nowhere
                // to go; ignore them.
                None => true,
            })
        });
        // Anything but "the socket has no more for now" is EOF or a
        // socket error.
        if !delivered || !matches!(result, Ok(Drain::Blocked)) {
            self.kill(ctx);
        }
    }
}

/// How long the loop stands still after `accept` fails for a reason
/// other than an empty backlog (descriptor or memory exhaustion). The
/// listener stays readable throughout, so without the pause the loop
/// would spin until the shortage passes.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

struct Loop {
    cmd_rx: Receiver<Cmd>,
    waker: Arc<Waker>,
    /// Never shrinks: a listener's index is its epoll token.
    listeners: Vec<(TcpListener, Delivery)>,
    /// Ascending by id (ids only grow), so an id is found by bisection.
    conns: Vec<Conn>,
    next_id: u64,
    ctx: Ctx,
}

impl Loop {
    fn run(mut self) {
        let mut events = [Event::default(); 256];
        // A pass left work that nothing will announce (see
        // `Conn::pump`): look again without sleeping.
        let mut rescan = false;
        loop {
            if let Some(m) = &self.ctx.metrics {
                m.events.add(std::mem::take(&mut self.ctx.events));
                m.open_conns.set_u64(self.conns.len() as u64);
                m.writer_queue_depth.set_u64(self.ctx.queued);
            }
            let Ok(ready) = self.ctx.epoll.wait(&mut events, !rescan) else {
                return; // the epoll instance is unusable; nothing to run on
            };
            if let Some(m) = &self.ctx.metrics {
                m.wakeups.inc();
            }

            // 1. What the kernel reported.
            let mut woken = std::mem::take(&mut rescan);
            for event in &events[..ready] {
                let token = event.token();
                if token == WAKE_TOKEN {
                    self.waker.reset();
                    woken = true;
                } else if token & LISTENER != 0 {
                    self.accept((token & !LISTENER) as usize);
                } else if let Some(conn) = find(&mut self.conns, token) {
                    if event.writable() && !conn.dead {
                        rescan |= conn.pump(&mut self.ctx, true);
                    }
                    if event.readable() && !conn.dead {
                        conn.read(&mut self.ctx);
                    }
                }
            }

            // 2. What it cannot see: commands and outboxes.
            if woken {
                while let Ok(cmd) = self.cmd_rx.try_recv() {
                    if self.handle_cmd(cmd) {
                        return;
                    }
                }
                for conn in &mut self.conns {
                    let pending = conn.outbox.is_some() || conn.io.queue_len() > 0;
                    if pending && !conn.dead {
                        rescan |= conn.pump(&mut self.ctx, false);
                    }
                }
            }

            self.reap();
        }
    }

    /// Take a socket into the loop and the epoll set.
    fn add_conn(
        &mut self,
        stream: TcpStream,
        outbox: Option<Receiver<Box<Message>>>,
        delivery: Option<Delivery>,
    ) -> Result<ConnId> {
        let io = FramedConn::new(stream)?;
        let id = self.next_id;
        self.ctx.epoll.add(io.fd(), id, READABLE)?;
        self.next_id += 1;
        self.conns.push(Conn {
            id,
            io,
            outbox,
            delivery,
            closing: false,
            polling_write: false,
            dead: false,
        });
        Ok(ConnId(id))
    }

    fn accept(&mut self, listener: usize) {
        loop {
            match self.listeners[listener].0.accept() {
                Ok((stream, _)) => {
                    // A failed setup means the peer vanished between
                    // accept and fcntl; skip it.
                    let delivery = self.listeners[listener].1.clone();
                    if self.add_conn(stream, None, Some(delivery)).is_ok() {
                        self.ctx.events += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    std::thread::sleep(ACCEPT_RETRY);
                    return;
                }
            }
        }
    }

    /// Apply one command. Returns `true` on shutdown.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        match cmd {
            Cmd::Listen {
                listener,
                delivery,
                reply,
            } => {
                let token = LISTENER | self.listeners.len() as u64;
                let added = self.ctx.epoll.add(listener.as_raw_fd(), token, READABLE);
                if added.is_ok() {
                    self.listeners.push((listener, delivery));
                }
                let _ = reply.send(added.map_err(Error::from));
            }
            Cmd::Register {
                stream,
                outbox,
                delivery,
                reply,
            } => {
                let _ = reply.send(self.add_conn(stream, outbox, delivery));
            }
            // Queued here, written by the pass over the connections
            // that follows the commands (one write for a batch).
            Cmd::SendTo(ConnId(id), msg) => {
                if let Some(conn) = find(&mut self.conns, id) {
                    self.ctx.enqueue(&mut conn.io, &msg);
                }
            }
            Cmd::Close(ConnId(id)) => {
                if let Some(conn) = find(&mut self.conns, id) {
                    conn.kill(&mut self.ctx);
                }
            }
            Cmd::Shutdown => return true,
        }
        false
    }

    /// Drop every connection marked dead — the one way a connection
    /// leaves the reactor, so `conns_closed` counts exactly the
    /// `Closed` tombstones a `Delivery::Service` consumer can see.
    /// Closing the socket also takes it out of the epoll set.
    fn reap(&mut self) {
        if !std::mem::take(&mut self.ctx.any_dead) {
            return;
        }
        let ctx = &mut self.ctx;
        self.conns.retain(|conn| {
            if !conn.dead {
                return true;
            }
            if let Some(Delivery::Service(tx)) = &conn.delivery {
                let _ = tx.send(ConnEvent::Closed(ConnId(conn.id)));
            }
            if let Some(m) = &ctx.metrics {
                m.conns_closed.inc();
            }
            ctx.events += 1;
            ctx.queued -= conn.io.queue_len() as u64;
            false
        });
    }
}

fn find(conns: &mut [Conn], id: u64) -> Option<&mut Conn> {
    let at = conns.binary_search_by_key(&id, |c| c.id).ok()?;
    Some(&mut conns[at])
}

#[cfg(test)]
mod tests {
    use super::*;
    use swing_core::{SeqNo, Tuple, UnitId};

    fn data(i: u64) -> Message {
        Message::Data {
            dest: UnitId(1),
            from: UnitId(0),
            tuple: Tuple::with_seq(SeqNo(i)).with("frame", vec![i as u8; 2_000]),
        }
    }

    #[test]
    fn dialed_messages_reach_inbox_listener() {
        let reactor = Reactor::spawn(ReactorConfig::default(), None);
        let (tx, rx) = channel();
        let addr = reactor
            .listen("127.0.0.1:0", Delivery::Inbox(tx.into()))
            .unwrap();
        let out = reactor.dial(&addr).unwrap();
        for i in 0..100 {
            out.send(data(i)).unwrap();
        }
        for i in 0..100 {
            let msg = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, data(i));
        }
        reactor.shutdown();
    }

    #[test]
    fn service_delivery_can_reply_on_the_same_conn() {
        let reactor = Reactor::spawn(ReactorConfig::default(), None);
        let (ev_tx, ev_rx) = channel();
        let addr = reactor
            .listen("127.0.0.1:0", Delivery::Service(ev_tx))
            .unwrap();
        // Echo service: one thread answering Ping with Pong.
        let svc_reactor = reactor.clone();
        let svc = std::thread::spawn(move || {
            while let Ok(ev) = ev_rx.recv_timeout(Duration::from_secs(5)) {
                match ev {
                    ConnEvent::Message(conn, Message::Ping) => {
                        svc_reactor
                            .send_to(
                                conn,
                                Message::Pong {
                                    device: swing_core::DeviceId(9),
                                },
                            )
                            .unwrap();
                    }
                    ConnEvent::Message(_, _) => {}
                    ConnEvent::Closed(_) => break,
                }
            }
        });
        let (reply_tx, reply_rx) = channel();
        let out = reactor
            .dial_bidi(&addr, Delivery::Inbox(reply_tx.into()))
            .unwrap();
        out.send(Message::Ping).unwrap();
        let reply = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            reply,
            Message::Pong {
                device: swing_core::DeviceId(9)
            }
        );
        drop(out); // closes the conn; service sees Closed and exits
        svc.join().unwrap();
        reactor.shutdown();
    }

    #[test]
    fn bounded_outbox_applies_backpressure() {
        let config = ReactorConfig {
            outbox_capacity: 4,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::spawn(config, None);
        let (tx, rx) = channel();
        let addr = reactor
            .listen("127.0.0.1:0", Delivery::Inbox(tx.into()))
            .unwrap();
        let out = reactor.dial(&addr).unwrap();
        // The reactor keeps draining, so sends never deadlock; but the
        // channel is bounded, so at any instant at most
        // capacity + writer-queue messages are buffered.
        for i in 0..200 {
            out.send(data(i)).unwrap();
        }
        for i in 0..200 {
            let msg = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, data(i), "order must be preserved");
        }
        reactor.shutdown();
    }

    #[test]
    fn many_concurrent_conns_multiplex_on_one_thread() {
        let reactor = Reactor::spawn(ReactorConfig::default(), None);
        let (tx, rx) = channel();
        let addr = reactor
            .listen("127.0.0.1:0", Delivery::Inbox(tx.into()))
            .unwrap();
        let senders: Vec<_> = (0..50).map(|_| reactor.dial(&addr).unwrap()).collect();
        for (k, s) in senders.iter().enumerate() {
            for i in 0..20 {
                s.send(data((k * 100 + i) as u64)).unwrap();
            }
        }
        let mut got = Vec::new();
        for _ in 0..50 * 20 {
            let Message::Data { tuple, .. } = rx.recv_timeout(Duration::from_secs(10)).unwrap()
            else {
                panic!("unexpected variant");
            };
            got.push(tuple.seq().0);
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..50)
            .flat_map(|k| (0..20).map(move |i| (k * 100 + i) as u64))
            .collect();
        assert_eq!(got, want);
        reactor.shutdown();
    }

    #[test]
    fn dropping_the_outbox_closes_the_conn_after_draining() {
        let reactor = Reactor::spawn(ReactorConfig::default(), None);
        let (ev_tx, ev_rx) = channel();
        let addr = reactor
            .listen("127.0.0.1:0", Delivery::Service(ev_tx))
            .unwrap();
        let out = reactor.dial(&addr).unwrap();
        out.send(Message::Ping).unwrap();
        drop(out);
        let mut saw_msg = false;
        let mut saw_close = false;
        while let Ok(ev) = ev_rx.recv_timeout(Duration::from_secs(5)) {
            match ev {
                ConnEvent::Message(_, Message::Ping) => saw_msg = true,
                ConnEvent::Closed(_) => {
                    saw_close = true;
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_msg, "queued message must drain before the close");
        assert!(saw_close, "service must see the Closed tombstone");
        reactor.shutdown();
    }
}
