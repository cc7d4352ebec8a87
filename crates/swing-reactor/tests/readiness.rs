//! The reactor sleeps until there is work and wakes when there is:
//! idle latency, idle cost, a stalled reader, a dropped sender and a
//! half-open peer, each through the public API over loopback.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swing_core::{SeqNo, Tuple, UnitId};
use swing_net::{FrameAssembler, Message};
use swing_reactor::{ConnEvent, Delivery, Reactor, ReactorConfig, ReactorHandle};
use swing_telemetry::{names, Telemetry};

fn data(seq: u64, bytes: usize) -> Message {
    Message::Data {
        dest: UnitId(1),
        from: UnitId(0),
        tuple: Tuple::with_seq(SeqNo(seq)).with("p", vec![seq as u8; bytes]),
    }
}

fn inbox_listener(reactor: &ReactorHandle) -> (String, Receiver<Message>) {
    let (tx, rx) = channel();
    let addr = reactor
        .listen("127.0.0.1:0", Delivery::Inbox(tx.into()))
        .unwrap();
    (addr, rx)
}

/// A blocking peer's receive: read `stream` through the production
/// frame assembler until one whole message is out.
fn recv_blocking(stream: &mut TcpStream, frames: &mut FrameAssembler) -> Message {
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if let Some(frame) = frames.next_frame().unwrap() {
            return Message::decode_shared(&frame).unwrap();
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the reactor hung up mid-stream");
        frames.feed(&chunk[..n]);
    }
}

/// Poll `cond` until it holds; panics after five seconds.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn an_echo_after_silence_takes_well_under_a_millisecond() {
    let reactor = Reactor::spawn(ReactorConfig::default(), None);
    let (addr_a, at_a) = inbox_listener(&reactor);
    let (addr_b, at_b) = inbox_listener(&reactor);
    let to_b = reactor.dial(&addr_b).unwrap();
    let to_a = reactor.dial(&addr_a).unwrap();
    let wait = Duration::from_secs(5);
    let median_of_50 = || {
        let mut trips: Vec<Duration> = (0..50)
            .map(|i| {
                std::thread::sleep(Duration::from_millis(50));
                let t0 = Instant::now();
                to_b.send(data(i, 64)).unwrap();
                to_a.send(at_b.recv_timeout(wait).unwrap()).unwrap();
                at_a.recv_timeout(wait).unwrap();
                t0.elapsed()
            })
            .collect();
        trips.sort_unstable();
        trips[trips.len() / 2]
    };
    // A round trip is four cold thread wake-ups (~0.5 ms on a small VM
    // after 50 ms asleep); a reactor that is not woken by the send adds
    // a timer to each (3.8 ms at the sweep reactor). A noisy host can
    // push one set over the line, not three.
    let mut medians = Vec::new();
    while medians.len() < 3
        && medians
            .last()
            .is_none_or(|m| *m >= Duration::from_millis(1))
    {
        medians.push(median_of_50());
    }
    assert!(
        medians
            .last()
            .is_some_and(|m| *m < Duration::from_millis(1)),
        "median idle echo took {medians:?}; the reactor is not woken by the send"
    );
    reactor.shutdown();
}

#[test]
fn a_hundred_idle_connections_cause_no_wake_ups() {
    let telemetry = Telemetry::new();
    let reactor = Reactor::spawn(ReactorConfig::default(), Some(&telemetry));
    let (addr, _inbox) = inbox_listener(&reactor);
    let _links: Vec<_> = (0..100).map(|_| reactor.dial(&addr).unwrap()).collect();
    // Both ends of every link registered: the accepts are done too.
    let open = telemetry.gauge(names::REACTOR_OPEN_CONNS, &[]);
    wait_until("200 connections are open", || open.get() == 200.0);
    let wakeups = telemetry.counter(names::REACTOR_WAKEUPS, &[]);
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(wakeups.get(), before, "an idle reactor must stay asleep");
    reactor.shutdown();
}

#[test]
fn a_stalled_reader_blocks_the_producer_without_spinning_the_reactor() {
    const OUTBOX: u64 = 8;
    const QUEUE: u64 = 4;
    const FRAMES: u64 = 64;
    const FRAME_BYTES: usize = 1 << 20;
    let telemetry = Telemetry::new();
    let config = ReactorConfig {
        outbox_capacity: OUTBOX as usize,
        writer_queue_limit: QUEUE as usize,
        ..ReactorConfig::default()
    };
    let reactor = Reactor::spawn(config, Some(&telemetry));
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let out = reactor
        .dial(&peer.local_addr().unwrap().to_string())
        .unwrap();
    let (mut peer, _) = peer.accept().unwrap(); // and does not read yet

    let sent = Arc::new(AtomicU64::new(0));
    let producer = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            for seq in 0..FRAMES {
                out.send(data(seq, FRAME_BYTES)).unwrap();
                sent.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // The kernel's socket buffers fill, then the write queue, then the
    // outbox; the next `send` blocks. Stalled = no progress for 300 ms.
    let mut last = (0, Instant::now());
    wait_until("the producer stalls", || {
        let now = sent.load(Ordering::SeqCst);
        if now != last.0 {
            last = (now, Instant::now());
        }
        last.1.elapsed() > Duration::from_millis(300)
    });
    let written = telemetry.counter(names::REACTOR_FRAMES_SENT, &[]).get();
    let accepted = sent.load(Ordering::SeqCst);
    assert!(accepted < FRAMES, "64 MB fit in flight; nothing stalled");
    assert_eq!(
        accepted - written,
        OUTBOX + QUEUE,
        "in-memory frames must be bounded by outbox + write queue"
    );
    let queued = telemetry.gauge(names::REACTOR_WRITER_QUEUE_DEPTH, &[]);
    assert_eq!(queued.get(), QUEUE as f64);

    // Blocked on a full socket, the reactor waits for writability; it
    // does not poll for it.
    let wakeups = telemetry.counter(names::REACTOR_WAKEUPS, &[]);
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(wakeups.get(), before, "the reactor spun while blocked");

    // The peer resumes: everything arrives, in order.
    let mut frames = FrameAssembler::new();
    for seq in 0..FRAMES {
        let Message::Data { tuple, .. } = recv_blocking(&mut peer, &mut frames) else {
            panic!("unexpected message");
        };
        assert_eq!(tuple.seq(), SeqNo(seq));
    }
    producer.join().unwrap();
    reactor.shutdown();
}

#[test]
fn dropping_the_last_sender_wakes_a_sleeping_reactor() {
    let reactor = Reactor::spawn(ReactorConfig::default(), None);
    let (ev_tx, ev_rx) = channel();
    let addr = reactor
        .listen("127.0.0.1:0", Delivery::Service(ev_tx))
        .unwrap();
    let out = reactor.dial(&addr).unwrap();
    let clone = out.clone();
    out.send(Message::Ping).unwrap();
    let first = ev_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(matches!(first, ConnEvent::Message(_, Message::Ping)));

    std::thread::sleep(Duration::from_millis(50)); // the reactor is asleep
    drop(out);
    assert!(
        ev_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a clone of the sender is still alive"
    );
    drop(clone);
    let closed = ev_rx.recv_timeout(Duration::from_millis(100));
    assert!(
        matches!(closed, Ok(ConnEvent::Closed(_))),
        "expected the tombstone within 100 ms, got {closed:?}"
    );
    reactor.shutdown();
}

#[test]
fn a_peer_that_shuts_down_mid_frame_is_closed_once_and_not_leaked() {
    let telemetry = Telemetry::new();
    let reactor = Reactor::spawn(ReactorConfig::default(), Some(&telemetry));
    let (ev_tx, ev_rx) = channel();
    let addr = reactor
        .listen("127.0.0.1:0", Delivery::Service(ev_tx))
        .unwrap();
    let mut peer = TcpStream::connect(&addr).unwrap();
    // A torn frame: the prefix promises 100 bytes, 10 arrive, then the
    // peer's writing half goes away while its reading half stays open.
    peer.write_all(&100u32.to_be_bytes()).unwrap();
    peer.write_all(&[0u8; 10]).unwrap();
    peer.shutdown(Shutdown::Write).unwrap();

    let closed = ev_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(matches!(closed, ConnEvent::Closed(_)), "got {closed:?}");
    assert!(
        ev_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "exactly one tombstone per connection"
    );
    // The reactor let go of its descriptor: the peer reads EOF, and
    // nothing is left registered.
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(peer.read(&mut [0u8; 16]).unwrap(), 0);
    let open = telemetry.gauge(names::REACTOR_OPEN_CONNS, &[]);
    wait_until("no connection is open", || open.get() == 0.0);
    assert_eq!(telemetry.counter(names::REACTOR_CONNS_CLOSED, &[]).get(), 1);
    reactor.shutdown();
}

#[test]
fn an_explicit_close_is_counted_like_any_other() {
    let telemetry = Telemetry::new();
    let reactor = Reactor::spawn(ReactorConfig::default(), Some(&telemetry));
    let (ev_tx, ev_rx) = channel();
    let addr = reactor
        .listen("127.0.0.1:0", Delivery::Service(ev_tx))
        .unwrap();
    let out = reactor.dial(&addr).unwrap();
    out.send(Message::Ping).unwrap();
    let ConnEvent::Message(conn, _) = ev_rx.recv_timeout(Duration::from_secs(5)).unwrap() else {
        panic!("expected the ping");
    };
    reactor.close(conn).unwrap();
    let closed = ev_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(matches!(closed, ConnEvent::Closed(c) if c == conn));
    // The accepted end was closed by command, the dialed end by the
    // EOF that followed: two connections gone, both counted.
    let closed = telemetry.counter(names::REACTOR_CONNS_CLOSED, &[]);
    wait_until("both ends are counted closed", || closed.get() == 2);
    let open = telemetry.gauge(names::REACTOR_OPEN_CONNS, &[]);
    wait_until("no connection is open", || open.get() == 0.0);
    reactor.shutdown();
}
