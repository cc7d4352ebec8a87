//! Reactor soak: N worker links (default 1000) multiplexed on one
//! reactor thread, under connection churn and a registry discovery
//! storm, with exact frame accounting.
//!
//! Every worker dials one framed connection into a collector listener
//! and registers itself as an `(app, "worker")` service with a
//! heartbeat-renewed lease. Producers pace tuples through the bounded
//! outboxes (the PR 5 credit gate at the transport layer): a full
//! outbox means the tuple is shed *at the source* and counted, never
//! silently dropped. Churn periodically retires live connections
//! (close-after-drain) and dials replacements, de-registering the
//! retired lease so the registry tombstones it; a watcher counts the
//! tombstones. Meanwhile lookup clients hammer the registry and record
//! per-lookup latency.
//!
//! The run must conserve frames exactly:
//!
//! ```text
//! sensed = delivered + shed_at_source          (lost must be 0)
//! ```
//!
//! and the end-to-end p99 must hold under the storm. Results land in
//! `BENCH_pr8_soak.json`, gated in CI by `scripts/check_soak.py`.
//!
//! Usage: `reactor_soak [--workers N] [--secs S] [--out FILE]`

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use swing_core::{SeqNo, Tuple, UnitId};
use swing_net::{Message, NetTimeouts, ServiceEntry};
use swing_reactor::{
    Delivery, Heartbeater, Reactor, ReactorConfig, RegistryClient, RegistryServer,
};
use swing_telemetry::Telemetry;

const APP: &str = "soak";
const PRODUCERS: usize = 8;
/// Pace: one tuple per connection per tick.
const TICK: Duration = Duration::from_millis(100);
/// Retire one connection per producer every this many ticks.
const CHURN_EVERY: u64 = 30;

/// Lease timing sized for the fleet, not for a single node: renewals
/// are batched once a second and the TTL gives four missed beats of
/// grace, so a busy reactor under the discovery storm doesn't tombstone
/// *live* workers (the soak asserts it doesn't).
fn soak_timeouts() -> NetTimeouts {
    NetTimeouts {
        heartbeat_interval: Duration::from_secs(1),
        heartbeat_ttl: Duration::from_secs(4),
        ..NetTimeouts::default()
    }
}

struct Shared {
    sensed: AtomicU64,
    shed_at_source: AtomicU64,
    delivered: AtomicU64,
    order_violations: AtomicU64,
    churned: AtomicU64,
    next_stream: AtomicU64,
    stop: AtomicBool,
    latencies_us: Mutex<Vec<u64>>,
    epoch: Instant,
}

fn now_us(epoch: Instant) -> i64 {
    i64::try_from(epoch.elapsed().as_micros()).unwrap_or(i64::MAX)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn entry(stream: u64, addr: &str) -> ServiceEntry {
    ServiceEntry {
        app: APP.to_owned(),
        role: "worker".to_owned(),
        stage: format!("s{}", stream % 4),
        addr: format!("{addr}#{stream}"),
    }
}

fn main() {
    let mut workers: usize = 1000;
    let mut secs: u64 = 20;
    let mut out = "BENCH_pr8_soak.json".to_owned();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i + 1 < args.len() + 1 {
        match args.get(i).map(String::as_str) {
            Some("--workers") => {
                workers = args[i + 1].parse().expect("--workers N");
                i += 2;
            }
            Some("--secs") => {
                secs = args[i + 1].parse().expect("--secs S");
                i += 2;
            }
            Some("--out") => {
                out.clone_from(&args[i + 1]);
                i += 2;
            }
            Some(other) => panic!("unknown argument {other}"),
            None => break,
        }
    }

    let wall = Instant::now();
    let telemetry = Telemetry::new();
    let timeouts = soak_timeouts();
    let reactor = Reactor::spawn(
        ReactorConfig {
            timeouts,
            ..ReactorConfig::default()
        },
        Some(&telemetry),
    );
    let mut registry =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, Some(&telemetry)).unwrap();
    let registry_addr = registry.addr().to_owned();

    let shared = Arc::new(Shared {
        sensed: AtomicU64::new(0),
        shed_at_source: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        order_violations: AtomicU64::new(0),
        churned: AtomicU64::new(0),
        next_stream: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        latencies_us: Mutex::new(Vec::with_capacity(1 << 18)),
        epoch: Instant::now(),
    });

    // Collector: every worker connection funnels into this inbox.
    let (col_tx, col_rx) = std::sync::mpsc::channel();
    let collector_addr = reactor
        .listen("127.0.0.1:0", Delivery::Inbox(col_tx.into()))
        .unwrap();
    let col_shared = Arc::clone(&shared);
    let collector = std::thread::spawn(move || {
        let mut last_seq: HashMap<i64, u64> = HashMap::new();
        while let Ok(msg) = col_rx.recv() {
            let Message::Data { tuple, .. } = msg else {
                continue;
            };
            let stream = tuple.i64("s").unwrap_or(-1);
            let sent_us = tuple.i64("t").unwrap_or(0);
            let seq = tuple.seq().0;
            let prev = last_seq.insert(stream, seq);
            if prev.is_some_and(|p| seq <= p) {
                col_shared.order_violations.fetch_add(1, Ordering::Relaxed);
            }
            let lat = (now_us(col_shared.epoch) - sent_us).max(0) as u64;
            col_shared
                .latencies_us
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(lat);
            col_shared.delivered.fetch_add(1, Ordering::Relaxed);
        }
    });

    // Watcher: count expiry tombstones the churned leases produce.
    let tombstones = Arc::new(AtomicU64::new(0));
    let tomb2 = Arc::clone(&tombstones);
    let stop_watch = Arc::new(AtomicBool::new(false));
    let stop_watch2 = Arc::clone(&stop_watch);
    let mut watcher = RegistryClient::connect(&reactor, &registry_addr, timeouts).unwrap();
    watcher.watch(APP, "worker", "").unwrap();
    let watch = std::thread::spawn(move || {
        while !stop_watch2.load(Ordering::SeqCst) {
            match watcher.recv_expired(Duration::from_millis(200)) {
                Ok(_) => {
                    tomb2.fetch_add(1, Ordering::Relaxed);
                }
                Err(swing_core::Error::WouldBlock) => {}
                Err(_) => break,
            }
        }
    });

    // Producers: each owns workers/PRODUCERS connections, paces tuples
    // through the bounded outboxes, and churns one connection per
    // CHURN_EVERY ticks (close-after-drain + lease de-registration).
    let per_producer = workers / PRODUCERS;
    let deadline = Instant::now() + Duration::from_secs(secs);
    // Stop churning early enough that every retired lease can expire
    // (and be counted) before the run ends.
    let churn_deadline = deadline
        .checked_sub(timeouts.heartbeat_ttl * 2)
        .unwrap_or_else(Instant::now);
    let mut producers = Vec::new();
    for _ in 0..PRODUCERS {
        let reactor = reactor.clone();
        let registry_addr = registry_addr.clone();
        let collector_addr = collector_addr.clone();
        let shared = Arc::clone(&shared);
        producers.push(std::thread::spawn(move || {
            let hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
            let mut conns = Vec::with_capacity(per_producer);
            for _ in 0..per_producer {
                let stream = shared.next_stream.fetch_add(1, Ordering::Relaxed);
                let tx = reactor.dial(&collector_addr).unwrap();
                let e = entry(stream, &collector_addr);
                hb.add(e.clone()).unwrap();
                conns.push((stream, tx, e, 0u64));
            }
            let mut tick: u64 = 1;
            while !shared.stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                for (stream, tx, _, seq) in &mut conns {
                    *seq += 1;
                    let msg = Message::Data {
                        dest: UnitId(0),
                        from: UnitId(0),
                        tuple: Tuple::with_seq(SeqNo(*seq))
                            .with("s", *stream as i64)
                            .with("t", now_us(shared.epoch))
                            .with("pad", vec![0u8; 64]),
                    };
                    shared.sensed.fetch_add(1, Ordering::Relaxed);
                    match tx.try_send(msg) {
                        Ok(()) => {}
                        Err(_) => {
                            // Credit gate: full outbox sheds at the
                            // source — counted, never lost in flight.
                            shared.shed_at_source.fetch_add(1, Ordering::Relaxed);
                            *seq -= 1;
                        }
                    }
                }
                if tick.is_multiple_of(CHURN_EVERY) && Instant::now() < churn_deadline {
                    // Retire the oldest connection: the reactor drains
                    // its queue before closing, and the lease lapses
                    // into a tombstone. Dial a fresh replacement.
                    let (_, old_tx, old_entry, _) = conns.remove(0);
                    drop(old_tx);
                    hb.remove(old_entry);
                    shared.churned.fetch_add(1, Ordering::Relaxed);
                    let stream = shared.next_stream.fetch_add(1, Ordering::Relaxed);
                    let tx = reactor.dial(&collector_addr).unwrap();
                    let e = entry(stream, &collector_addr);
                    hb.add(e.clone()).unwrap();
                    conns.push((stream, tx, e, 0));
                }
                tick += 1;
                std::thread::sleep(TICK);
            }
            drop(conns); // close-after-drain on every remaining conn
            hb
        }));
    }

    // Discovery storm: lookup clients hammering the registry. Wait for
    // the first worker lease to land so an empty answer is a real bug.
    swing_reactor::await_service(
        &reactor,
        &registry_addr,
        APP,
        "worker",
        Duration::from_secs(10),
        timeouts,
    )
    .expect("no worker lease ever appeared");
    let lookup_lat = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
    let mut stormers = Vec::new();
    for _ in 0..4 {
        let reactor = reactor.clone();
        let registry_addr = registry_addr.clone();
        let shared = Arc::clone(&shared);
        let lookup_lat = Arc::clone(&lookup_lat);
        stormers.push(std::thread::spawn(move || {
            let mut client = RegistryClient::connect(&reactor, &registry_addr, timeouts).unwrap();
            let mut count: u64 = 0;
            let mut local = Vec::new();
            while !shared.stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                let t0 = Instant::now();
                let found = client.lookup(APP, "worker", "").unwrap();
                local.push(t0.elapsed().as_micros() as u64);
                count += 1;
                assert!(!found.is_empty(), "registry lost the whole fleet");
                std::thread::sleep(Duration::from_millis(5));
            }
            lookup_lat
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend(local);
            count
        }));
    }

    let mut heartbeaters = Vec::new();
    for p in producers {
        heartbeaters.push(p.join().expect("producer panicked"));
    }
    let lookups: u64 = stormers
        .into_iter()
        .map(|s| s.join().expect("storm client panicked"))
        .sum();

    // Drain: everything accepted into an outbox must arrive.
    let expected =
        shared.sensed.load(Ordering::Relaxed) - shared.shed_at_source.load(Ordering::Relaxed);
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while shared.delivered.load(Ordering::Relaxed) < expected && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    // Let the remaining live leases and the churn tombstones settle,
    // then stop renewals.
    let churned = shared.churned.load(Ordering::Relaxed);
    let tomb_deadline = Instant::now() + Duration::from_secs(10);
    while tombstones.load(Ordering::Relaxed) < churned && Instant::now() < tomb_deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    for mut hb in heartbeaters {
        hb.stop();
    }
    stop_watch.store(true, Ordering::SeqCst);
    watch.join().expect("watcher panicked");

    let sensed = shared.sensed.load(Ordering::Relaxed);
    let shed = shared.shed_at_source.load(Ordering::Relaxed);
    let delivered = shared.delivered.load(Ordering::Relaxed);
    let lost = sensed.saturating_sub(shed + delivered);
    let conserved = sensed == delivered + shed + lost && lost == 0;
    let order_violations = shared.order_violations.load(Ordering::Relaxed);
    let tombs = tombstones.load(Ordering::Relaxed);

    let mut lat = std::mem::take(
        &mut *shared
            .latencies_us
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    lat.sort_unstable();
    let mut llat = std::mem::take(
        &mut *lookup_lat
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    llat.sort_unstable();

    let wall_ms = wall.elapsed().as_millis();
    let snap = telemetry.snapshot();
    let frames_sent = snap.counter_total(swing_telemetry::names::REACTOR_FRAMES_SENT);
    let frames_received = snap.counter_total(swing_telemetry::names::REACTOR_FRAMES_RECEIVED);
    let registry_expired = snap.counter_total(swing_telemetry::names::REGISTRY_EXPIRED);
    let wakeups = snap.counter_total(swing_telemetry::names::REACTOR_WAKEUPS);

    let report = format!(
        r#"{{
  "name": "reactor_soak",
  "workers": {workers},
  "secs": {secs},
  "wall_ms": {wall_ms},
  "sensed": {sensed},
  "delivered": {delivered},
  "shed_at_source": {shed},
  "lost": {lost},
  "conserved": {conserved},
  "order_violations": {order_violations},
  "churned": {churned},
  "tombstones": {tombs},
  "registry_expired": {registry_expired},
  "lookups": {lookups},
  "lookup_p50_us": {lp50},
  "lookup_p99_us": {lp99},
  "e2e_p50_us": {ep50},
  "e2e_p99_us": {ep99},
  "reactor_frames_sent": {frames_sent},
  "reactor_frames_received": {frames_received},
  "reactor_wakeups": {wakeups}
}}
"#,
        lp50 = percentile(&llat, 0.50),
        lp99 = percentile(&llat, 0.99),
        ep50 = percentile(&lat, 0.50),
        ep99 = percentile(&lat, 0.99),
    );
    std::fs::write(&out, &report).expect("write bench report");
    print!("{report}");

    registry.stop();
    reactor.shutdown();
    collector.join().expect("collector panicked");

    assert_eq!(lost, 0, "frames lost under churn");
    assert!(conserved, "conservation identity violated");
    assert_eq!(order_violations, 0, "per-stream order violated");
    assert!(
        tombs >= churned,
        "only {tombs} tombstones for {churned} churned leases"
    );
    // Tombstones beyond the churned set are *live* leases the registry
    // starved out — renewal is falling behind the TTL at this scale.
    assert!(
        tombs <= churned + workers as u64 / 10,
        "{} live leases expired despite renewal (of {workers})",
        tombs - churned
    );
    assert!(delivered > 0, "nothing flowed");
    println!(
        "OK: {workers} workers, {delivered} frames, zero loss, {churned} churned, {lookups} lookups"
    );
}
