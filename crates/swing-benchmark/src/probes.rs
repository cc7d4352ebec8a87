//! Layer probes: each times direct calls into public functions of one
//! crate, from outside it. They are not end-to-end results — they say
//! which layer moved when an end-to-end number does (README.md has the
//! table of which probe should move which metric on which workload).
//!
//! Every probe is budgeted in wall time, not iterations, so the whole
//! set stays within a few seconds on any host.

use crate::metrics::Outcome;
use crate::stats;
use crate::workloads::{apply, federation_config, federation_once};
use bytes::BytesMut;
use std::hint::black_box;
use std::time::{Duration, Instant};
use swing_core::flow::{FlowConfig, OverloadPolicy};
use swing_core::graph::{AppGraph, EdgeKind};
use swing_core::reorder::ReorderBuffer;
use swing_core::routing::partition::tuple_key_hash;
use swing_core::routing::{Policy, Router, RouterConfig};
use swing_core::unit::{closure_sink, closure_source, FunctionUnit, PassThrough};
use swing_core::{SeqNo, SharedBytes, Tuple, UnitId};
use swing_net::{FrameAssembler, Message, NetTimeouts, ServiceEntry, WireSegment};
use swing_reactor::{
    Delivery, Reactor, ReactorConfig, ReactorHandle, RegistryClient, RegistryServer,
};
use swing_runtime::executor::NodeConfig;
use swing_runtime::fabric::{Fabric, MsgReceiver, MsgSender};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_runtime::Dispatcher;
use swing_telemetry::Telemetry;

/// Run every probe and add its metrics to `out`.
pub fn run_all(out: &mut Outcome, seed: u64, quick: bool) {
    let budget = if quick {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(50)
    };
    reactor(out, quick);
    net(out, budget);
    runtime(out, budget, seed);
    core(out, budget);
    telemetry(out, budget);
    apps(out, budget, seed);
    sim(out, seed, quick);
}

/// Median nanoseconds per call of `f`, over batches of `batch` calls
/// repeated until `budget` has passed (at least five batches).
fn ns_per_op(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f(); // warm caches and lazy set-up
    }
    let mut per_op = Vec::new();
    let began = Instant::now();
    while per_op.len() < 5 || began.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_op)
}

fn payload_tuple(seq: u64, bytes: usize) -> Tuple {
    Tuple::with_seq(SeqNo(seq))
        .with("p", vec![(seq % 251) as u8; bytes])
        .with("cam", (seq % 36) as i64)
        .with("_created_us", 1_234_567i64)
}

fn data(seq: u64, bytes: usize) -> Message {
    Message::Data {
        dest: UnitId(2),
        from: UnitId(1),
        tuple: payload_tuple(seq, bytes),
    }
}

/// An unbounded message channel of the fabric's own type (the in-proc
/// fabric's listen/dial pair is exactly that).
fn inbox() -> (MsgSender, MsgReceiver) {
    let fabric = Fabric::in_proc();
    let (addr, rx) = fabric.listen().expect("in-proc listen cannot fail");
    let tx = fabric.dial(&addr).expect("in-proc dial of a fresh address");
    (tx, rx)
}

fn median_us(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    stats::median(&v)
}

// -------------------------------------------------------- swing-reactor

/// Two loopback connections through one reactor, both ends held by the
/// calling thread: `a→b` and `b→a`, each with its inbox.
struct Loopback {
    reactor: ReactorHandle,
    to_b: MsgSender,
    at_b: MsgReceiver,
    to_a: MsgSender,
    at_a: MsgReceiver,
    addr_b: String,
}

impl Loopback {
    fn open() -> swing_core::Result<Loopback> {
        let reactor = Reactor::spawn(ReactorConfig::default(), None);
        let (tx_a, at_a) = inbox();
        let (tx_b, at_b) = inbox();
        let addr_a = reactor.listen("127.0.0.1:0", Delivery::Inbox(tx_a))?;
        let addr_b = reactor.listen("127.0.0.1:0", Delivery::Inbox(tx_b))?;
        Ok(Loopback {
            to_b: reactor.dial(&addr_b)?,
            to_a: reactor.dial(&addr_a)?,
            reactor,
            at_b,
            at_a,
            addr_b,
        })
    }

    /// One message a→b and one back, as a receiver and replier on the
    /// same thread would see it.
    fn round_trip(&self, msg: &Message) -> Option<Duration> {
        let t0 = Instant::now();
        self.to_b.send(msg.clone()).ok()?;
        let got = self.at_b.recv_timeout(Duration::from_secs(2)).ok()?;
        self.to_a.send(got).ok()?;
        self.at_a.recv_timeout(Duration::from_secs(2)).ok()?;
        Some(t0.elapsed())
    }

    /// Push `n` copies of `msg` a→b as fast as the bounded outbox
    /// admits and wait for all of them; returns the elapsed time.
    fn flood(&self, msg: &Message, n: usize) -> Option<Duration> {
        let t0 = Instant::now();
        let mut received = 0;
        for _ in 0..n {
            self.to_b.send(msg.clone()).ok()?;
            // Keep the inbox from holding the whole flood.
            while self.at_b.try_recv().is_ok() {
                received += 1;
            }
        }
        while received < n {
            self.at_b.recv_timeout(Duration::from_secs(5)).ok()?;
            received += 1;
        }
        Some(t0.elapsed())
    }
}

/// Fresh reactors the reactor probes are repeated on.
const REACTORS: usize = 5;

/// Each metric is the median over [`REACTORS`] fresh reactors. An echo
/// through one is metastable: either every reply finds the reactor
/// still polling (20 µs a round trip) or every one finds it parked
/// (2.5 ms), for hundreds of round trips on end, and which of the two a
/// given reactor settles into — two in forty did the second, on an idle
/// host — is no property of the code under test.
fn reactor(out: &mut Outcome, quick: bool) {
    let runs: Vec<Outcome> = (0..REACTORS)
        .filter_map(|_| match reactor_once(quick) {
            Ok(run) => Some(run),
            Err(e) => {
                out.notes.push(format!("a reactor probe was skipped: {e}"));
                None
            }
        })
        .collect();
    let Some(first) = runs.first() else { return };
    for m in &first.metrics {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(m.name)).collect();
        out.push(m.name, stats::median(&values), m.unit);
    }
}

fn reactor_once(quick: bool) -> swing_core::Result<Outcome> {
    let mut out = Outcome::default();
    let lp = Loopback::open()?;
    let small = data(1, 64);
    let (idle_n, busy_n, flood_small, flood_big, dials) = if quick {
        (2, 100, 1_000, 10, 3)
    } else {
        (6, 400, 4_000, 60, 8)
    };

    // Echo after 10 ms of silence: the reactor has backed off to its
    // idle park by then, so this is the wake-up path.
    let idle: Vec<Duration> = (0..idle_n)
        .filter_map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            lp.round_trip(&small)
        })
        .collect();
    out.push("reactor.rtt_idle_us_p50", median_us(&idle), "us");

    // Back-to-back echoes.
    let busy: Vec<Duration> = (0..busy_n).filter_map(|_| lp.round_trip(&small)).collect();
    out.push("reactor.rtt_busy_us_p50", median_us(&busy), "us");

    if let Some(t) = lp.flood(&small, flood_small) {
        out.push(
            "reactor.flood_frames_per_s",
            flood_small as f64 / t.as_secs_f64(),
            "1/s",
        );
    }
    if let Some(t) = lp.flood(&data(2, 72_000), flood_big) {
        out.push(
            "reactor.flood_mb_per_s",
            flood_big as f64 * 72_000.0 / 1e6 / t.as_secs_f64(),
            "MB/s",
        );
    }

    let dial: Vec<Duration> = (0..dials)
        .filter_map(|_| {
            let t0 = Instant::now();
            let tx = lp.reactor.dial(&lp.addr_b).ok()?;
            let took = t0.elapsed();
            drop(tx);
            Some(took)
        })
        .collect();
    out.push("reactor.dial_us_p50", median_us(&dial), "us");

    let timeouts = NetTimeouts::default();
    let mut server = RegistryServer::spawn(&lp.reactor, "127.0.0.1:0", timeouts, None)?;
    let mut client = RegistryClient::connect(&lp.reactor, server.addr(), timeouts)?;
    let entry = ServiceEntry {
        app: "bench".into(),
        role: "worker".into(),
        stage: String::new(),
        addr: "127.0.0.1:1".into(),
    };
    client.register(&entry, 60_000)?;
    let lookups: Vec<Duration> = (0..dials)
        .filter_map(|_| {
            let t0 = Instant::now();
            client.lookup("bench", "worker", "").ok()?;
            Some(t0.elapsed())
        })
        .collect();
    out.push("reactor.registry.lookup_us_p50", median_us(&lookups), "us");
    server.stop();
    lp.reactor.shutdown();
    Ok(out)
}

// ------------------------------------------------------------ swing-net

fn net(out: &mut Outcome, budget: Duration) {
    let sizes = [
        (
            64usize,
            "net.wire.encode_ns.small",
            "net.wire.decode_ns.small",
        ),
        (6_000, "net.wire.encode_ns.face", "net.wire.decode_ns.face"),
        (
            72_000,
            "net.wire.encode_ns.voice",
            "net.wire.decode_ns.voice",
        ),
    ];
    for (bytes, encode_name, decode_name) in sizes {
        let msg = data(3, bytes);
        let mut scratch = BytesMut::new();
        let mut segments: Vec<WireSegment> = Vec::new();
        let encode = ns_per_op(budget, 256, || {
            scratch.clear();
            segments.clear();
            black_box(&msg).encode_segments(&mut scratch, &mut segments);
            black_box(&segments);
        });
        let frame = SharedBytes::from_vec(msg.encode().to_vec());
        let decode = ns_per_op(budget, 256, || {
            black_box(Message::decode_shared(black_box(&frame)).expect("own encoding decodes"));
        });
        out.push(encode_name, encode, "ns");
        out.push(decode_name, decode, "ns");
    }

    // Reassembly: a stream of length-prefixed 6 kB frames fed in 64 KiB
    // reads, as the reactor's read loop does.
    let body = data(4, 6_000).encode();
    let mut stream = Vec::new();
    for _ in 0..64 {
        stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
        stream.extend_from_slice(&body);
    }
    let kb = stream.len() as f64 / 1024.0;
    let mut assembler = FrameAssembler::new();
    let per_stream = ns_per_op(budget, 4, || {
        for chunk in stream.chunks(64 * 1024) {
            assembler.feed(chunk);
            while let Ok(Some(frame)) = assembler.next_frame() {
                black_box(frame);
            }
        }
    });
    out.push("net.frame.assemble_ns_per_kb", per_stream / kb, "ns");
}

// -------------------------------------------------------- swing-runtime

/// A production `Dispatcher` wired to three in-process downstreams, and
/// a rotating working set of 6 kB tuples (payloads are refcounted, so
/// rotation makes dispatch touch memory the way a stream does).
struct DispatchRig {
    dispatcher: Dispatcher,
    links: Vec<MsgReceiver>,
    tuples: Vec<Tuple>,
    next: usize,
    seq: u64,
}

const ROTATION: usize = 1024;

impl DispatchRig {
    fn new(kind: &EdgeKind, flow: FlowConfig) -> DispatchRig {
        let config = NodeConfig {
            router: RouterConfig::new(Policy::Lrs),
            flow,
            telemetry: Telemetry::new(),
            ..NodeConfig::default()
        };
        let mut dispatcher = Dispatcher::new(UnitId(1), &config);
        dispatcher.set_edge_kind(kind);
        let mut links = Vec::new();
        for unit in [UnitId(11), UnitId(12), UnitId(13)] {
            let (tx, rx) = inbox();
            dispatcher.add_downstream(unit, tx);
            links.push(rx);
        }
        DispatchRig {
            dispatcher,
            links,
            tuples: (0..ROTATION as u64)
                .map(|i| payload_tuple(i, 6_000))
                .collect(),
            next: 0,
            seq: 0,
        }
    }

    fn dispatch_one(&mut self) {
        let mut tuple = self.tuples[self.next].clone();
        self.next = (self.next + 1) % ROTATION;
        tuple.set_seq(SeqNo(self.seq));
        self.seq += 1;
        self.dispatcher.dispatch(tuple);
    }

    /// What the downstreams' executors would do: take each tuple off
    /// its link and acknowledge it.
    fn ack_all(&mut self) {
        for rx in &self.links {
            while let Ok(msg) = rx.try_recv() {
                if let Message::Data { tuple, .. } = msg {
                    self.dispatcher.on_ack(tuple.seq(), 200);
                }
            }
        }
    }

    /// Nanoseconds per dispatch alone: batches are timed, the ACKs that
    /// empty the in-flight table between batches are not. A batch is
    /// two 32-credit windows, the most the closed-loop workloads ever
    /// have in flight from one dispatcher.
    fn dispatch_ns(&mut self, budget: Duration) -> f64 {
        const BATCH: usize = 64;
        let mut per_op = Vec::new();
        let began = Instant::now();
        while per_op.len() < 6 || began.elapsed() < budget {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                self.dispatch_one();
            }
            per_op.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            self.ack_all();
        }
        // The first batch warms the table and the links.
        stats::median(&per_op[1..])
    }

    /// Nanoseconds per whole cycle: admission check, dispatch, link
    /// hand-off and the ACK that releases the in-flight entry.
    fn cycle_ns(&mut self, budget: Duration) -> f64 {
        ns_per_op(budget, 256, || {
            black_box(self.dispatcher.admits_new());
            self.dispatch_one();
            self.ack_all();
        })
    }
}

fn bench_registry() -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("src", || {
        closure_source(|_| Some(Tuple::new().with("v", 1i64)))
    });
    r.register_operator("work", || PassThrough);
    r.register_sink("out", || closure_sink(|_, _| ()));
    r
}

fn bench_graph() -> AppGraph {
    let mut g = AppGraph::new("probe");
    let s = g.add_source("src");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).expect("valid edge");
    g.connect(o, k).expect("valid edge");
    g
}

fn runtime(out: &mut Outcome, budget: Duration, seed: u64) {
    let off = FlowConfig::disabled();
    out.push(
        "runtime.dispatch.broadcast_ns",
        DispatchRig::new(&EdgeKind::Broadcast, off).dispatch_ns(budget),
        "ns",
    );
    out.push(
        "runtime.dispatch.keyed_ns",
        DispatchRig::new(&EdgeKind::KeyBy("cam".into()), off).dispatch_ns(budget),
        "ns",
    );
    out.push(
        "runtime.dispatch.cycle_ns",
        DispatchRig::new(&EdgeKind::Broadcast, off).cycle_ns(budget),
        "ns",
    );
    let flow = FlowConfig {
        policy: OverloadPolicy::Block,
        ..FlowConfig::bounded(32)
    };
    out.push(
        "runtime.dispatch.cycle_flow_ns",
        DispatchRig::new(&EdgeKind::Broadcast, flow).cycle_ns(budget),
        "ns",
    );

    // One swarm of the production executors under virtual time.
    let config = SimSwarmConfig {
        seed,
        ..SimSwarmConfig::default()
    };
    let workers = ["A", "B", "C"]
        .iter()
        .map(|w| ((*w).to_owned(), bench_registry()))
        .collect();
    const VIRTUAL_S: u64 = 60;
    if let Ok(mut swarm) = SimSwarm::start(bench_graph(), workers, config) {
        let t0 = Instant::now();
        swarm.run_for(VIRTUAL_S * swing_core::SECOND_US);
        let wall = t0.elapsed().as_secs_f64();
        let _ = swarm.finish();
        out.push(
            "runtime.sim.virtual_s_per_wall_s",
            VIRTUAL_S as f64 / wall,
            "ratio",
        );
    }
}

// ----------------------------------------------------------- swing-core

fn core(out: &mut Outcome, budget: Duration) {
    let mut router = Router::new(RouterConfig::new(Policy::Lrs), 7);
    for u in 0..8 {
        router.add_downstream(UnitId(100 + u), 0);
    }
    // route + on_send, then on_ack, in lockstep so the estimator's
    // pending table stays at one entry; each half is timed alone.
    let mut now = 1_000u64;
    let mut seq = 0u64;
    let mut route_ns = Vec::new();
    let mut ack_ns = Vec::new();
    let began = Instant::now();
    while route_ns.len() < 6 || began.elapsed() < budget {
        const BATCH: u64 = 256;
        let mut dests = Vec::with_capacity(BATCH as usize);
        let t0 = Instant::now();
        for i in 0..BATCH {
            let dest = router.route(now + i).expect("eight downstreams");
            router.on_send(SeqNo(seq + i), dest, now + i);
            dests.push(dest);
        }
        route_ns.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        let t1 = Instant::now();
        for i in 0..BATCH {
            black_box(router.on_ack(SeqNo(seq + i), now + i + 900, 300));
        }
        ack_ns.push(t1.elapsed().as_nanos() as f64 / BATCH as f64);
        black_box(dests);
        seq += BATCH;
        now += 2_000;
    }
    out.push("core.router.route_ns", stats::median(&route_ns), "ns");
    out.push("core.router.on_ack_ns", stats::median(&ack_ns), "ns");

    let rebalance = ns_per_op(budget, 16, || {
        now += 1_000_000;
        router.rebalance(now);
    });
    out.push("core.router.rebalance_us", rebalance / 1e3, "us");

    let tuples: Vec<Tuple> = (0..64).map(|i| payload_tuple(i, 64)).collect();
    let mut i = 0;
    let hash = ns_per_op(budget, 1024, || {
        black_box(tuple_key_hash(black_box(&tuples[i & 63]), "cam"));
        i += 1;
    });
    out.push("core.partition.key_hash_ns", hash, "ns");

    let mut reorder: ReorderBuffer<u64> =
        ReorderBuffer::new(swing_core::config::ReorderConfig::one_second());
    let mut s = 0u64;
    let push = ns_per_op(budget, 1024, || {
        // Pairs arrive swapped: every second push parks, the next
        // releases both.
        let seq = s ^ 1;
        black_box(reorder.push(SeqNo(seq), seq, s * 100));
        s += 1;
    });
    out.push("core.reorder.push_ns", push, "ns");
}

// ------------------------------------------------------ swing-telemetry

fn telemetry(out: &mut Outcome, budget: Duration) {
    let t = Telemetry::new();
    let labels: &[(&str, &str)] = &[("worker", "bench"), ("unit", "1")];
    let counter = t.counter("swing_exec_sent_total", labels);
    out.push(
        "telemetry.counter_inc_ns",
        ns_per_op(budget, 4096, || counter.inc()),
        "ns",
    );
    let hist = t.histogram("swing_exec_ack_rtt_us", labels);
    let mut v = 1u64;
    out.push(
        "telemetry.hist_record_ns",
        ns_per_op(budget, 4096, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 44);
        }),
        "ns",
    );
    // A registry the size of the three-worker relay swarm's.
    for w in ["A", "B", "C"] {
        for u in 0..4 {
            let unit = u.to_string();
            let l: &[(&str, &str)] = &[("worker", w), ("unit", &unit)];
            for name in ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"] {
                t.counter(name, l).inc();
                t.gauge(name, l).set(1.0);
            }
            t.histogram("h1", l).record(100);
            t.histogram("h2", l).record(100);
        }
    }
    out.push(
        "telemetry.snapshot_us",
        ns_per_op(budget, 8, || {
            black_box(t.snapshot());
        }) / 1e3,
        "us",
    );
}

// ----------------------------------------------------------- swing-apps

fn unit_us(budget: Duration, unit: &mut dyn FunctionUnit, inputs: &[Tuple]) -> f64 {
    let mut i = 0;
    ns_per_op(budget, 8, || {
        black_box(apply(unit, inputs[i % inputs.len()].clone()));
        i += 1;
    }) / 1e3
}

fn through(unit: &mut dyn FunctionUnit, inputs: &[Tuple]) -> Vec<Tuple> {
    inputs.iter().flat_map(|t| apply(unit, t.clone())).collect()
}

fn apps(out: &mut Outcome, budget: Duration, seed: u64) {
    use swing_apps::{face, voice};
    let fc = face::FaceAppConfig {
        seed,
        ..face::FaceAppConfig::default()
    };
    let mut gen = face::FrameGenerator::new(fc.gallery.clone(), seed);
    let frames: Vec<Tuple> = (0..8)
        .map(|_| Tuple::new().with("frame", gen.next_scene().pixels))
        .collect();
    let mut detect = face::DetectUnit::new(&fc);
    let mut recognize = face::RecognizeUnit::new(&fc);
    let detected = through(&mut detect, &frames);
    out.push(
        "apps.face.detect_us",
        unit_us(budget, &mut detect, &frames),
        "us",
    );
    out.push(
        "apps.face.recognize_us",
        unit_us(budget, &mut recognize, &detected),
        "us",
    );

    let vc = voice::VoiceAppConfig {
        seed,
        ..voice::VoiceAppConfig::default()
    };
    let mut gen = voice::AudioGenerator::new(vc.vocabulary.clone(), seed);
    let audio: Vec<Tuple> = (0..4)
        .map(|_| Tuple::new().with("audio", gen.next_utterance().pcm))
        .collect();
    let mut rec = voice::RecognizeUnit::new(&vc);
    let mut tra = voice::TranslateUnit::new();
    let words = through(&mut rec, &audio);
    out.push(
        "apps.voice.recognize_us",
        unit_us(budget, &mut rec, &audio),
        "us",
    );
    out.push(
        "apps.voice.translate_us",
        unit_us(budget, &mut tra, &words),
        "us",
    );
}

// ------------------------------------------------------------ swing-sim

fn sim(out: &mut Outcome, seed: u64, quick: bool) {
    let shapes: [(usize, usize, &'static str); 3] = [
        (10, 10, "sim.federation.tuples_per_s.10x10"),
        (100, 10, "sim.federation.tuples_per_s.100x10"),
        (100, 32, "sim.federation.tuples_per_s.100x32"),
    ];
    let mut serial_100x10 = None;
    for (swarms, workers, name) in shapes {
        let (swarms, workers) = if quick {
            (swarms.min(10), workers.min(10))
        } else {
            (swarms, workers)
        };
        let Ok(run) = federation_once(federation_config(seed, swarms, workers, 1)) else {
            continue;
        };
        out.push(name, run.played as f64 / run.run.as_secs_f64(), "1/s");
        if name.ends_with("100x10") {
            serial_100x10 = Some(run.run);
        }
        if name.ends_with("100x32") {
            out.push(
                "sim.federation.build_ms",
                run.build.as_secs_f64() * 1e3,
                "ms",
            );
        }
    }
    // Parallel speed-up of the sharded engine on this host's cores
    // (1.0 by construction on a one-core host).
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if let Some(serial) = serial_100x10 {
        let (swarms, workers) = if quick { (10, 10) } else { (100, 10) };
        if let Ok(par) = federation_once(federation_config(seed, swarms, workers, nproc)) {
            out.push(
                "sim.federation.speedup_nproc",
                serial.as_secs_f64() / par.run.as_secs_f64(),
                "ratio",
            );
        }
    }
    let t0 = Instant::now();
    let secs = if quick { 10 } else { 60 };
    black_box(swing_sim::experiments::evaluation_run(
        Policy::Lrs,
        swing_device::profile::Workload::FaceRecognition,
        secs,
        seed,
    ));
    out.push(
        "sim.swarm.eval60_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
}
