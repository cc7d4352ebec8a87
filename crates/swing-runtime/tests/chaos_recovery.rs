//! Fault-tolerance integration tests: a seeded chaos fabric injecting
//! drops/duplicates/delays plus a mid-run device crash, against the
//! ACK-deadline retransmission layer.
//!
//! The paper's churn evaluation (§VI-C, Fig. 9) reports "13 frames are
//! lost" when a device leaves mid-run under plain fire-and-forget
//! dispatch. These tests reproduce that loss with retries disabled and
//! show the retransmission layer closing it: with the *same* fault
//! seed, every frame is either ACKed or accounted for, and nothing is
//! lost.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swing_core::config::{ReorderConfig, RetryConfig};
use swing_core::graph::{AppGraph, EdgeKind, StageId};
use swing_core::unit::{closure_sink, closure_source, closure_unit, Context};
use swing_core::{Tuple, UnitId};
use swing_net::Message;
use swing_runtime::executor::{spawn, ExecMsg};
use swing_runtime::registry::{AnyUnit, UnitRegistry};
use swing_runtime::swarm::LocalSwarm;
use swing_runtime::{DeliveryStats, FaultPlan, HeartbeatConfig};

const FRAMES: u64 = 200;
const SEED: u64 = 0x5117_C0DE;

fn pipeline() -> (AppGraph, StageId) {
    let mut g = AppGraph::new("chaos-app");
    let s = g.add_source("cam");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).unwrap();
    g.connect(o, k).unwrap();
    (g, s)
}

fn registry(produced: Arc<AtomicU64>, consumed: Arc<AtomicU64>) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("cam", move || {
        let p = Arc::clone(&produced);
        closure_source(move |_now| {
            if p.fetch_add(1, Ordering::Relaxed) < FRAMES {
                Some(Tuple::new().with("x", 21i64))
            } else {
                None
            }
        })
    });
    r.register_operator("work", || {
        closure_unit(|t: Tuple, ctx: &mut Context<'_>| {
            let x = t.i64("x").unwrap();
            ctx.send(Tuple::new().with("x", x * 2));
        })
    });
    r.register_sink("out", move || {
        let c = Arc::clone(&consumed);
        closure_sink(move |t: Tuple, _| {
            assert_eq!(t.i64("x").unwrap(), 42);
            c.fetch_add(1, Ordering::Relaxed);
        })
    });
    r
}

/// Retry deadlines tuned for a fast in-process swarm.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        enabled: true,
        deadline_factor: 3.0,
        deadline_floor_us: 50_000,
        deadline_ceiling_us: 200_000,
        backoff_factor: 2.0,
        max_retries: 10,
        dedup_window: 4096,
    }
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::seeded(SEED)
        .drop_prob(0.10)
        .dup_prob(0.05)
        .delay(0.05, 1_000, 10_000)
}

fn stats_of(delivery: &[(String, UnitId, DeliveryStats)], unit: UnitId) -> DeliveryStats {
    delivery
        .iter()
        .find(|(_, u, _)| *u == unit)
        .map(|(_, _, s)| *s)
        .unwrap_or_else(|| panic!("no delivery stats for {unit:?}"))
}

fn build_swarm(retry: RetryConfig, consumed: &Arc<AtomicU64>) -> (LocalSwarm, UnitId) {
    let (graph, src_stage) = pipeline();
    let produced = Arc::new(AtomicU64::new(0));
    let swarm = LocalSwarm::builder(graph)
        .input_fps(200.0)
        .reorder(ReorderConfig { span_us: 3_000_000 })
        .retry(retry)
        .chaos(lossy_plan())
        .heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(400),
        })
        .worker("A", registry(Arc::clone(&produced), Arc::clone(consumed)))
        .worker("B", registry(Arc::clone(&produced), Arc::clone(consumed)))
        .worker("C", registry(Arc::clone(&produced), Arc::clone(consumed)))
        .start()
        .unwrap();
    let src_unit = swarm
        .deployment()
        .instances_of(src_stage)
        .next()
        .expect("source deployed");
    (swarm, src_unit)
}

/// 10% drop + duplication + delay on every data link, plus one device
/// black-holed mid-run (a crash, as the network sees it): with
/// retransmission enabled, every frame is ACKed — `lost == 0` — and the
/// sink accounts for all of them.
#[test]
fn chaos_swarm_delivers_every_frame_despite_drops_and_a_crash() {
    let consumed = Arc::new(AtomicU64::new(0));
    let (swarm, src_unit) = build_swarm(fast_retry(), &consumed);
    let ctl = swarm.chaos().expect("chaos fabric").clone();
    let addr_c = swarm.worker_addr("C").expect("worker C");

    // Let the pipeline warm up, then crash C while frames are in flight.
    swarm.run_for(Duration::from_millis(400));
    ctl.crash_at(&addr_c, 0);

    // Wait for the source to finish draining: every frame ACKed or
    // declared lost (the drain publishes the final counters).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let live = swarm
            .delivery_stats()
            .iter()
            .find(|(_, u, _)| *u == src_unit)
            .map(|(_, _, s)| *s);
        if let Some(s) = live {
            if s.acked + s.lost >= FRAMES {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "source never resolved all in-flight frames"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Let the operator -> sink tail settle, then lift the faults so
    // shutdown control traffic flows.
    let settle = Instant::now() + Duration::from_secs(5);
    while consumed.load(Ordering::Relaxed) < FRAMES && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(50));
    }
    ctl.heal();
    let report = ctl.report();
    let (reports, delivery) = swarm.stop_with_delivery();

    let src = stats_of(&delivery, src_unit);
    assert_eq!(src.sent, FRAMES, "source dispatched every frame once");
    assert_eq!(src.lost, 0, "retransmission must recover every drop");
    assert_eq!(src.acked, FRAMES, "every frame ACKed: {src:?}");

    let mut total = DeliveryStats::default();
    for (_, _, s) in &delivery {
        total.merge(s);
    }
    assert!(total.retried > 0, "faults must have forced retransmissions");
    assert!(
        total.duplicated > 0,
        "chaos duplication + retransmits must exercise the dedup window"
    );
    assert!(report.dropped > 0, "the fault plan must actually drop");
    assert!(report.severed > 0, "the crash must actually sever traffic");

    // Sink-side accounting: every frame was either played in order or
    // given up by the reorder buffer after arriving too late — none
    // simply vanished.
    let consumed_total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
    let skipped_total: u64 = reports.iter().map(|(_, r)| r.skipped).sum();
    assert_eq!(
        consumed_total + skipped_total,
        FRAMES,
        "sink accounting must cover every frame"
    );
    assert!(
        consumed_total > FRAMES / 2,
        "most frames must actually play, got {consumed_total}"
    );
}

/// The same fault seed with retransmission disabled: the fire-and-forget
/// baseline demonstrably loses frames end-to-end (the §VI-C "13 frames
/// are lost" behavior).
#[test]
fn chaos_swarm_without_retries_demonstrably_loses_frames() {
    let consumed = Arc::new(AtomicU64::new(0));
    let (swarm, src_unit) = build_swarm(RetryConfig::disabled(), &consumed);
    let ctl = swarm.chaos().expect("chaos fabric").clone();
    let addr_c = swarm.worker_addr("C").expect("worker C");

    swarm.run_for(Duration::from_millis(400));
    ctl.crash_at(&addr_c, 0);

    // Stream is FRAMES at 200 fps = 1 s; give it ample time to finish.
    swarm.run_for(Duration::from_secs(3));
    ctl.heal();
    let (reports, delivery) = swarm.stop_with_delivery();

    let src = stats_of(&delivery, src_unit);
    assert_eq!(src.sent, FRAMES);
    assert_eq!(src.retried, 0, "retries are disabled");
    assert!(
        src.acked < FRAMES,
        "with 10% drop and no retries some ACKs must be missing"
    );

    let consumed_total: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
    assert!(
        consumed_total < FRAMES,
        "fire-and-forget under 10% drop + crash must lose frames \
         (consumed all {consumed_total})"
    );
}

/// `stop()` nudges the master's and each node's loop through a sender
/// to its own inbox. That sender must not cross a fault shim, or a
/// partition of the loop's own address swallows the `Stop` and `stop()`
/// joins a thread that never wakes.
#[test]
fn stop_returns_while_own_addresses_are_partitioned() {
    let consumed = Arc::new(AtomicU64::new(0));
    let (swarm, _) = build_swarm(fast_retry(), &consumed);
    let ctl = swarm.chaos().expect("chaos fabric").clone();
    swarm.run_for(Duration::from_millis(200));
    ctl.partition(swarm.master_addr());
    for name in ["A", "B", "C"] {
        ctl.partition(swarm.worker_addr(name).expect("worker address"));
    }
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        swarm.stop();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
        "stop() hung behind a partition of the swarm's own addresses"
    );
}

/// Deterministic re-route on ACK-deadline expiry, at the executor level:
/// the only downstream is a black hole (receives, never ACKs), so the
/// first frames are dispatched to it and time out; once a healthy
/// downstream joins, every frame — including the timed-out ones — must
/// be retransmitted there, and the source must drain with zero loss.
#[test]
fn expired_ack_deadline_reroutes_to_another_downstream() {
    const N: u64 = 20;
    let produced = Arc::new(AtomicU64::new(0));
    let p2 = Arc::clone(&produced);
    let mut config = swing_runtime::NodeConfig {
        input_fps: 500.0,
        ..Default::default()
    };
    config.retry = RetryConfig {
        enabled: true,
        deadline_factor: 3.0,
        deadline_floor_us: 30_000,
        deadline_ceiling_us: 150_000,
        backoff_factor: 1.5,
        max_retries: 30,
        dedup_window: 1024,
    };
    let (src_h, _) = spawn(
        UnitId(0),
        AnyUnit::Source(Box::new(closure_source(move |_now| {
            if p2.fetch_add(1, Ordering::Relaxed) < N {
                Some(Tuple::new().with("v", 1i64))
            } else {
                None
            }
        }))),
        config,
    );

    // Black hole downstream: attached first and alone, so the earliest
    // frames are deterministically dispatched to it.
    let (hole_tx, hole_rx) = channel::<Message>();
    src_h.send(ExecMsg::AddDownstream {
        unit: UnitId(1),
        sender: hole_tx.into(),
        kind: EdgeKind::Broadcast,
    });
    src_h.send(ExecMsg::Start);

    // Wait until the black hole has swallowed some frames.
    let mut hole_seqs: BTreeSet<u64> = BTreeSet::new();
    let warmup = Instant::now() + Duration::from_secs(5);
    while hole_seqs.len() < 3 {
        while let Ok(m) = hole_rx.try_recv() {
            if let Message::Data { tuple, .. } = m {
                hole_seqs.insert(tuple.seq().0);
            }
        }
        assert!(
            Instant::now() < warmup,
            "source never dispatched to its only downstream"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A healthy downstream joins. Expired deadlines must steer every
    // frame (old and new) to it.
    let (live_tx, live_rx) = channel::<Message>();
    src_h.send(ExecMsg::AddDownstream {
        unit: UnitId(2),
        sender: live_tx.into(),
        kind: EdgeKind::Broadcast,
    });

    let mut live_seqs: BTreeSet<u64> = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while (live_seqs.len() as u64) < N {
        while let Ok(m) = hole_rx.try_recv() {
            if let Message::Data { tuple, .. } = m {
                hole_seqs.insert(tuple.seq().0);
            }
        }
        while let Ok(m) = live_rx.try_recv() {
            if let Message::Data { tuple, .. } = m {
                live_seqs.insert(tuple.seq().0);
                src_h.send(ExecMsg::Ack {
                    seq: tuple.seq(),
                    processing_us: 0,
                });
            }
        }
        assert!(
            Instant::now() < deadline,
            "frames never re-routed: live={live_seqs:?} hole={hole_seqs:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(
        live_seqs,
        (0..N).collect::<BTreeSet<u64>>(),
        "every frame must reach the healthy downstream"
    );
    assert!(
        hole_seqs.iter().any(|s| live_seqs.contains(s)),
        "a frame first sent to the silent downstream must be re-routed"
    );

    // The source drains cleanly: everything ACKed, nothing lost.
    let fin = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(s) = src_h.delivery_stats() {
            if s.acked + s.lost >= N {
                assert_eq!(s.sent, N);
                assert_eq!(s.lost, 0, "no frame may be abandoned: {s:?}");
                assert!(s.retried > 0, "expiries must have retransmitted");
                break;
            }
        }
        assert!(Instant::now() < fin, "source never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(src_h);
}
