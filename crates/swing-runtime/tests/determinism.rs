//! Determinism harness over the unified engine: the *real* data plane
//! — production [`Dispatcher`]s with their routers, in-flight tables,
//! dedup windows, and telemetry — driven under a `VirtualClock` through
//! the seeded `SimFabric`, so a whole chaos scenario is a pure function
//! of its seed.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Bit-reproducibility**: the same seeded scenario (10% link drop
//!    plus a mid-run worker crash) run twice produces byte-identical
//!    exported telemetry JSON and identical per-unit delivery stats,
//!    and sixty seconds of simulated traffic settle in well under a
//!    second of wall time.
//! 2. **Universal recovery**: retransmission closes a 10% drop for
//!    *every* seed in 1..=32 — not just one hand-picked seed. This
//!    sweep replaces the old "scan for a seed that loses frames"
//!    workaround: under the unified engine any seed can be asserted on
//!    directly, and a failing seed can be replayed exactly.
//!
//! [`Dispatcher`]: swing_runtime::Dispatcher

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use swing_core::config::ReorderConfig;
use swing_core::graph::AppGraph;
use swing_core::routing::{Policy, RouterConfig};
use swing_core::unit::{closure_sink, closure_source, PassThrough};
use swing_core::{Tuple, SECOND_US};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimLinkConfig, SimSwarm, SimSwarmConfig};
use swing_telemetry::{to_json, Telemetry};

fn graph() -> AppGraph {
    let mut g = AppGraph::new("determinism");
    let s = g.add_source("src");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).unwrap();
    g.connect(o, k).unwrap();
    g
}

fn registry(frames: u64) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("src", move || {
        let count = AtomicU64::new(0);
        closure_source(move |_now| {
            if count.fetch_add(1, Ordering::Relaxed) < frames {
                Some(Tuple::new().with("v", 1i64))
            } else {
                None
            }
        })
    });
    r.register_operator("work", || PassThrough);
    r.register_sink("out", || closure_sink(|_, _| ()));
    r
}

/// One full chaos scenario under virtual time: three workers, 10% data
/// drop on every link, worker C crashing mid-run. Returns everything
/// an assertion could care about, rendered to comparable values.
fn chaos_run(seed: u64) -> (String, String, u64, u64) {
    let mut cfg = SimSwarmConfig {
        seed,
        link: SimLinkConfig::default().with_drop(0.10),
        ..SimSwarmConfig::default()
    };
    cfg.node.input_fps = 30.0;
    cfg.node.router = RouterConfig::new(Policy::Lrs);
    cfg.node.reorder = ReorderConfig {
        span_us: 10 * SECOND_US,
    };
    cfg.node.telemetry = Telemetry::new();
    let telemetry = cfg.node.telemetry.clone();

    let mut swarm = SimSwarm::start(
        graph(),
        vec![
            ("A".into(), registry(600)),
            ("B".into(), registry(0)),
            ("C".into(), registry(0)),
        ],
        cfg,
    )
    .unwrap();
    assert!(swarm.crash_worker_at("C", 20 * SECOND_US));
    swarm.run_for(60 * SECOND_US);

    let stats = format!("{:?}", swarm.delivery_stats());
    let dropped = swarm.fabric().dropped();
    let reports = swarm.finish();
    let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
    let json = to_json(&telemetry.snapshot());
    (json, stats, dropped, consumed)
}

/// Acceptance test: two runs with the same seed are
/// bit-reproducible — byte-identical telemetry JSON, identical
/// delivery accounting — and each covers ≥ 60 s of simulated traffic
/// in < 1 s of wall time.
#[test]
fn seeded_chaos_scenario_is_bit_reproducible() {
    let wall = Instant::now();
    let a = chaos_run(1207);
    let first_run = wall.elapsed();
    let b = chaos_run(1207);
    assert!(
        a.0 == b.0,
        "telemetry JSON must be byte-identical across same-seed runs"
    );
    assert_eq!(a.1, b.1, "delivery stats must match");
    assert_eq!(a.2, b.2, "fault injection must replay identically");
    assert_eq!(a.3, b.3, "sink consumption must match");
    assert!(a.2 > 0, "the 10% drop model must actually fire");
    assert!(a.3 > 0, "frames must reach the sink");
    assert!(
        first_run < std::time::Duration::from_secs(1),
        "60 simulated seconds took {first_run:?} wall time"
    );

    // And a different seed draws a genuinely different history.
    let c = chaos_run(1208);
    assert_ne!(a.2, c.2, "different seeds must differ somewhere");
}

/// FNV-1a over the exported JSON: the golden constants below pin the
/// default engine path (no device descriptions, delay/jitter links)
/// byte for byte, so a refactor of `sim.rs` that perturbs one event
/// order, RNG draw or metric registration fails here, not in a by-hand
/// diff.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seeded drop+crash scenario's exported telemetry, pinned. Update
/// the constant only for a change that is *meant* to alter the default
/// path's history, and say so in CHANGES.md.
#[test]
fn seeded_chaos_scenario_matches_its_golden_hash() {
    let (json, ..) = chaos_run(1207);
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN_CHAOS_1207,
        "default-path telemetry of seed 1207 changed"
    );
}

const GOLDEN_CHAOS_1207: u64 = 2_347_712_029_816_676_975;

/// Retransmission recovers every drop for *every* seed — the property
/// holds across the seed space, not for one curated seed.
#[test]
fn every_seed_recovers_all_frames_under_retransmission() {
    const FRAMES: u64 = 120;
    for seed in 1..=32 {
        let mut cfg = SimSwarmConfig {
            seed,
            link: SimLinkConfig::default().with_drop(0.10),
            ..SimSwarmConfig::default()
        };
        cfg.node.input_fps = 30.0;
        cfg.node.router = RouterConfig::new(Policy::Lrs);
        cfg.node.reorder = ReorderConfig {
            span_us: 10 * SECOND_US,
        };
        cfg.node.telemetry = Telemetry::new();
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(FRAMES)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        swarm.run_for(10 * SECOND_US);
        let totals = swarm.delivery_totals();
        assert_eq!(totals.lost, 0, "seed {seed}: lost {} frames", totals.lost);
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert_eq!(
            consumed, FRAMES,
            "seed {seed}: only {consumed}/{FRAMES} frames played"
        );
    }
}
