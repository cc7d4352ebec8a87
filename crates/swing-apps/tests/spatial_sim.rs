//! The keyed-dataflow acceptance scenario: the spatial app under
//! deterministic simulation, with the aggregation stage spread over
//! four instances behind a `KeyBy("cell")` edge and one of its hosts
//! crashing mid-stream.
//!
//! Pinned here, per the PR's acceptance bar:
//!
//! * **Conservation**: `sensed = (played + stale) + shed_at_source +
//!   shed_in_queue + lost` holds exactly, with `lost == 0` — the
//!   crash's in-flight tuples re-hash to surviving key owners under the
//!   epoch fence and are retransmitted, not dropped.
//! * **Oracle equality**: the sink's merged per-cell map equals the
//!   pure single-machine [`oracle`] folded over the *independently
//!   regenerated* sensed stream (the probe source is a pure function of
//!   its config).
//! * **Zero cross-key leakage**: before the crash every cell is
//!   processed by exactly one aggregator instance; re-homing moves a
//!   cell to at most one new owner, and only cells owned by the dead
//!   worker move.
//! * **Byte-identical replay**: the same seed reproduces the entire
//!   scenario — telemetry export, epoch history, per-cell map — byte
//!   for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use swing_apps::spatial::{
    self, install, oracle, CellStats, GridAggregate, MapSink, ProbeSource, SpatialAppConfig,
    STAGE_AGGREGATE, STAGE_MAP,
};
use swing_core::config::{ReorderConfig, RetryConfig};
use swing_core::unit::SourceUnit;
use swing_core::SECOND_US;
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_telemetry::{names as tn, Telemetry};

const FRAMES: u64 = 900; // 30 virtual seconds at 30 fps

fn app_config() -> SpatialAppConfig {
    SpatialAppConfig {
        frames: FRAMES,
        ..SpatialAppConfig::default()
    }
}

/// Per-cell set of aggregator hosts that processed it — the leakage
/// ledger. Keyed routing means each set has one element until a crash
/// re-homes the dead host's cells.
type CellHosts = Arc<Mutex<BTreeMap<i64, BTreeSet<String>>>>;

/// The merged map the sink builds from played tuples, shared out of the
/// sim.
type PlayedMap = Arc<Mutex<BTreeMap<i64, CellStats>>>;

/// A worker's registry: the full app, with the aggregator instrumented
/// to record (cell → this worker) and the sink publishing its merged
/// map into `played`.
fn registry(worker: &str, hosts: &CellHosts, played: &PlayedMap) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    install(&mut r, app_config());
    // Re-register the aggregator and sink with the instrumented
    // variants (later registrations win).
    let cfg = app_config();
    let (worker, hosts) = (worker.to_owned(), Arc::clone(hosts));
    r.register_operator(STAGE_AGGREGATE, move || {
        let (worker, hosts) = (worker.clone(), Arc::clone(&hosts));
        GridAggregate::new(&cfg)
            .with_observer(Arc::new(move |cell| {
                hosts
                    .lock()
                    .unwrap()
                    .entry(cell)
                    .or_default()
                    .insert(worker.clone());
            }))
            .keyed()
    });
    let played = Arc::clone(played);
    r.register_sink(STAGE_MAP, move || {
        let played = Arc::clone(&played);
        MapSink::new(move |cell, stats| {
            played.lock().unwrap().insert(cell, stats.clone());
        })
    });
    r
}

fn sim_config(seed: u64) -> SimSwarmConfig {
    let mut c = SimSwarmConfig {
        seed,
        ..SimSwarmConfig::default()
    };
    c.node.input_fps = 30.0;
    c.node.retry = RetryConfig {
        enabled: true,
        deadline_factor: 3.0,
        deadline_floor_us: 50_000,
        deadline_ceiling_us: 400_000,
        backoff_factor: 1.5,
        max_retries: 20,
        dedup_window: 8192,
    };
    c.node.reorder = ReorderConfig {
        span_us: 10 * SECOND_US,
    };
    c.node.telemetry = Telemetry::new();
    c
}

/// The sensed stream, regenerated outside the swarm: the probe source
/// is a pure function of its config, so this is a true single-machine
/// oracle input, not a capture of the system under test.
fn sensed_stream() -> Vec<(i64, f64)> {
    let mut src = ProbeSource::new(&app_config());
    let mut out = Vec::new();
    while let Some(t) = src.next_tuple(0) {
        out.push((
            t.i64(spatial::FIELD_CELL).unwrap(),
            t.f64(spatial::FIELD_READING).unwrap(),
        ));
    }
    out
}

struct RunResult {
    telemetry_json: String,
    epoch: u64,
    played: BTreeMap<i64, CellStats>,
    hosts: BTreeMap<i64, BTreeSet<String>>,
    pre_crash_hosts: BTreeMap<i64, BTreeSet<String>>,
    sensed: u64,
    played_n: u64,
    stale: u64,
    shed_src: u64,
    shed_q: u64,
    lost: u64,
    keyed_keys: Option<f64>,
    rehomed: u64,
}

/// One full scenario: five workers (probe + map on A, four aggregator
/// instances on B..E), worker E crashing mid-stream.
fn run(seed: u64, crash: bool) -> RunResult {
    let hosts: CellHosts = Arc::new(Mutex::new(BTreeMap::new()));
    let played: PlayedMap = Arc::new(Mutex::new(BTreeMap::new()));
    let workers: Vec<(String, UnitRegistry)> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|w| (w.to_string(), registry(w, &hosts, &played)))
        .collect();
    let mut swarm = SimSwarm::start(spatial::app_graph(), workers, sim_config(seed)).unwrap();
    let telemetry = swarm.telemetry().clone();

    let mut pre_crash_hosts = BTreeMap::new();
    if crash {
        swarm.run_until(8 * SECOND_US);
        pre_crash_hosts = hosts.lock().unwrap().clone();
        assert!(swarm.crash_worker_at("E", 8 * SECOND_US));
    }
    swarm.run_for(90 * SECOND_US);

    let epoch = swarm.epoch();
    let snap = telemetry.snapshot();
    let keyed_keys = snap
        .gauges_named(tn::KEYED_KEYS)
        .map(|(_, v)| v)
        .reduce(f64::max);
    let rehomed = snap.counter_total(tn::KEYED_REHOMED);
    let result = RunResult {
        telemetry_json: telemetry.to_json(),
        epoch,
        played: played.lock().unwrap().clone(),
        hosts: hosts.lock().unwrap().clone(),
        pre_crash_hosts,
        sensed: snap.counter_total(tn::SOURCE_SENSED),
        played_n: snap.counter_total(tn::SINK_PLAYED),
        stale: snap.counter_total(tn::SINK_STALE),
        shed_src: snap.counter_total(tn::SOURCE_SHED),
        shed_q: snap.counter_total(tn::EXEC_SHED_IN_QUEUE),
        lost: snap.counter_total(tn::EXEC_LOST),
        keyed_keys,
        rehomed,
    };
    swarm.finish();
    result
}

fn assert_conservation(r: &RunResult) {
    assert_eq!(r.sensed, FRAMES, "the probe fleet ran to completion");
    assert_eq!(r.lost, 0, "retransmission must bridge every fault");
    assert_eq!(
        r.sensed,
        (r.played_n + r.stale) + r.shed_src + r.shed_q + r.lost,
        "conservation identity violated: sensed {} != (played {} + stale {}) \
         + shed_src {} + shed_q {} + lost {}",
        r.sensed,
        r.played_n,
        r.stale,
        r.shed_src,
        r.shed_q,
        r.lost
    );
}

/// No faults: every cell has exactly one owner, the sink map equals the
/// oracle over the sensed stream, and the keyed telemetry reports the
/// key population.
#[test]
fn keyed_pipeline_matches_oracle_with_single_ownership() {
    let r = run(0x5EED, false);
    assert_conservation(&r);
    assert_eq!(r.played_n, FRAMES, "clean links: every frame plays");

    let expect = oracle(sensed_stream());
    assert!(expect.len() >= 16, "scenario must span >= 16 grid keys");
    assert_eq!(r.played, expect, "sink map != single-machine oracle");

    for (cell, owners) in &r.hosts {
        assert_eq!(
            owners.len(),
            1,
            "cell {cell} processed by {owners:?} — keyed routing leaked"
        );
        assert!(
            !owners.contains("A"),
            "cell {cell} on the source/sink host: parallelism hint ignored"
        );
    }
    let distinct: BTreeSet<&String> = r.hosts.values().flatten().collect();
    assert_eq!(
        distinct.len(),
        4,
        "all four aggregator instances must own keys, got {distinct:?}"
    );
    assert_eq!(r.rehomed, 0, "stable membership re-homes nothing");
    assert!(
        r.keyed_keys.unwrap_or(0.0) >= 16.0,
        "keyed telemetry must report the key population, got {:?}",
        r.keyed_keys
    );
}

/// Crash one of the four aggregator hosts mid-stream: conservation
/// stays exact with zero loss, the sink map still equals the oracle,
/// and only the dead worker's cells move — each to exactly one
/// survivor.
#[test]
fn mid_stream_crash_rehomes_keys_without_loss_or_leakage() {
    let r = run(0xC4A5, true);
    assert_conservation(&r);
    assert_eq!(r.epoch, 2, "one eviction wave, one epoch bump");
    assert_eq!(r.played_n, FRAMES, "clean links: every frame still plays");

    let expect = oracle(sensed_stream());
    assert_eq!(
        r.played, expect,
        "per-key aggregates must survive the crash exactly"
    );

    let mut moved = 0u64;
    for (cell, owners) in &r.hosts {
        assert!(
            owners.len() <= 2,
            "cell {cell} processed by {owners:?} — re-homed more than once"
        );
        if owners.len() == 2 {
            assert!(
                owners.contains("E"),
                "cell {cell} moved ({owners:?}) though its owner never died"
            );
            moved += 1;
        }
    }
    assert!(moved > 0, "the dead worker must have owned some cells");
    // Every pre-crash owner set was a singleton, and cells that E did
    // not own kept their exact pre-crash owner.
    for (cell, owners) in &r.pre_crash_hosts {
        assert_eq!(owners.len(), 1, "pre-crash leakage on cell {cell}");
        if !owners.contains("E") {
            assert_eq!(
                Some(owners),
                r.hosts.get(cell),
                "cell {cell} moved though its owner survived"
            );
        }
    }
    assert!(
        r.rehomed > 0,
        "keyed telemetry must count the re-homed keys"
    );
}

/// The same crash scenario twice with the same seed: telemetry export,
/// epoch history, per-cell map and ownership ledger are byte-identical.
#[test]
fn same_seed_keyed_chaos_replays_byte_identically() {
    let a = run(1207, true);
    let b = run(1207, true);
    assert_eq!(a.epoch, b.epoch, "same seed, same epoch history");
    assert_eq!(a.played, b.played, "same seed, same per-cell map");
    assert_eq!(a.hosts, b.hosts, "same seed, same key ownership");
    assert_eq!(
        a.telemetry_json, b.telemetry_json,
        "same seed, byte-identical telemetry export"
    );
}

/// The crashing run's exported telemetry, pinned (FNV-1a): the default
/// engine path must stay byte-identical across refactors of `sim.rs`.
#[test]
fn keyed_chaos_matches_its_golden_hash() {
    let json = run(1207, true).telemetry_json;
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        hash, GOLDEN_KEYED_CHAOS_1207,
        "default-path telemetry of the keyed crash scenario changed"
    );
}

const GOLDEN_KEYED_CHAOS_1207: u64 = 12_659_870_398_700_618_013;
