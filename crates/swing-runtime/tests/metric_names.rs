//! Sim/live differential, names and stamp kinds (ROADMAP 5c): one
//! three-stage graph run under virtual time on [`SimSwarm`] and on
//! wall-clock threads in an in-proc [`LocalSwarm`] exports the same set
//! of `swing_*` metric names, so a dashboard or an alert written
//! against one reads the other, and stamps the same lifecycle stages at
//! the same roles, so a tuple's trace reads the same on both. The
//! differences that are allowed are listed here, each with its reason;
//! anything else is a schema drift.

use std::collections::BTreeSet;
use std::time::Duration;
use swing_core::graph::{AppGraph, Role};
use swing_core::unit::{closure_sink, closure_source, PassThrough};
use swing_core::{Tuple, SECOND_US};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_runtime::LocalSwarm;
use swing_telemetry::{names as tn, Snapshot, Stage, Telemetry};

fn graph() -> AppGraph {
    let mut g = AppGraph::new("names");
    let s = g.add_source("src");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).unwrap();
    g.connect(o, k).unwrap();
    g
}

fn registry() -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("src", || {
        closure_source(|_| Some(Tuple::new().with("v", 1i64)))
    });
    r.register_operator("work", || PassThrough);
    r.register_sink("out", || closure_sink(|_, _| ()));
    r
}

fn names(snap: &Snapshot) -> BTreeSet<String> {
    let keys = snap
        .counters
        .iter()
        .map(|(k, _)| k)
        .chain(snap.gauges.iter().map(|(k, _)| k))
        .chain(snap.histograms.iter().map(|(k, _)| k));
    keys.map(|k| k.name.clone()).collect()
}

/// Which lifecycle stages were stamped at units of which role:
/// `roles` maps a unit to the role of its stage.
fn stamp_kinds(
    telemetry: &Telemetry,
    roles: impl Fn(u32) -> Option<Role>,
) -> BTreeSet<(&'static str, &'static str)> {
    let events = telemetry.events().events();
    let kind = |e: &swing_telemetry::TupleEvent| {
        let role = match roles(e.unit).expect("a stamp names a deployed unit") {
            Role::Source => "source",
            Role::Operator => "operator",
            Role::Sink => "sink",
        };
        (role, e.stage.name())
    };
    events.iter().map(kind).collect()
}

/// Names only the simulator exports. Both engines drive the one control
/// plane (`control.rs`), but only `SimSwarm` publishes what it decides
/// as series — the epoch gauge and the failover counters, registered up
/// front; a live master exposes its epoch through `MasterStatus::epoch()`
/// and has no gauge yet (ROADMAP 7). The gateway tap belongs to the
/// federation tier, which has no live counterpart. The simulated
/// radio's byte counter and the device/battery gauges appear only with
/// device descriptions or the energy model, neither used here.
const SIM_ONLY: &[&str] = &[
    tn::MASTER_EPOCH,
    tn::FAILOVER_REPLACED_UNITS,
    tn::FAILOVER_RECOVERY_US,
    tn::GATEWAY_EGRESS,
    tn::GATEWAY_INGRESS,
    tn::GATEWAY_HOP_US,
];

/// Names only a live swarm exports: none on the in-proc fabric. The
/// socket transport adds `swing_reactor_*` and `swing_registry_*`,
/// which belong to the transport, not to the data plane both engines
/// share.
const LIVE_ONLY: &[&str] = &[];

#[test]
fn sim_and_live_export_the_same_names_and_stamp_kinds() {
    let mut cfg = SimSwarmConfig::default();
    cfg.node.telemetry = Telemetry::new();
    let sim_telemetry = cfg.node.telemetry.clone();
    sim_telemetry.enable_tracing();
    let mut sim = SimSwarm::start(
        graph(),
        vec![("A".into(), registry()), ("B".into(), registry())],
        cfg,
    )
    .unwrap();
    sim.run_for(3 * SECOND_US);
    let _ = sim.delivery_stats(); // the publish a live executor does on a timer
    let sim_names = names(&sim_telemetry.snapshot());
    let g = graph();
    let placed = sim.placements();
    let sim_kinds = stamp_kinds(&sim_telemetry, |unit| {
        let (_, stage, _) = placed.iter().find(|(u, ..)| u.0 == unit)?;
        Some(g.stage(g.stage_by_name(stage)?).ok()?.role)
    });

    let live_telemetry = Telemetry::new();
    live_telemetry.enable_tracing();
    let swarm = LocalSwarm::builder(graph())
        .telemetry(live_telemetry.clone())
        .worker("A", registry())
        .worker("B", registry())
        .start()
        .expect("swarm start");
    swarm.run_for(Duration::from_millis(600));
    let deployment = swarm.deployment();
    swarm.stop();
    let live_names = names(&live_telemetry.snapshot());
    let live_kinds = stamp_kinds(&live_telemetry, |unit| {
        let stage = deployment.stage_of(swing_core::UnitId(unit)).ok()?;
        Some(g.stage(stage).ok()?.role)
    });

    assert!(
        sim_names
            .iter()
            .chain(&live_names)
            .all(|n| n.starts_with("swing_")),
        "every exported name carries the swing_ prefix"
    );
    let only = |a: &BTreeSet<String>, b: &BTreeSet<String>, allowed: &[&str]| -> Vec<String> {
        a.difference(b)
            .filter(|n| !allowed.contains(&n.as_str()))
            .cloned()
            .collect()
    };
    assert_eq!(
        only(&sim_names, &live_names, SIM_ONLY),
        Vec::<String>::new(),
        "exported by the simulator, missing live"
    );
    assert_eq!(
        only(&live_names, &sim_names, LIVE_ONLY),
        Vec::<String>::new(),
        "exported live, missing from the simulator"
    );
    // The allow-lists stay honest: an entry that stopped differing
    // must be removed.
    for n in SIM_ONLY {
        assert!(sim_names.contains(*n) && !live_names.contains(*n), "{n}");
    }
    for n in LIVE_ONLY {
        assert!(live_names.contains(*n) && !sim_names.contains(*n), "{n}");
    }

    // One meaning per lifecycle stage, on both drivers: the stations of
    // a clean run (nothing retransmitted, nothing shed).
    let expected: BTreeSet<(&str, &str)> = [
        ("source", Stage::Sensed),
        ("source", Stage::Dispatched),
        ("source", Stage::Acked),
        ("operator", Stage::Arrived),
        ("operator", Stage::Started),
        ("operator", Stage::Processed),
        ("operator", Stage::Dispatched),
        ("operator", Stage::Acked),
        ("sink", Stage::Arrived),
        ("sink", Stage::Played),
    ]
    .map(|(role, stage)| (role, stage.name()))
    .into();
    assert_eq!(sim_kinds, expected, "stamped by the simulator");
    assert_eq!(live_kinds, expected, "stamped live");
}
