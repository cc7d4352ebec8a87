//! The §IV-B workflow over the reactor fabric with registry-based
//! discovery: a master registers itself with a `RegistryServer`,
//! workers look it up and join, and a killed worker's lapsed lease
//! drives the eviction/re-placement flow — no master-side heartbeat
//! pinging. The failure cases too: no master registered, and a fabric
//! with no reactor to reach the registry through.
//!
//! Also pins the fabric seam: the same `SwarmConfig` (including the new
//! `net` knobs) drives the deterministic `SimFabric` twin to
//! byte-identical telemetry across same-seed runs, proving the reactor
//! re-platforming left the simulated transport untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swing_core::graph::AppGraph;
use swing_core::unit::{closure_sink, closure_source, PassThrough};
use swing_core::Tuple;
use swing_net::NetTimeouts;
use swing_reactor::{Heartbeater, RegistryClient, RegistryServer};
use swing_runtime::executor::NodeConfig;
use swing_runtime::fabric::Fabric;
use swing_runtime::master::{Master, MasterConfig};
use swing_runtime::node::{RegistryJoin, WorkerNode};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_runtime::SwarmConfig;
use swing_telemetry::to_json;

const APP: &str = "registry-app";

fn graph() -> AppGraph {
    let mut g = AppGraph::new(APP);
    let s = g.add_source("src");
    let o = g.add_operator("op");
    let k = g.add_sink("out");
    g.connect(s, o).unwrap();
    g.connect(o, k).unwrap();
    g
}

fn units(count: Option<Arc<AtomicU64>>) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("src", || {
        closure_source(|_| Some(Tuple::new().with("x", 1i64)))
    });
    r.register_operator("op", || PassThrough);
    let count = count.unwrap_or_default();
    r.register_sink("out", move || {
        let c = Arc::clone(&count);
        closure_sink(move |_t, _n| {
            c.fetch_add(1, Ordering::Relaxed);
        })
    });
    r
}

fn fast_timeouts() -> NetTimeouts {
    NetTimeouts {
        heartbeat_interval: Duration::from_millis(60),
        heartbeat_ttl: Duration::from_millis(250),
        ..NetTimeouts::default()
    }
}

#[test]
fn workers_discover_the_master_via_registry_and_compute() {
    let timeouts = fast_timeouts();
    let fabric = Fabric::reactor();
    let reactor = fabric.reactor_handle().unwrap().clone();
    let mut registry =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = registry.addr().to_owned();

    let master = Master::spawn(
        graph(),
        MasterConfig {
            expected_workers: 2,
            ..MasterConfig::default()
        },
        fabric.clone(),
    )
    .unwrap();
    let attachment = master
        .attach_registry(&fabric, &registry_addr, APP, timeouts)
        .unwrap();

    let consumed = Arc::new(AtomicU64::new(0));
    let config = NodeConfig {
        input_fps: 100.0,
        ..NodeConfig::default()
    };
    let hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
    let join = RegistryJoin {
        registry_addr: &registry_addr,
        app: APP,
        heartbeater: &hb,
        timeouts,
    };
    let mut a = WorkerNode::register_and_spawn(
        "A",
        fabric.clone(),
        &join,
        units(Some(Arc::clone(&consumed))),
        config.clone(),
    )
    .unwrap();
    let mut b =
        WorkerNode::register_and_spawn("B", fabric.clone(), &join, units(None), config).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(8);
    while consumed.load(Ordering::Relaxed) < 30 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let total = consumed.load(Ordering::Relaxed);
    assert!(total >= 30, "only {total} tuples flowed via the registry");

    drop(attachment);
    drop(master);
    a.stop();
    b.stop();
    registry.stop();
}

/// A worker that dies silently stops renewing its lease; the registry
/// tombstones it, the master's watch bridge forwards the expiry, and
/// the master evicts the worker and re-places its units — with zero
/// tuples lost, because retransmission re-routes everything in flight
/// to the survivors.
#[test]
fn lease_expiry_of_killed_worker_triggers_replacement_without_loss() {
    let timeouts = fast_timeouts();
    let fabric = Fabric::reactor();
    let reactor = fabric.reactor_handle().unwrap().clone();
    let mut registry =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = registry.addr().to_owned();

    let master = Master::spawn(
        graph(),
        MasterConfig {
            expected_workers: 3,
            // No master-side heartbeat: eviction must come from the
            // registry lease expiring.
            heartbeat: None,
            ..MasterConfig::default()
        },
        fabric.clone(),
    )
    .unwrap();
    let attachment = master
        .attach_registry(&fabric, &registry_addr, APP, timeouts)
        .unwrap();

    let config = NodeConfig {
        input_fps: 100.0,
        ..NodeConfig::default()
    };
    // A and B renew through a shared heartbeater; C has its own, so
    // killing C's renewal imitates whole-device death.
    let hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
    let join = RegistryJoin {
        registry_addr: &registry_addr,
        app: APP,
        heartbeater: &hb,
        timeouts,
    };
    let consumed = Arc::new(AtomicU64::new(0));
    let mut a = WorkerNode::register_and_spawn(
        "A",
        fabric.clone(),
        &join,
        units(Some(Arc::clone(&consumed))),
        config.clone(),
    )
    .unwrap();
    let mut b =
        WorkerNode::register_and_spawn("B", fabric.clone(), &join, units(None), config.clone())
            .unwrap();
    let mut hb_c = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
    let join_c = RegistryJoin {
        heartbeater: &hb_c,
        ..join
    };
    let mut c =
        WorkerNode::register_and_spawn("C", fabric.clone(), &join_c, units(None), config).unwrap();

    let status = master.status();
    assert!(
        status.wait_started(Duration::from_secs(8)),
        "deployment never started"
    );
    std::thread::sleep(Duration::from_millis(300));
    let epoch_before = status.epoch();
    assert!(status.dead_workers().is_empty());

    // Kill C: node thread dies AND its lease renewal stops.
    c.stop();
    hb_c.stop();

    // Within a few TTLs the master must learn of the expiry and evict.
    let deadline = std::time::Instant::now() + Duration::from_secs(8);
    while status.dead_workers().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        status.dead_workers(),
        vec!["C".to_string()],
        "lease expiry never evicted the dead worker"
    );
    assert!(
        status.epoch() > epoch_before,
        "eviction must bump the deployment epoch"
    );

    // The survivors keep the pipeline flowing...
    let settled = consumed.load(Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(8);
    while consumed.load(Ordering::Relaxed) < settled + 20 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        consumed.load(Ordering::Relaxed) >= settled + 20,
        "pipeline stalled after the eviction"
    );

    // ...and nothing was abandoned: every tuple either reached the sink
    // or is still retrying toward a survivor; the lost counter on the
    // live workers stays at zero.
    let mut lost = 0;
    for node in [&a, &b] {
        for (_, stats) in node.delivery_stats() {
            lost += stats.lost;
        }
    }
    assert_eq!(lost, 0, "{lost} tuples were abandoned after re-placement");

    drop(attachment);
    drop(master);
    a.stop();
    b.stop();
    registry.stop();
}

/// With no `(app, "master")` in the registry a joining worker gives up
/// after `timeouts.connect` and leaves nothing registered.
#[test]
fn joining_times_out_when_no_master_is_registered() {
    let timeouts = NetTimeouts {
        connect: Duration::from_millis(300),
        ..fast_timeouts()
    };
    let fabric = Fabric::reactor();
    let reactor = fabric.reactor_handle().unwrap().clone();
    let mut registry =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = registry.addr().to_owned();
    let hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
    let join = RegistryJoin {
        registry_addr: &registry_addr,
        app: APP,
        heartbeater: &hb,
        timeouts,
    };

    let t0 = std::time::Instant::now();
    let joined = WorkerNode::register_and_spawn(
        "lonely",
        fabric.clone(),
        &join,
        units(None),
        NodeConfig::default(),
    );
    let waited = t0.elapsed();
    assert!(
        matches!(joined, Err(swing_core::Error::DiscoveryTimeout)),
        "expected a discovery timeout, got {joined:?}"
    );
    assert!(
        waited >= timeouts.connect,
        "gave up early, after {waited:?}"
    );
    assert!(
        waited < timeouts.connect + Duration::from_secs(2),
        "gave up late, after {waited:?}"
    );
    let mut client = RegistryClient::connect(&reactor, &registry_addr, timeouts).unwrap();
    assert_eq!(client.lookup(APP, "worker", "").unwrap(), vec![]);

    drop(hb);
    registry.stop();
}

/// Registry discovery travels over reactor sockets; on any other fabric
/// both ends refuse up front instead of dialing.
#[test]
fn registry_discovery_requires_a_reactor_fabric() {
    let timeouts = fast_timeouts();
    let net = Fabric::reactor();
    let reactor = net.reactor_handle().unwrap().clone();
    let mut registry =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = registry.addr().to_owned();
    let hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).unwrap();
    let join = RegistryJoin {
        registry_addr: &registry_addr,
        app: APP,
        heartbeater: &hb,
        timeouts,
    };

    let fabric = Fabric::in_proc();
    let master = Master::spawn(graph(), MasterConfig::default(), fabric.clone()).unwrap();
    let attached = master.attach_registry(&fabric, &registry_addr, APP, timeouts);
    assert!(matches!(attached, Err(swing_core::Error::Malformed(_))));
    let joined =
        WorkerNode::register_and_spawn("A", fabric, &join, units(None), NodeConfig::default());
    assert!(matches!(joined, Err(swing_core::Error::Malformed(_))));

    drop(master);
    drop(hb);
    registry.stop();
}

/// Fabric-seam guarantee: a `SwarmConfig` carrying the new `net` knobs
/// drives the deterministic harness exactly as before — two same-seed
/// sim runs stay byte-identical down to the exported telemetry JSON.
#[test]
fn sim_twin_is_byte_identical_with_net_knobs() {
    let run = || {
        let shared = SwarmConfig {
            input_fps: 30.0,
            net: fast_timeouts(), // carried, ignored by the sim
            telemetry: swing_telemetry::Telemetry::new(),
            ..SwarmConfig::default()
        };
        let telemetry = shared.telemetry.clone();
        let cfg = SimSwarmConfig {
            seed: 77,
            ..SimSwarmConfig::from_swarm(&shared)
        };
        let mut swarm = SimSwarm::start(
            graph(),
            vec![
                ("A".into(), units(None)),
                ("B".into(), units(None)),
                ("C".into(), units(None)),
            ],
            cfg,
        )
        .unwrap();
        swarm.run_for(20 * swing_core::SECOND_US);
        let stats = format!("{:?}", swarm.delivery_stats());
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        (to_json(&telemetry.snapshot()), stats, consumed)
    };
    let x = run();
    let y = run();
    assert!(x.0 == y.0, "telemetry JSON diverged across same-seed runs");
    assert_eq!(x.1, y.1, "delivery stats diverged");
    assert_eq!(x.2, y.2, "sink consumption diverged");
    assert!(x.2 > 0, "sim twin never delivered anything");
}
