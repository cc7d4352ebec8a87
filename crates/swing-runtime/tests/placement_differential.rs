//! Sim/live differential, placement (ROADMAP 5d): both engines drive
//! the one control plane (`control.rs`), so one membership script —
//! three workers, one leaves, one joins — ends on [`SimSwarm`] and on an
//! in-proc [`LocalSwarm`] with the same stage → worker placement, the
//! same unit ids and the same epoch. How the departure is *detected*
//! differs by design (an eviction delay under virtual time, heartbeats
//! on the wall clock); what the master then decides does not.
//!
//! Beside it, the start-up ordering the live shell owes its callers:
//! when `start()` returns, the deployment and the epoch are published.

use std::time::{Duration, Instant};
use swing_core::graph::AppGraph;
use swing_core::unit::{closure_sink, closure_source, PassThrough};
use swing_core::{Tuple, SECOND_US};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_runtime::{FaultPlan, HeartbeatConfig, LocalSwarm};
use swing_telemetry::Telemetry;

fn graph() -> AppGraph {
    let mut g = AppGraph::new("placement");
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

/// `(unit id, stage name, worker name)` rows, in unit order.
type Placed = Vec<(u32, String, String)>;

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn one_membership_script_places_the_same_on_sim_and_live() {
    // Under virtual time: C crashes at 2 s (evicted one detection
    // delay later), D joins at 5 s.
    let mut cfg = SimSwarmConfig::default();
    cfg.node.telemetry = Telemetry::new();
    let roster = ["A", "B", "C"].map(|n| (n.to_string(), registry()));
    let mut sim = SimSwarm::start(graph(), roster.into(), cfg).unwrap();
    assert!(sim.crash_worker_at("C", 2 * SECOND_US));
    sim.add_worker_at("D", registry(), 5 * SECOND_US);
    sim.run_for(8 * SECOND_US);
    let alive = sim.alive_workers();
    let sim_placed: Placed = (sim.placements().into_iter())
        .filter(|(_, _, worker)| alive.contains(worker))
        .map(|(unit, stage, worker)| (unit.0, stage, worker))
        .collect();

    // On the wall clock: C is killed and pruned by heartbeat, then D
    // joins.
    let mut live = LocalSwarm::builder(graph())
        .telemetry(Telemetry::new())
        .heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(40),
            timeout: Duration::from_millis(200),
        })
        .worker("A", registry())
        .worker("B", registry())
        .worker("C", registry())
        .start()
        .expect("swarm start");
    let status = live.master_status();
    assert!(live.kill_worker("C"));
    wait_until("C's eviction", || status.dead_workers() == ["C"]);
    live.add_worker("D", registry()).unwrap();
    wait_until("D's deployment", || status.epoch() >= 3);
    let deployment = live.deployment();
    // Which worker spawned which unit (D hears of its own a moment
    // after the master decided it).
    wait_until("D's activation", || {
        let spawned: usize = live.activation_counts().iter().map(|(_, u)| u.len()).sum();
        spawned == deployment.len()
    });
    let hosts = live.activation_counts();
    let g = graph();
    let live_placed: Placed = (deployment.iter())
        .map(|(unit, stage, _)| {
            let (worker, _) = (hosts.iter())
                .find(|(_, units)| units.contains_key(&unit))
                .expect("a placed unit was spawned somewhere");
            let stage = g.stage(stage).unwrap().name.clone();
            (unit.0, stage, worker.clone())
        })
        .collect();
    let live_epoch = status.epoch();
    live.stop();

    let expected: Placed = [
        (0, "src", "A"),
        (1, "work", "B"),
        (3, "out", "A"),
        (4, "work", "D"),
    ]
    .map(|(u, s, w)| (u, s.to_string(), w.to_string()))
    .into();
    assert_eq!(sim_placed, expected, "placed by the simulator");
    assert_eq!(live_placed, expected, "placed live");
    assert_eq!((sim.epoch(), live_epoch), (3, 3), "deploy, eviction, join");
}

/// `MasterStatus` used to raise the started flag before it copied the
/// deployment and epoch over, so `start()` could return on an empty
/// `deployment()` (the `chaos_recovery` "source deployed" flake).
#[test]
fn deployment_and_epoch_are_published_when_start_returns() {
    for round in 0..200 {
        let swarm = LocalSwarm::builder(graph())
            .telemetry(Telemetry::new())
            .worker("A", registry())
            .worker("B", registry())
            .start()
            .expect("swarm start");
        let (deployment, epoch) = (swarm.deployment(), swarm.master_status().epoch());
        swarm.stop();
        for stage in graph().stages() {
            assert!(
                deployment.instances_of(stage).next().is_some(),
                "round {round}: no instance of {stage} when start() returned"
            );
        }
        assert!(epoch >= 1, "round {round}: epoch {epoch}");
    }
}

/// Over the chaos fabric every dialed link forwards on a thread of its
/// own, so three `Join`s sent in order can reach the master in any
/// order; `start()` admits each worker before it spawns the next, and
/// the first one given hosts source and sink (a crashed "C" used to
/// turn out to be the source host in `chaos_recovery`, now and then).
#[test]
fn workers_join_in_the_order_given_on_a_fabric_that_reorders() {
    for round in 0..100 {
        let swarm = LocalSwarm::builder(graph())
            .telemetry(Telemetry::new())
            .chaos(FaultPlan::seeded(round))
            .worker("A", registry())
            .worker("B", registry())
            .worker("C", registry())
            .start()
            .expect("swarm start");
        let src = graph().stage_by_name("src").unwrap();
        let unit = swarm.deployment().instances_of(src).next().unwrap();
        let hosts = |swarm: &LocalSwarm| {
            let spawned = swarm.activation_counts().into_iter();
            let of_unit = |(worker, units): (String, std::collections::HashMap<_, _>)| {
                units.contains_key(&unit).then_some(worker)
            };
            spawned.filter_map(of_unit).collect::<Vec<_>>()
        };
        wait_until("the source's activation", || !hosts(&swarm).is_empty());
        assert_eq!(hosts(&swarm), ["A"], "round {round}");
        swarm.stop();
    }
}
