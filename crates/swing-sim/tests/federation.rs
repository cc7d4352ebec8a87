//! Federation-level invariants of the sharded parallel engine.
//!
//! The load-bearing property is **schedule determinism across thread
//! counts**: the windowed conservative engine must export a
//! byte-identical federated telemetry JSON whether it ran on one
//! worker thread or many, because window bounds derive only from
//! global state and cross-shard tuples are drained in fixed link
//! order. Everything else (conservation, gateway accounting, estimator
//! routing) rides on top of that schedule.

use swing_core::SECOND_US;
use swing_sim::federation::{Federation, FederationConfig};

fn small_config(seed: u64) -> FederationConfig {
    FederationConfig {
        swarms: 6,
        workers_per_swarm: 4,
        frames_per_source: 120,
        input_fps: 30.0,
        seed,
        gateway_fanout: 2,
        ..FederationConfig::default()
    }
}

#[test]
fn federated_run_is_byte_identical_across_thread_counts() {
    let mut exports = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut cfg = small_config(42);
        cfg.threads = threads;
        let report = Federation::build(cfg).expect("federation builds").run();
        assert!(report.windows > 0);
        exports.push((threads, report));
    }
    let (_, ref base) = exports[0];
    for (threads, report) in &exports[1..] {
        assert_eq!(
            report.federated_json, base.federated_json,
            "federated telemetry diverged at {threads} threads"
        );
        // The whole schedule matched, not just the rollup: every
        // member status row, the window count, and gateway traffic.
        assert_eq!(report.swarms, base.swarms);
        assert_eq!(report.windows, base.windows);
        assert_eq!(report.routed, base.routed);
        assert_eq!(report.acked, base.acked);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rollup document itself is pinned, not only its agreement across
/// thread counts: the hash was computed at the commit before the
/// registry fold replaced snapshot-and-merge (sparse histograms,
/// on-demand dedup windows, index-addressed fabric), so a change to what
/// is exported — a series, a bucket, a float's last digit, key order —
/// fails here.
#[test]
fn federated_rollup_matches_the_pinned_document() {
    for threads in [1usize, 4] {
        let mut cfg = small_config(7);
        cfg.threads = threads;
        let report = Federation::build(cfg).expect("federation builds").run();
        assert_eq!(
            fnv1a(report.federated_json.as_bytes()),
            0xe13b_c1da_f23b_768c,
            "federated rollup moved at {threads} threads ({} bytes)",
            report.federated_json.len()
        );
    }
}

#[test]
fn every_member_conserves_and_gateways_flow() {
    let report = Federation::build(small_config(7))
        .expect("federation builds")
        .run();
    assert!(report.all_conserved(), "conservation violated: {report:?}");
    for s in &report.swarms {
        assert_eq!(s.sensed, 120, "member {} sensed {}", s.id, s.sensed);
        assert_eq!(s.lost, 0);
        assert!(s.epoch >= 1);
        assert_eq!(s.alive_workers, 4);
    }
    // Gateway overlay: egress was sampled, routed over links, and
    // consumed by peers. In-flight frames at the horizon may make
    // ingress lag routed, never exceed it.
    let egress = report.federated_counter("swing_gateway_egress_total");
    let ingress = report.federated_ingress();
    assert!(egress > 0, "no gateway egress sampled");
    assert!(report.routed > 0, "no egress routed over links");
    assert!(ingress > 0, "no gateway ingress consumed");
    assert!(
        ingress <= report.routed,
        "ingress {ingress} exceeds routed {}",
        report.routed
    );
    // Emitters heard ACKs back, so the federation-tier estimator is
    // measuring real round trips.
    assert!(report.acked > 0, "no federation-tier ACKs consumed");
}

#[test]
fn chaos_inside_members_keeps_federated_conservation() {
    // Crash an operator host in two members and partition one in a
    // third; the self-healing control planes recover independently
    // while the federation keeps exchanging gateway tuples.
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = small_config(23);
        cfg.threads = threads;
        let mut fed = Federation::build(cfg).expect("federation builds");
        fed.swarm_mut(1).crash_worker_at("w2", 2 * SECOND_US);
        fed.swarm_mut(3).crash_worker_at("w1", 3 * SECOND_US);
        fed.swarm_mut(5)
            .partition_worker("w3", 2 * SECOND_US, 4 * SECOND_US);
        let report = fed.run();
        assert!(
            report.all_conserved(),
            "conservation violated under chaos: {report:?}"
        );
        // The crashed members healed: epoch advanced past the initial
        // deployment and one worker is gone from the roster.
        for &(id, expect_alive) in &[(1usize, 3usize), (3, 3)] {
            let s = &report.swarms[id];
            assert!(s.epoch > 1, "member {id} never re-deployed");
            assert_eq!(s.alive_workers, expect_alive);
        }
        // The federated identity is the sum of per-member identities.
        let fed_sensed = report.federated_counter("swing_source_sensed_total");
        let member_sensed: u64 = report.swarms.iter().map(|s| s.sensed).sum();
        assert_eq!(fed_sensed, member_sensed);
        exports.push(report.federated_json);
    }
    assert_eq!(
        exports[0], exports[1],
        "chaos schedule diverged across thread counts"
    );
}

#[test]
fn isolated_single_swarm_federation_still_runs() {
    let cfg = FederationConfig {
        swarms: 1,
        workers_per_swarm: 3,
        frames_per_source: 60,
        gateway_fanout: 2,
        ..FederationConfig::default()
    };
    let report = Federation::build(cfg).expect("federation builds").run();
    assert!(report.all_conserved());
    assert_eq!(report.routed, 0, "a lone swarm has no links to route on");
    assert_eq!(report.federated_ingress(), 0);
}
