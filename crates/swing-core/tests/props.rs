//! Property-based tests of swing-core's structural invariants, each run
//! on 256 seeded cases (see [`for_each_case`] for replaying one).

use std::collections::BTreeSet;
use swing_core::dedup::DedupWindow;
use swing_core::graph::AppGraph;
use swing_core::rng::{for_each_case, DetRng};
use swing_core::routing::partition::rendezvous_owner;
use swing_core::routing::{Policy, Router, RouterConfig, WorkerVitals};
use swing_core::{SeqNo, UnitId};

const CASES: u32 = 256;

/// `len` distinct values below `below`.
fn distinct_below(rng: &mut DetRng, below: u32, len: usize) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert(rng.random_range(0..below));
    }
    set
}

/// Random worker-vitals snapshots: distinct units, latencies spanning
/// three orders of magnitude, charge fractions over the full range
/// (including dead and full packs), plausible draws and RSSI.
fn vitals(rng: &mut DetRng) -> Vec<WorkerVitals> {
    (0..rng.random_range(1..10u32))
        .map(|i| WorkerVitals {
            unit: UnitId(i + 1),
            latency_us: rng.random_range(1_000.0..1_000_000.0),
            battery_frac: rng.random_range(0.0..=1.0),
            drain_w: rng.random_range(0.0..5.0),
            rssi_dbm: rng.random_range(-90.0..-25.0),
        })
        .collect()
}

/// Whatever sequence of `connect` calls arrives, an `AppGraph` never
/// contains a cycle: a topological order always exists.
#[test]
fn graphs_stay_acyclic_under_random_edges() {
    for_each_case(0xC0_01, CASES, |rng| {
        let ops: Vec<(u32, u32)> = (0..rng.random_range(0..60))
            .map(|_| (rng.random_range(0..12), rng.random_range(0..12)))
            .collect();
        let mut g = AppGraph::new("prop");
        g.add_source("src");
        for i in 0..10 {
            g.add_operator(format!("op{i}"));
        }
        g.add_sink("snk");
        let stages: Vec<swing_core::graph::StageId> = g.stages().collect();
        for (a, b) in ops {
            let from = stages[a as usize % stages.len()];
            let to = stages[b as usize % stages.len()];
            let _ = g.connect(from, to); // errors are fine
        }
        assert!(g.topo_order().is_ok());
        // Every accepted edge respects the topological order.
        let order = g.topo_order().unwrap();
        let pos = |s| order.iter().position(|&x| x == s).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    });
}

/// The rendezvous partitioner is deterministic (replaying the same
/// key against the same membership yields the same owner, whatever
/// the iteration order) and total (every key is owned by exactly
/// one live member).
#[test]
fn partitioner_is_deterministic_and_total() {
    for_each_case(0xC0_02, CASES, |rng| {
        let len = rng.random_range(1..12);
        let members = distinct_below(rng, 64, len);
        let keys: Vec<u64> = (0..rng.random_range(1..64))
            .map(|_| rng.any_u64())
            .collect();
        let fwd: Vec<UnitId> = members.iter().map(|&m| UnitId(m)).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        for &k in &keys {
            let a = rendezvous_owner(k, fwd.iter().copied()).expect("non-empty membership");
            let b = rendezvous_owner(k, rev.iter().copied()).expect("non-empty membership");
            assert_eq!(a, b, "owner depends on member order");
            assert!(fwd.contains(&a), "owner {a} is not a live member");
            // Replay: same inputs, same owner.
            assert_eq!(rendezvous_owner(k, fwd.iter().copied()), Some(a));
        }
    });
}

/// One-member membership changes are minimally disruptive: removing
/// a member re-homes only the keys it owned, and adding a member
/// steals keys without moving any key between survivors.
#[test]
fn partitioner_is_minimally_disruptive() {
    for_each_case(0xC0_03, CASES, |rng| {
        let len = rng.random_range(2..12);
        let members = distinct_below(rng, 64, len);
        let newcomer = rng.random_range(64u32..80);
        let keys: Vec<u64> = (0..rng.random_range(1..128))
            .map(|_| rng.any_u64())
            .collect();
        let victim_sel = rng.any_u32();
        let full: Vec<UnitId> = members.iter().map(|&m| UnitId(m)).collect();
        let victim = full[victim_sel as usize % full.len()];
        let survivors: Vec<UnitId> = full.iter().copied().filter(|&u| u != victim).collect();
        let grown: Vec<UnitId> = full.iter().copied().chain([UnitId(newcomer)]).collect();
        for &k in &keys {
            let before = rendezvous_owner(k, full.iter().copied()).unwrap();
            // Removal: survivor-owned keys stay put.
            let after = rendezvous_owner(k, survivors.iter().copied()).unwrap();
            if before == victim {
                assert!(survivors.contains(&after));
            } else {
                assert_eq!(before, after, "key of a survivor moved on removal");
            }
            // Addition: a key either keeps its owner or moves to the
            // newcomer — never to another existing member.
            let joined = rendezvous_owner(k, grown.iter().copied()).unwrap();
            assert!(
                joined == before || joined == UnitId(newcomer),
                "join moved a key between existing members: {before} -> {joined}"
            );
        }
    });
}

/// The router only ever routes to registered, non-removed
/// downstreams, under any interleaving of adds, removes and acks.
#[test]
fn router_routes_only_to_live_downstreams() {
    for_each_case(0xC0_04, CASES, |rng| {
        let script: Vec<(u8, u32, u64)> = (0..rng.random_range(1..300))
            .map(|_| {
                (
                    rng.random_range(0..4),
                    rng.random_range(0..8),
                    rng.random_range(0..200_000),
                )
            })
            .collect();
        let policy = Policy::ALL[rng.random_range(0..5)];
        let seed = rng.any_u64();
        let mut router = Router::new(RouterConfig::new(policy), seed);
        let mut live: BTreeSet<u32> = BTreeSet::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for (op, unit, dt) in script {
            now += dt;
            match op {
                0 => {
                    router.add_downstream(UnitId(unit), now);
                    live.insert(unit);
                }
                1 => {
                    router.remove_downstream(UnitId(unit));
                    live.remove(&unit);
                }
                2 => {
                    if let Ok(dest) = router.route(now) {
                        assert!(
                            live.contains(&dest.0),
                            "routed to dead unit {dest} (live: {live:?})"
                        );
                        router.on_send(SeqNo(seq), dest, now);
                        seq += 1;
                    } else {
                        assert!(live.is_empty());
                    }
                }
                _ => {
                    // Ack an arbitrary (possibly unknown) sequence.
                    router.on_ack(SeqNo(seq.saturating_sub(1)), now, dt);
                }
            }
        }
    });
}

/// Rebalancing at any time never panics and keeps the snapshot
/// internally consistent (weights of unselected rows are zero).
#[test]
fn rebalance_keeps_snapshot_consistent() {
    for_each_case(0xC0_05, CASES, |rng| {
        let len = rng.random_range(1..10);
        let units = distinct_below(rng, 16, len);
        let acks: Vec<(u32, u64)> = (0..rng.random_range(0..100))
            .map(|_| (rng.random_range(0..16), rng.random_range(1_000..5_000_000)))
            .collect();
        let policy = Policy::ALL[rng.random_range(0..5)];
        let mut router = Router::new(RouterConfig::new(policy), 3);
        for &u in &units {
            router.add_downstream(UnitId(u), 0);
        }
        let mut now = 0;
        let mut seq = 0u64;
        for (u, lat) in acks {
            if !units.contains(&u) {
                continue;
            }
            now += 10_000;
            router.on_send(SeqNo(seq), UnitId(u), now);
            router.on_ack(SeqNo(seq), now + lat, lat / 2);
            seq += 1;
        }
        router.rebalance(now + 1);
        let snap = router.snapshot(now + 1);
        let total: f64 = snap.routes.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to {total}");
        for r in &snap.routes {
            if !r.selected {
                assert_eq!(r.weight, 0.0);
            }
        }
        assert_eq!(snap.routes.len(), units.len());
    });
}

/// A `DedupWindow` agrees with a brute-force reference model under
/// any interleaving of fresh and duplicate sequence numbers: a seq
/// is flagged as a duplicate exactly when it is among the last
/// `capacity` distinct inserts, and memory stays bounded.
#[test]
fn dedup_window_matches_reference_model() {
    for_each_case(0xC0_06, CASES, |rng| {
        let capacity = rng.random_range(1usize..32);
        let seqs: Vec<u64> = (0..rng.random_range(0..400))
            .map(|_| rng.random_range(0..64))
            .collect();
        let mut w = DedupWindow::new(capacity);
        // Reference: distinct remembered seqs, oldest first.
        let mut model: Vec<u64> = Vec::new();
        for s in seqs {
            let fresh = w.observe(SeqNo(s));
            assert_eq!(fresh, !model.contains(&s), "seq {s} (model: {model:?})");
            if fresh {
                if model.len() == capacity {
                    model.remove(0);
                }
                model.push(s);
            }
            assert_eq!(w.len(), model.len());
            assert!(w.len() <= capacity);
            for &m in &model {
                assert!(w.contains(SeqNo(m)));
            }
        }
    });
}

/// Tie-break determinism of the event queue: events sharing a
/// timestamp pop in the exact sequence they were pushed, under any
/// interleaving of pushes and pops. Cross-shard merge in the
/// federated simulator depends on this invariant — inbound gateway
/// tuples are injected in deterministic link order and must replay
/// in that order when their delivery instants collide.
#[test]
fn event_queue_breaks_ties_fifo() {
    for_each_case(0xC0_07, CASES, |rng| {
        let script: Vec<(u64, u8)> = (0..rng.random_range(1..300))
            .map(|_| (rng.random_range(0..16), rng.random_range(0..4)))
            .collect();
        let mut q = swing_core::event::EventQueue::new();
        // Reference model: sorted-stable list of (time, push ordinal).
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut ordinal = 0u64;
        for (t, op) in script {
            if op == 0 && !model.is_empty() {
                let (popped_t, popped_ord) = q.pop().expect("model says non-empty");
                // The model's earliest (time, ordinal) — stable sort by
                // time only, so equal timestamps keep push order.
                let min_idx = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(mt, mo))| (mt, mo))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let (mt, mo) = model.remove(min_idx);
                assert_eq!((popped_t, popped_ord), (mt, mo));
            } else {
                // Past timestamps clamp to `now`, same as the queue.
                let t = t.max(q.now_us());
                q.schedule(t, ordinal);
                model.push((t, ordinal));
                ordinal += 1;
            }
        }
        // Drain: the remainder pops in (time, push-order) sequence.
        model.sort_by_key(|&(t, o)| (t, o));
        for (mt, mo) in model {
            assert_eq!(q.pop(), Some((mt, mo)));
        }
        assert!(q.is_empty());
    });
}

/// Selection is a pure function of the vitals: for every built-in
/// policy, two freshly resolved instances fed the same snapshot and
/// demand return identical decisions, and re-asking the same
/// instance does not drift.
#[test]
fn selection_is_deterministic_for_fixed_vitals() {
    for_each_case(0xC0_08, CASES, |rng| {
        let vitals = vitals(rng);
        let lambda = rng.random_range(0.1..60.0);
        for policy in Policy::EXTENDED {
            let mut a = policy.resolve();
            let mut b = policy.resolve();
            let d1 = format!("{:?}", a.select(&vitals, lambda));
            let d2 = format!("{:?}", b.select(&vitals, lambda));
            let d3 = format!("{:?}", a.select(&vitals, lambda));
            assert_eq!(&d1, &d2, "{} differs across instances", policy.name());
            assert_eq!(&d1, &d3, "{} drifts across calls", policy.name());
        }
    });
}

/// With effectively infinite batteries (full charge, any draw) the
/// energy-weighted policy degenerates to plain LRS: the lifetime
/// factor saturates at 1 for every worker, so weights, membership
/// and satisfaction all coincide.
#[test]
fn energy_weighted_degenerates_to_lrs_on_full_batteries() {
    for_each_case(0xC0_09, CASES, |rng| {
        let vitals: Vec<WorkerVitals> = (0..rng.random_range(1..10u32))
            .map(|i| WorkerVitals {
                unit: UnitId(i + 1),
                latency_us: rng.random_range(1_000.0..500_000.0),
                battery_frac: 1.0, // full pack => lifetime_s() is infinite
                drain_w: rng.random_range(0.0..5.0),
                rssi_dbm: -40.0,
            })
            .collect();
        let lambda = rng.random_range(0.1..60.0);
        let lrs = format!("{:?}", Policy::Lrs.resolve().select(&vitals, lambda));
        let elrs = format!("{:?}", Policy::EnergyLrs.resolve().select(&vitals, lambda));
        assert_eq!(lrs, elrs);
    });
}
