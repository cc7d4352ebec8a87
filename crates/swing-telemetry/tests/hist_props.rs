//! Histogram correctness: quantile accuracy against an exact oracle,
//! merge associativity/commutativity, and JSON round-trips.
//!
//! Each property runs twice: once over fixed seeded value streams and
//! the degenerate shapes, and once on 256 seeded cases of arbitrary
//! `u64`s, boundary values included (see [`for_each_case`] for
//! replaying one).

use swing_core::rng::{for_each_case, DetRng};
use swing_telemetry::{from_json, Histogram, HistogramSnapshot, Telemetry};

const CASES: u32 = 256;

/// `n` values spanning ten octaves, so they cross many bucket widths.
fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let z = rng.next_u64();
            z % (1 << (z % 10 + 4))
        })
        .collect()
}

/// Fewer than `len` arbitrary values, at least `min`.
fn any_values(rng: &mut DetRng, min: usize, len: usize) -> Vec<u64> {
    (0..rng.random_range(min..len))
        .map(|_| rng.any_u64())
        .collect()
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The exact value at quantile `q` of a sorted sample (same rank rule
/// as `HistogramSnapshot::quantile`: 1-based ceiling rank).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Assert `quantile(q)` lands within one bucket width (≤ 1/31 relative
/// error) of the exact oracle for every probed quantile.
fn assert_quantiles_match(values: &[u64]) {
    if values.is_empty() {
        return;
    }
    let snap = snapshot_of(values);
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    for q in [0.0, 0.01, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
        let exact = oracle_quantile(&sorted, q);
        let approx = snap.quantile(q);
        let tol = exact / 31 + 1; // one bucket width, min 1 for tiny values
        assert!(
            approx.abs_diff(exact) <= tol,
            "q={q}: histogram {approx} vs oracle {exact} (n={})",
            values.len()
        );
    }
    assert_eq!(snap.min(), sorted[0], "min is exact");
    assert_eq!(snap.max, *sorted.last().unwrap(), "max is exact");
}

fn assert_merge_associative(a: &[u64], b: &[u64], c: &[u64]) {
    let (sa, sb, sc) = (snapshot_of(a), snapshot_of(b), snapshot_of(c));
    // ((a + b) + c)
    let mut left = sa.clone();
    left.merge(&sb);
    left.merge(&sc);
    // (a + (b + c))
    let mut bc = sb.clone();
    bc.merge(&sc);
    let mut right = sa.clone();
    right.merge(&bc);
    // ((c + a) + b) — commutativity too.
    let mut rotated = sc.clone();
    rotated.merge(&sa);
    rotated.merge(&sb);
    assert_eq!(left, right, "merge not associative");
    assert_eq!(left, rotated, "merge not commutative");
    // And the merged snapshot equals recording everything in one pass.
    let all: Vec<u64> = a.iter().chain(b).chain(c).copied().collect();
    assert_eq!(left, snapshot_of(&all), "merge differs from single pass");
}

fn assert_json_round_trip(values: &[u64]) {
    let telemetry = Telemetry::new();
    let h = telemetry.histogram("swing_test_latency_us", &[("worker", "A")]);
    for &v in values {
        h.record(v);
    }
    let snap = telemetry.snapshot();
    let back = from_json(&telemetry.to_json()).expect("snapshot JSON parses back");
    assert_eq!(back.histograms, snap.histograms);
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.gauges, snap.gauges);
}

#[test]
fn quantiles_match_exact_oracle_on_seeded_streams() {
    for seed in 1..=8u64 {
        assert_quantiles_match(&stream(seed, 5_000));
    }
    // Degenerate shapes.
    assert_quantiles_match(&[7]);
    assert_quantiles_match(&[0, 0, 0, 0]);
    assert_quantiles_match(&vec![1_000; 1_000]);
}

#[test]
fn merge_is_associative_and_matches_single_pass() {
    let v = stream(42, 3_000);
    assert_merge_associative(&v[..1_000], &v[1_000..1_700], &v[1_700..]);
    assert_merge_associative(&[], &v[..10], &[]);
    // Identity: merging an empty snapshot changes nothing.
    let mut s = snapshot_of(&v);
    s.merge(&HistogramSnapshot::default());
    assert_eq!(s, snapshot_of(&v));
}

#[test]
fn snapshot_json_round_trips_exactly() {
    assert_json_round_trip(&stream(7, 500));
    assert_json_round_trip(&[]);
    assert_json_round_trip(&[0, u64::MAX]);
}

#[test]
fn prop_quantiles_match_exact_oracle() {
    for_each_case(0x7001, CASES, |rng| {
        assert_quantiles_match(&any_values(rng, 1, 400));
    });
}

#[test]
fn prop_merge_is_associative() {
    for_each_case(0x7002, CASES, |rng| {
        let (a, b, c) = (
            any_values(rng, 0, 200),
            any_values(rng, 0, 200),
            any_values(rng, 0, 200),
        );
        assert_merge_associative(&a, &b, &c);
    });
}

#[test]
fn prop_snapshot_json_round_trips() {
    for_each_case(0x7003, CASES, |rng| {
        assert_json_round_trip(&any_values(rng, 0, 200));
    });
}
