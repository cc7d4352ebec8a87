//! Property-based tests of the core data structures and invariants,
//! each run on 256 seeded cases (see [`for_each_case`] for replaying
//! one).

use std::collections::BTreeSet;
use swing::core::config::ReorderConfig;
use swing::core::reorder::ReorderBuffer;
use swing::core::rng::{for_each_case, DetRng};
use swing::core::routing::selection::select_workers;
use swing::core::routing::table::RoutingTable;
use swing::core::stats::Summary;
use swing::core::{SeqNo, Tuple, UnitId, Value};
use swing::net::Message;

const CASES: u32 = 256;

/// Up to 64 scalar values that are not control characters.
fn printable_text(rng: &mut DetRng) -> String {
    (0..rng.random_range(0..=64))
        .map(|_| loop {
            // Surrogates are not scalar values; `from_u32` refuses them.
            let c = char::from_u32(rng.random_range(0x20..0x11_0000));
            if let Some(c) = c.filter(|c| !c.is_control()) {
                break c;
            }
        })
        .collect()
}

/// Routing-table weights always form a probability distribution over
/// the selected set, whatever raw weights and selections arrive.
#[test]
fn routing_weights_always_normalize() {
    for_each_case(0x5001, CASES, |rng| {
        let raw: Vec<(u32, f64)> = (0..rng.random_range(1..20))
            .map(|_| (rng.random_range(0..32), rng.random_range(0.0..1e6)))
            .collect();
        let selected_mask: Vec<bool> = (0..20).map(|_| rng.random_bool(0.5)).collect();
        let mut table = RoutingTable::new();
        for (id, _) in &raw {
            table.add(UnitId(*id));
        }
        let units: Vec<UnitId> = table.units().collect();
        let weights: Vec<(UnitId, f64)> = raw.iter().map(|(id, w)| (UnitId(*id), *w)).collect();
        let selected: Vec<UnitId> = units
            .iter()
            .enumerate()
            .filter(|(i, _)| selected_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, u)| *u)
            .collect();
        table.install(&weights, &selected);
        let total: f64 = table.entries().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to {total}");
        for e in table.entries() {
            assert!(e.weight >= 0.0);
            assert!(e.weight <= 1.0 + 1e-9);
            if !e.selected {
                assert_eq!(e.weight, 0.0);
            }
        }
    });
}

/// Sampling only ever returns units present in the table.
#[test]
fn sampling_returns_member_units() {
    for_each_case(0x5002, CASES, |rng| {
        let len = rng.random_range(1..16);
        let mut ids = BTreeSet::new();
        while ids.len() < len {
            ids.insert(rng.random_range(0u32..64));
        }
        let seed = rng.any_u64();
        let mut table = RoutingTable::new();
        for &id in &ids {
            table.add(UnitId(id));
        }
        let mut sampler = DetRng::seed_from_u64(seed);
        for _ in 0..64 {
            let u = table.sample(&mut sampler).unwrap();
            assert!(ids.contains(&u.0));
        }
    });
}

/// Worker selection returns the *minimum* prefix: removing its
/// slowest member must drop the summed rate below the demand
/// (whenever the demand was satisfiable and positive).
#[test]
fn selection_is_minimal() {
    for_each_case(0x5003, CASES, |rng| {
        let rates: Vec<(UnitId, f64)> = (0..rng.random_range(1..12u32))
            .map(|i| (UnitId(i), rng.random_range(0.1..50.0)))
            .collect();
        let lambda = rng.random_range(0.1..200.0);
        let sel = select_workers(&rates, lambda);
        let rate_of = |u: UnitId| rates.iter().find(|(x, _)| *x == u).unwrap().1;
        let total: f64 = sel.selected.iter().map(|&u| rate_of(u)).sum();
        if sel.satisfied {
            assert!(total >= lambda - 1e-9);
            if sel.selected.len() > 1 {
                let without_last: f64 = sel.selected[..sel.selected.len() - 1]
                    .iter()
                    .map(|&u| rate_of(u))
                    .sum();
                assert!(
                    without_last < lambda,
                    "selection not minimal: {without_last} >= {lambda}"
                );
            }
            // Selected units are the fastest ones: every unselected unit
            // is no faster than the slowest selected unit.
            let slowest_selected = sel
                .selected
                .iter()
                .map(|&u| rate_of(u))
                .fold(f64::INFINITY, f64::min);
            for (u, r) in &rates {
                if !sel.selected.contains(u) {
                    assert!(*r <= slowest_selected + 1e-9);
                }
            }
        } else {
            assert_eq!(sel.selected.len(), rates.len());
        }
    });
}

/// The reorder buffer plays each offered sequence number at most
/// once, in strictly increasing order, and never invents one.
#[test]
fn reorder_plays_sorted_unique_subset() {
    for_each_case(0x5004, CASES, |rng| {
        let seqs: Vec<u64> = (0..rng.random_range(1..120))
            .map(|_| rng.random_range(0..200))
            .collect();
        let span_ms = rng.random_range(1u64..2_000);
        let mut buffer = ReorderBuffer::new(ReorderConfig {
            span_us: span_ms * 1_000,
        });
        let mut played = Vec::new();
        for (i, &s) in seqs.iter().enumerate() {
            for p in buffer.push(SeqNo(s), s, i as u64 * 10_000) {
                played.push(p.seq.0);
            }
        }
        for p in buffer.flush(10_000_000) {
            played.push(p.seq.0);
        }
        for w in played.windows(2) {
            assert!(w[0] < w[1], "playback not strictly increasing: {played:?}");
        }
        for &p in &played {
            assert!(seqs.contains(&p), "played {p} was never offered");
        }
        // Everything offered is accounted for: played, stale or dup.
        let unique_offered: BTreeSet<u64> = seqs.iter().copied().collect();
        assert!(played.len() <= unique_offered.len());
    });
}

/// Tuples survive a wire round-trip bit-exactly.
#[test]
fn wire_roundtrips_arbitrary_tuples() {
    for_each_case(0x5005, CASES, |rng| {
        let mut tuple = Tuple::with_seq(SeqNo(rng.any_u64()));
        tuple.stamp_sent(rng.any_u64());
        let bytes: Vec<u8> = (0..rng.random_range(0..2_000))
            .map(|_| rng.any_u8())
            .collect();
        tuple.set_value("bytes", bytes);
        tuple.set_value("text", printable_text(rng));
        tuple.set_value("int", rng.any_u64() as i64);
        // Any bit pattern: NaNs, infinities and subnormals included.
        tuple.set_value("float", Value::F64(f64::from_bits(rng.any_u64())));
        let vecf: Vec<f32> = (0..rng.random_range(0..64))
            .map(|_| f32::from_bits(rng.any_u32()))
            .collect();
        tuple.set_value("vec", vecf);
        tuple.set_value("flag", rng.random_bool(0.5));
        let msg = Message::Data {
            dest: UnitId(rng.any_u32()),
            from: UnitId(rng.any_u32()),
            tuple,
        };
        let decoded = Message::decode(&msg.encode()).unwrap();
        // NaN payloads break PartialEq; compare through re-encoding.
        assert_eq!(msg.encode(), decoded.encode());
    });
}

/// Welford summaries match naive statistics on any sample set.
#[test]
fn summary_matches_naive_statistics() {
    for_each_case(0x5006, CASES, |rng| {
        let samples: Vec<f64> = (0..rng.random_range(1..200))
            .map(|_| rng.random_range(-1e6..1e6))
            .collect();
        let mut s = Summary::new();
        for &v in &samples {
            s.update(v);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    });
}

/// The pacer emits exactly `floor(elapsed * rate) + 1` deadlines (the
/// +1 is the t=0 tuple), within one deadline of floating-point slack.
#[test]
fn pacer_emission_count_is_exact() {
    for_each_case(0x5007, CASES, |rng| {
        let rate = rng.random_range(0.5..200.0);
        let seconds = rng.random_range(1u64..30);
        let mut p = swing::core::rate::Pacer::new(rate, 0);
        let horizon = seconds * 1_000_000;
        let due = p.due(horizon);
        let expected = (horizon as f64 / 1_000_000.0 * rate).floor() as i64 + 1;
        let got = due.len() as i64;
        assert!(
            (got - expected).abs() <= 1,
            "rate {rate}, {seconds}s: got {got}, expected {expected}"
        );
    });
}
