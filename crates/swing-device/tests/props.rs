//! Property tests of the device substrate models, each run on 256
//! seeded cases (see [`for_each_case`] for replaying one).

use swing_core::rng::for_each_case;
use swing_device::battery::Battery;
use swing_device::cpu::CpuModel;
use swing_device::mobility::MobilityTrace;
use swing_device::power::PowerModel;
use swing_device::profile::{testbed, Workload};
use swing_device::radio::link_quality;

const CASES: u32 = 256;

/// A mobility trace is piecewise constant: between consecutive
/// waypoints the RSSI does not change, and at each waypoint it takes
/// exactly the waypoint value.
#[test]
fn mobility_traces_are_piecewise_constant() {
    for_each_case(0xD001, CASES, |rng| {
        let steps: Vec<(u64, f64)> = (0..rng.random_range(1..12))
            .map(|_| {
                (
                    rng.random_range(0..1_000_000),
                    rng.random_range(-90.0..-20.0),
                )
            })
            .collect();
        let trace = MobilityTrace::from_steps(steps.clone());
        let mut sorted = steps;
        sorted.sort_by_key(|&(t, _)| t);
        for w in sorted.windows(2) {
            let (t0, _) = w[0];
            let (t1, _) = w[1];
            if t1 > t0 + 1 {
                let mid = t0 + (t1 - t0) / 2;
                assert_eq!(trace.rssi_at(mid), trace.rssi_at(t0.max(1)));
            }
        }
        // After the last waypoint the value holds forever.
        if let Some(&(t_last, _)) = sorted.last() {
            assert_eq!(trace.rssi_at(t_last), trace.rssi_at(u64::MAX));
        }
    });
}

/// Link quality degrades monotonically with RSSI: weaker signal
/// never yields higher goodput or lower per-frame overhead.
#[test]
fn link_quality_is_monotone_in_rssi() {
    for_each_case(0xD002, CASES, |rng| {
        let a: f64 = rng.random_range(-95.0..-20.0);
        let b: f64 = rng.random_range(-95.0..-20.0);
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let qh = link_quality(hi);
        let ql = link_quality(lo);
        assert!(qh.goodput_bps >= ql.goodput_bps);
        if qh.connected && ql.connected {
            assert!(qh.base_delay_us <= ql.base_delay_us);
        }
        if !qh.connected {
            assert!(!ql.connected);
        }
    });
}

/// Power estimates are non-negative, bounded by the peaks, and
/// monotone in both utilization and transfer rate.
#[test]
fn power_model_is_bounded_and_monotone() {
    for_each_case(0xD003, CASES, |rng| {
        let profile = &testbed()[rng.random_range(0..9)];
        let u1: f64 = rng.random_range(0.0..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let r1: f64 = rng.random_range(0.0..5_000_000.0);
        let r2: f64 = rng.random_range(0.0..5_000_000.0);
        let m = PowerModel::new(profile);
        let p = m.app_power_w(u1, r1);
        assert!(p >= 0.0);
        assert!(p <= profile.peak_cpu_w + profile.peak_wifi_w + 1e-9);
        let (ua, ub) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        assert!(m.cpu_power_w(ua) <= m.cpu_power_w(ub) + 1e-12);
        let (ra, rb) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        assert!(m.wifi_power_w(ra) <= m.wifi_power_w(rb) + 1e-12);
    });
}

/// Batteries conserve energy: total drained never exceeds capacity,
/// and remaining + drained equals capacity.
#[test]
fn battery_conserves_energy() {
    for_each_case(0xD004, CASES, |rng| {
        let draws: Vec<(f64, f64)> = (0..rng.random_range(0..50))
            .map(|_| (rng.random_range(0.0..10.0), rng.random_range(0.0..1_000.0)))
            .collect();
        let capacity = 10_000.0;
        let mut b = Battery::new(capacity);
        let mut drained = 0.0;
        for (w, dt) in draws {
            drained += b.drain(w, dt);
        }
        assert!(drained <= capacity + 1e-9);
        assert!((b.remaining_j() + drained - capacity).abs() < 1e-6);
        assert!(b.level() >= 0.0 && b.level() <= 1.0);
    });
}

/// Battery charge is monotone non-increasing under any drain
/// schedule: no sequence of draws (including zero-power and
/// zero-time draws) ever raises the remaining charge, and emptiness
/// is absorbing.
#[test]
fn battery_drain_is_monotone_non_increasing() {
    for_each_case(0xD005, CASES, |rng| {
        let capacity = rng.random_range(1.0..5_000.0);
        let draws: Vec<(f64, f64)> = (0..rng.random_range(1..60))
            .map(|_| (rng.random_range(0.0..10.0), rng.random_range(0.0..500.0)))
            .collect();
        let mut b = Battery::new(capacity);
        let mut prev = b.remaining_j();
        let mut was_empty = false;
        for (w, dt) in draws {
            b.drain(w, dt);
            assert!(b.remaining_j() <= prev + 1e-12);
            assert!(b.level() <= 1.0 && b.level() >= 0.0);
            if was_empty {
                assert!(b.is_empty(), "an empty battery came back to life");
            }
            was_empty = b.is_empty();
            prev = b.remaining_j();
        }
    });
}

/// CPU service times grow monotonically with background load and
/// never fall below the unloaded base.
#[test]
fn cpu_contention_is_monotone() {
    for_each_case(0xD006, CASES, |rng| {
        let profile = &testbed()[rng.random_range(0..9)];
        let l1: f64 = rng.random_range(0.0..1.0);
        let l2: f64 = rng.random_range(0.0..1.0);
        let mut m = CpuModel::new(profile, Workload::FaceRecognition);
        let (la, lb) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        m.set_background_load(la);
        let sa = m.expected_service_ms();
        m.set_background_load(lb);
        let sb = m.expected_service_ms();
        assert!(sa <= sb + 1e-9);
        assert!(sa >= m.base_ms() - 1e-9);
    });
}
