//! User mobility expressed as Wi-Fi signal-strength traces and
//! deterministic GPS walks.
//!
//! The paper captures mobility through "variations in signal strength"
//! (§III) and evaluates it by walking a device through three zones
//! (Fig. 10): good (RSSI > -30 dBm), fair (-70 to -60 dBm) and poor
//! (-80 to -70 dBm). [`MobilityTrace`] is a step function from time to
//! RSSI; [`SignalZone`] names the paper's zones.
//!
//! [`GeoWalk`] complements the RSSI view with a *positional* one: a
//! seeded random-waypoint walk over a square field, for sensing
//! workloads whose tuples carry GPS coordinates (e.g. the spatial
//! aggregation app). Same seed, same trace — byte-identical replays.

use swing_core::DetRng;

/// The signal-strength zones used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalZone {
    /// Next to the access point: RSSI > -30 dBm (Fig. 10's first zone).
    Good,
    /// Same office, some obstructions: around -55 dBm (§III "Fair").
    Fair,
    /// -70 to -60 dBm: Fig. 10's second zone.
    Weak,
    /// -80 to -70 dBm: Fig. 10's third zone; §III's "Bad" locations.
    Poor,
    /// Beyond -85 dBm the association drops entirely.
    OutOfRange,
}

impl SignalZone {
    /// Representative RSSI for the zone, dBm.
    #[must_use]
    pub fn rssi_dbm(self) -> f64 {
        match self {
            SignalZone::Good => -28.0,
            SignalZone::Fair => -55.0,
            SignalZone::Weak => -65.0,
            SignalZone::Poor => -75.0,
            SignalZone::OutOfRange => -92.0,
        }
    }

    /// Classify an RSSI value into a zone.
    #[must_use]
    pub fn from_rssi(rssi_dbm: f64) -> Self {
        if rssi_dbm > -40.0 {
            SignalZone::Good
        } else if rssi_dbm > -60.0 {
            SignalZone::Fair
        } else if rssi_dbm > -70.0 {
            SignalZone::Weak
        } else if rssi_dbm > -85.0 {
            SignalZone::Poor
        } else {
            SignalZone::OutOfRange
        }
    }
}

/// A piecewise-constant RSSI trace: the device holds each signal level
/// until the next waypoint.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityTrace {
    /// (time_us, rssi_dbm) waypoints, sorted by time; the first applies
    /// from t = 0.
    steps: Vec<(u64, f64)>,
}

impl MobilityTrace {
    /// A device that never moves.
    #[must_use]
    pub fn stationary(rssi_dbm: f64) -> Self {
        MobilityTrace {
            steps: vec![(0, rssi_dbm)],
        }
    }

    /// A device parked in one zone.
    #[must_use]
    pub fn in_zone(zone: SignalZone) -> Self {
        MobilityTrace::stationary(zone.rssi_dbm())
    }

    /// Build a trace from explicit `(time_us, rssi_dbm)` waypoints.
    /// Steps are sorted by time; an initial waypoint at t = 0 is added
    /// (good signal) if missing.
    #[must_use]
    pub fn from_steps(mut steps: Vec<(u64, f64)>) -> Self {
        steps.sort_by_key(|&(t, _)| t);
        if steps.first().map(|&(t, _)| t != 0).unwrap_or(true) {
            steps.insert(0, (0, SignalZone::Good.rssi_dbm()));
        }
        MobilityTrace { steps }
    }

    /// The paper's Fig. 10 walk: good for `dwell_us`, then weak for
    /// `dwell_us`, then poor.
    #[must_use]
    pub fn fig10_walk(dwell_us: u64) -> Self {
        MobilityTrace::from_steps(vec![
            (0, SignalZone::Good.rssi_dbm()),
            (dwell_us, SignalZone::Weak.rssi_dbm()),
            (2 * dwell_us, SignalZone::Poor.rssi_dbm()),
        ])
    }

    /// Append a waypoint: from `time_us` on, the device sits at `rssi_dbm`.
    pub fn add_step(&mut self, time_us: u64, rssi_dbm: f64) {
        self.steps.push((time_us, rssi_dbm));
        self.steps.sort_by_key(|&(t, _)| t);
    }

    /// RSSI at time `t_us`, dBm.
    #[must_use]
    pub fn rssi_at(&self, t_us: u64) -> f64 {
        let mut current = self.steps.first().map(|&(_, r)| r).unwrap_or(-28.0);
        for &(t, r) in &self.steps {
            if t <= t_us {
                current = r;
            } else {
                break;
            }
        }
        current
    }

    /// Zone at time `t_us`.
    #[must_use]
    pub fn zone_at(&self, t_us: u64) -> SignalZone {
        SignalZone::from_rssi(self.rssi_at(t_us))
    }

    /// Times at which the RSSI changes (excluding t = 0), useful for
    /// schedulers that must re-evaluate links exactly at transitions.
    pub fn transition_times(&self) -> impl Iterator<Item = u64> + '_ {
        self.steps.iter().skip(1).map(|&(t, _)| t)
    }
}

/// A deterministic random-waypoint GPS walk over a square field.
///
/// The device starts at a seeded position, picks a waypoint uniformly
/// over the field, walks toward it at constant speed, and repeats.
/// Positions are meters from the field's south-west corner. All
/// randomness flows through a [`DetRng`], so a trace is a pure function
/// of `(seed, field_m, speed_mps)` and the query times — the property
/// the simulator's byte-identical replay tests rely on.
#[derive(Debug, Clone)]
pub struct GeoWalk {
    rng: DetRng,
    /// Current position, meters.
    x_m: f64,
    y_m: f64,
    /// Current waypoint target, meters.
    wx_m: f64,
    wy_m: f64,
    field_m: f64,
    speed_mps: f64,
    /// Time the walk has been advanced to, microseconds.
    now_us: u64,
}

impl GeoWalk {
    /// A walk over a `field_m` × `field_m` field at `speed_mps`,
    /// starting at a seeded position. Non-positive dimensions or speeds
    /// clamp to small positive values rather than panic.
    #[must_use]
    pub fn new(seed: u64, field_m: f64, speed_mps: f64) -> Self {
        let field_m = field_m.max(1.0);
        let speed_mps = speed_mps.max(0.01);
        let mut rng = DetRng::seed_from_u64(seed);
        let x_m = rng.unit_f64() * field_m;
        let y_m = rng.unit_f64() * field_m;
        let wx_m = rng.unit_f64() * field_m;
        let wy_m = rng.unit_f64() * field_m;
        GeoWalk {
            rng,
            x_m,
            y_m,
            wx_m,
            wy_m,
            field_m,
            speed_mps,
            now_us: 0,
        }
    }

    /// Side length of the field, meters.
    #[must_use]
    pub fn field_m(&self) -> f64 {
        self.field_m
    }

    /// Advance the walk to absolute time `t_us` and return the position
    /// `(x_m, y_m)`. Time is monotone: queries earlier than a previous
    /// call return the current (not historical) position.
    pub fn position_at(&mut self, t_us: u64) -> (f64, f64) {
        let mut remaining_s = t_us.saturating_sub(self.now_us) as f64 / 1_000_000.0;
        self.now_us = self.now_us.max(t_us);
        while remaining_s > 0.0 {
            let dx = self.wx_m - self.x_m;
            let dy = self.wy_m - self.y_m;
            let dist = (dx * dx + dy * dy).sqrt();
            let reach_s = dist / self.speed_mps;
            if reach_s > remaining_s {
                let f = remaining_s * self.speed_mps / dist;
                self.x_m += dx * f;
                self.y_m += dy * f;
                break;
            }
            // Waypoint reached: snap to it and draw the next one.
            self.x_m = self.wx_m;
            self.y_m = self.wy_m;
            self.wx_m = self.rng.unit_f64() * self.field_m;
            self.wy_m = self.rng.unit_f64() * self.field_m;
            remaining_s -= reach_s;
        }
        (self.x_m, self.y_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_round_trip_through_rssi() {
        for z in [
            SignalZone::Good,
            SignalZone::Fair,
            SignalZone::Weak,
            SignalZone::Poor,
            SignalZone::OutOfRange,
        ] {
            assert_eq!(SignalZone::from_rssi(z.rssi_dbm()), z);
        }
    }

    #[test]
    fn stationary_trace_is_constant() {
        let t = MobilityTrace::in_zone(SignalZone::Fair);
        assert_eq!(t.rssi_at(0), -55.0);
        assert_eq!(t.rssi_at(u64::MAX), -55.0);
    }

    #[test]
    fn fig10_walk_steps_through_three_zones() {
        let minute = 60_000_000;
        let t = MobilityTrace::fig10_walk(minute);
        assert_eq!(t.zone_at(0), SignalZone::Good);
        assert_eq!(t.zone_at(minute - 1), SignalZone::Good);
        assert_eq!(t.zone_at(minute), SignalZone::Weak);
        assert_eq!(t.zone_at(2 * minute + 1), SignalZone::Poor);
    }

    #[test]
    fn steps_are_sorted_and_zero_anchored() {
        let t = MobilityTrace::from_steps(vec![(50, -75.0), (10, -55.0)]);
        assert_eq!(t.rssi_at(0), SignalZone::Good.rssi_dbm());
        assert_eq!(t.rssi_at(10), -55.0);
        assert_eq!(t.rssi_at(49), -55.0);
        assert_eq!(t.rssi_at(50), -75.0);
    }

    #[test]
    fn add_step_keeps_order() {
        let mut t = MobilityTrace::stationary(-28.0);
        t.add_step(100, -75.0);
        t.add_step(50, -55.0);
        assert_eq!(t.rssi_at(60), -55.0);
        assert_eq!(t.rssi_at(100), -75.0);
        let trans: Vec<u64> = t.transition_times().collect();
        assert_eq!(trans, vec![50, 100]);
    }

    #[test]
    fn geowalk_same_seed_same_trace() {
        let mut a = GeoWalk::new(42, 1_000.0, 1.4);
        let mut b = GeoWalk::new(42, 1_000.0, 1.4);
        for t in (0..20).map(|i| i * 7_000_000) {
            assert_eq!(a.position_at(t), b.position_at(t));
        }
        let mut c = GeoWalk::new(43, 1_000.0, 1.4);
        let far = 600_000_000;
        assert_ne!(a.position_at(far), c.position_at(far), "seeds differ");
    }

    #[test]
    fn geowalk_stays_on_the_field_and_moves() {
        let mut w = GeoWalk::new(7, 500.0, 10.0);
        let (x0, y0) = w.position_at(0);
        let mut moved = false;
        for t in (1..200).map(|i| i * 1_000_000) {
            let (x, y) = w.position_at(t);
            assert!((0.0..=500.0).contains(&x), "x={x} off-field");
            assert!((0.0..=500.0).contains(&y), "y={y} off-field");
            if (x - x0).abs() > 1.0 || (y - y0).abs() > 1.0 {
                moved = true;
            }
        }
        assert!(moved, "walk never left its starting point");
    }

    #[test]
    fn geowalk_speed_bounds_displacement() {
        let mut w = GeoWalk::new(11, 10_000.0, 2.0);
        let (x0, y0) = w.position_at(0);
        let (x1, y1) = w.position_at(30_000_000); // 30 s at 2 m/s
        let dist = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        assert!(dist <= 60.0 + 1e-6, "moved {dist} m in 30 s at 2 m/s");
    }

    #[test]
    fn boundary_classification() {
        assert_eq!(SignalZone::from_rssi(-30.0), SignalZone::Good);
        assert_eq!(SignalZone::from_rssi(-62.0), SignalZone::Weak);
        assert_eq!(SignalZone::from_rssi(-80.0), SignalZone::Poor);
        assert_eq!(SignalZone::from_rssi(-90.0), SignalZone::OutOfRange);
    }
}
