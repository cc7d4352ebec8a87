//! Battery accounting.
//!
//! The paper motivates swarm offloading partly by energy: "the
//! camera-based face recognition app exhausts a fully charged phone
//! battery in about two hours, with 40% of the energy consumed by
//! computation" (§I). [`Battery`] integrates a power draw over time and
//! answers lifetime questions so experiments can reproduce that estimate.

/// A simple energy store drained by a power draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// A fully charged battery of the given capacity in joules.
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive.
    #[must_use]
    pub fn new(capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        Battery {
            capacity_j,
            remaining_j: capacity_j,
        }
    }

    /// A fully charged battery given a capacity in milliamp-hours at the
    /// nominal 3.7 V of the testbed devices.
    #[must_use]
    pub fn from_mah(mah: f64) -> Self {
        Battery::new(mah * 3.7 * 3.6)
    }

    /// Capacity in joules.
    #[must_use]
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining energy in joules.
    #[must_use]
    pub fn remaining_j(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining charge as a fraction of capacity (0..=1).
    #[must_use]
    pub fn level(&self) -> f64 {
        self.remaining_j / self.capacity_j
    }

    /// Whether the battery is fully drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Drain at `power_w` for `dt_s` seconds; returns the energy actually
    /// consumed (less than requested if the battery runs out).
    pub fn drain(&mut self, power_w: f64, dt_s: f64) -> f64 {
        let want = (power_w * dt_s).max(0.0);
        let got = want.min(self.remaining_j);
        self.remaining_j -= got;
        got
    }

    /// Seconds until empty at a constant draw, or `None` for a
    /// non-positive draw.
    #[must_use]
    pub fn time_to_empty_s(&self, power_w: f64) -> Option<f64> {
        if power_w > 0.0 {
            Some(self.remaining_j / power_w)
        } else {
            None
        }
    }

    /// Recharge to full.
    pub fn recharge(&mut self) {
        self.remaining_j = self.capacity_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_and_reports_level() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.level(), 1.0);
        let used = b.drain(2.0, 10.0);
        assert_eq!(used, 20.0);
        assert!((b.level() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cannot_go_negative() {
        let mut b = Battery::new(10.0);
        let used = b.drain(100.0, 1.0);
        assert_eq!(used, 10.0);
        assert!(b.is_empty());
        assert_eq!(b.drain(1.0, 1.0), 0.0);
    }

    #[test]
    fn recharge_restores_capacity() {
        let mut b = Battery::new(50.0);
        b.drain(10.0, 4.0);
        b.recharge();
        assert_eq!(b.remaining_j(), 50.0);
    }

    #[test]
    fn time_to_empty() {
        let b = Battery::new(3_600.0);
        assert_eq!(b.time_to_empty_s(1.0), Some(3_600.0));
        assert_eq!(b.time_to_empty_s(0.0), None);
    }

    #[test]
    fn paper_two_hour_exhaustion_estimate_holds() {
        // §I: continuous face recognition empties a phone in ~2 h.
        // A Galaxy Nexus class battery (1750 mAh ≈ 23.3 kJ) under a
        // sustained camera+compute+screen draw of ~3.2 W lasts ~2 h.
        let b = Battery::from_mah(1_750.0);
        let hours = b.time_to_empty_s(3.2).unwrap() / 3_600.0;
        assert!((1.7..2.4).contains(&hours), "lifetime {hours} h");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Battery::new(0.0);
    }
}
