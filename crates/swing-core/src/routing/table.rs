//! The weighted routing table kept by every upstream function unit.
//!
//! "Each upstream thread maintains a routing table with downstream
//! threads' IDs and their weights, so that data tuples could be routed
//! accordingly" (paper §IV-C). Routing is probabilistic: "Upon arrival of
//! a data tuple, the upstream generates a weighted random number and sends
//! the tuple to the specified downstream ID" (§V-A).

use crate::error::{Error, Result};
use crate::rng::DetRng;
use crate::UnitId;

/// One row of the routing table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// Downstream function-unit instance.
    pub unit: UnitId,
    /// Normalized routing weight `p_i` (0 for unselected units).
    pub weight: f64,
    /// Whether Worker Selection kept this unit in the active set.
    pub selected: bool,
}

/// Routing table: downstream ids, normalized weights, selection flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTable {
    entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Add a downstream with equal-share weight; no-op if present.
    /// Newly added units start selected so they receive traffic until the
    /// next rebalancing round decides otherwise.
    pub fn add(&mut self, unit: UnitId) {
        if self.contains(unit) {
            return;
        }
        self.entries.push(RouteEntry {
            unit,
            weight: 0.0,
            selected: true,
        });
        self.equalize();
    }

    /// Remove a downstream (device left / link broken). Remaining weights
    /// are re-normalized, mirroring the paper's routing-table repair on
    /// disconnection. Returns whether the unit was present.
    pub fn remove(&mut self, unit: UnitId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.unit != unit);
        let removed = self.entries.len() != before;
        if removed {
            self.renormalize();
        }
        removed
    }

    /// Whether a downstream is present.
    #[must_use]
    pub fn contains(&self, unit: UnitId) -> bool {
        self.entries.iter().any(|e| e.unit == unit)
    }

    /// Number of downstreams (selected or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[RouteEntry] {
        &self.entries
    }

    /// All downstream ids in insertion order.
    pub fn units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.entries.iter().map(|e| e.unit)
    }

    /// Ids of currently selected downstreams.
    pub fn selected_units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.entries.iter().filter(|e| e.selected).map(|e| e.unit)
    }

    /// Number of selected downstreams.
    #[must_use]
    pub fn selected_len(&self) -> usize {
        self.entries.iter().filter(|e| e.selected).count()
    }

    /// Install new weights from `(unit, raw_weight)` pairs and a selection
    /// set. Units absent from `weights` keep weight 0; units absent from
    /// `selected` are deselected. Weights are normalized over the selected
    /// set (`p_i = w_i / Σ_selected w_j`).
    pub fn install(&mut self, weights: &[(UnitId, f64)], selected: &[UnitId]) {
        for e in &mut self.entries {
            e.selected = selected.contains(&e.unit);
            e.weight = weights
                .iter()
                .find(|(u, _)| *u == e.unit)
                .map(|(_, w)| w.max(0.0))
                .unwrap_or(0.0);
            if !e.selected {
                e.weight = 0.0;
            }
        }
        self.renormalize();
    }

    /// Give every present unit an equal weight and select all.
    pub fn equalize(&mut self) {
        let n = self.entries.len();
        if n == 0 {
            return;
        }
        let w = 1.0 / n as f64;
        for e in &mut self.entries {
            e.weight = w;
            e.selected = true;
        }
    }

    fn renormalize(&mut self) {
        let total: f64 = self
            .entries
            .iter()
            .filter(|e| e.selected)
            .map(|e| e.weight)
            .sum();
        if total > 0.0 {
            for e in &mut self.entries {
                if e.selected {
                    e.weight /= total;
                } else {
                    e.weight = 0.0;
                }
            }
        } else {
            // Degenerate weights: fall back to equal shares over the
            // selected set (or everything if nothing is selected).
            let any_selected = self.entries.iter().any(|e| e.selected);
            let n = if any_selected {
                self.entries.iter().filter(|e| e.selected).count()
            } else {
                self.entries.len()
            };
            if n == 0 {
                return;
            }
            let w = 1.0 / n as f64;
            for e in &mut self.entries {
                if !any_selected {
                    e.selected = true;
                }
                e.weight = if e.selected { w } else { 0.0 };
            }
        }
    }

    /// Draw a destination with probability proportional to its weight
    /// ("the upstream generates a weighted random number").
    pub fn sample(&self, rng: &mut DetRng) -> Result<UnitId> {
        if self.entries.is_empty() {
            return Err(Error::NoDownstreams);
        }
        let total: f64 = self
            .entries
            .iter()
            .filter(|e| e.selected)
            .map(|e| e.weight)
            .sum();
        if total <= 0.0 {
            // No usable weights: uniform over all units.
            let idx = rng.random_range(0..self.entries.len());
            return Ok(self.entries[idx].unit);
        }
        let mut x = rng.random_range(0.0..total);
        for e in &self.entries {
            if !e.selected {
                continue;
            }
            if x < e.weight {
                return Ok(e.unit);
            }
            x -= e.weight;
        }
        // Floating-point tail: return the last selected unit.
        Ok(self
            .entries
            .iter()
            .rev()
            .find(|e| e.selected)
            .expect("total > 0 implies a selected entry")
            .unit)
    }

    /// The weight currently assigned to `unit` (0 if absent).
    #[must_use]
    pub fn weight_of(&self, unit: UnitId) -> f64 {
        self.entries
            .iter()
            .find(|e| e.unit == unit)
            .map(|e| e.weight)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn u(i: u32) -> UnitId {
        UnitId(i)
    }

    #[test]
    fn add_equalizes_weights() {
        let mut t = RoutingTable::new();
        t.add(u(1));
        t.add(u(2));
        t.add(u(2)); // duplicate ignored
        assert_eq!(t.len(), 2);
        assert!((t.weight_of(u(1)) - 0.5).abs() < 1e-12);
        assert!((t.weight_of(u(2)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn install_normalizes_over_selected() {
        let mut t = RoutingTable::new();
        for i in 1..=3 {
            t.add(u(i));
        }
        t.install(&[(u(1), 2.0), (u(2), 2.0), (u(3), 6.0)], &[u(1), u(3)]);
        assert!((t.weight_of(u(1)) - 0.25).abs() < 1e-12);
        assert_eq!(t.weight_of(u(2)), 0.0);
        assert!((t.weight_of(u(3)) - 0.75).abs() < 1e-12);
        assert_eq!(t.selected_len(), 2);
    }

    #[test]
    fn remove_renormalizes() {
        let mut t = RoutingTable::new();
        for i in 1..=3 {
            t.add(u(i));
        }
        t.install(
            &[(u(1), 1.0), (u(2), 1.0), (u(3), 2.0)],
            &[u(1), u(2), u(3)],
        );
        assert!(t.remove(u(3)));
        assert!(!t.remove(u(3)));
        let total: f64 = t.entries().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((t.weight_of(u(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_respects_weights() {
        let mut t = RoutingTable::new();
        t.add(u(1));
        t.add(u(2));
        t.install(&[(u(1), 9.0), (u(2), 1.0)], &[u(1), u(2)]);
        let mut rng = DetRng::seed_from_u64(7);
        let mut count1 = 0;
        for _ in 0..10_000 {
            if t.sample(&mut rng).unwrap() == u(1) {
                count1 += 1;
            }
        }
        // Expect ~9000; allow generous tolerance.
        assert!((8_700..9_300).contains(&count1), "count1 = {count1}");
    }

    #[test]
    fn sample_never_picks_unselected() {
        let mut t = RoutingTable::new();
        for i in 1..=4 {
            t.add(u(i));
        }
        t.install(&[(u(2), 1.0), (u(4), 3.0)], &[u(2), u(4)]);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let d = t.sample(&mut rng).unwrap();
            assert!(d == u(2) || d == u(4));
        }
    }

    #[test]
    fn sample_empty_table_errors() {
        let t = RoutingTable::new();
        let mut rng = DetRng::seed_from_u64(0);
        assert_eq!(t.sample(&mut rng).unwrap_err(), Error::NoDownstreams);
    }

    #[test]
    fn degenerate_weights_fall_back_to_uniform() {
        let mut t = RoutingTable::new();
        t.add(u(1));
        t.add(u(2));
        // All-zero raw weights over the selected set.
        t.install(&[(u(1), 0.0), (u(2), 0.0)], &[u(1), u(2)]);
        let total: f64 = t.entries().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mut rng = DetRng::seed_from_u64(1);
        t.sample(&mut rng).unwrap();
    }

    #[test]
    fn empty_selection_reselects_everything() {
        let mut t = RoutingTable::new();
        t.add(u(1));
        t.add(u(2));
        t.install(&[], &[]);
        assert_eq!(t.selected_len(), 2);
        let total: f64 = t.entries().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_always_sum_to_one_after_install() {
        let mut t = RoutingTable::new();
        for i in 0..5 {
            t.add(u(i));
        }
        t.install(
            &[(u(0), 0.3), (u(1), 12.0), (u(2), 7.5), (u(3), 0.001)],
            &[u(0), u(1), u(2), u(3)],
        );
        let total: f64 = t.entries().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(t.weight_of(u(4)), 0.0);
    }
}
