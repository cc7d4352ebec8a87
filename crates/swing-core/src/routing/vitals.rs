//! The open worker-selection API: per-worker vitals and the
//! [`SelectionPolicy`] trait.
//!
//! The paper evaluates five closed-form policies (§VI-B), but defers the
//! energy question ("how to balance latency against device lifetime") to
//! future work. This module opens the selection step: the router hands a
//! policy a [`WorkerVitals`] snapshot per downstream — the same latency
//! estimate LRS weights by, plus battery level, drain rate and signal
//! strength — and the policy answers with a [`SelectionDecision`]. The
//! five paper policies are re-expressed as built-in implementations, and
//! three lifetime-aware policies join them:
//!
//! * [`EnergyWeightedLrs`] — LRS weights `1/L_i`, scaled down by the
//!   worker's projected lifetime so dying devices shed load gradually.
//! * [`CorrelatedSubset`] — Robot-Subset-Selection-style: among
//!   correlated sources covering the demand, prefer the ones with the
//!   healthiest batteries.
//! * [`CrowdioResched`] — CROWDio-style rescheduling: workers under a
//!   battery threshold are treated as *departing* and drained
//!   proactively, before the cliff turns their in-flight work into loss.

use crate::routing::policy::Metric;
use crate::routing::selection::select_workers;
use crate::UnitId;

/// Everything a [`SelectionPolicy`] may read about one downstream worker
/// at re-selection time.
///
/// `latency_us` is the router's delay estimate under
/// the policy's [`metric`](SelectionPolicy::metric) — exactly the figure
/// classic LRS inverts into a service rate. The energy and radio fields
/// default to a healthy mains-powered device (`battery_frac = 1`,
/// `drain_w = 0`, `rssi_dbm = 0` meaning *unreported*) until the runtime
/// feeds real vitals via `Router::note_vitals`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerVitals {
    /// Downstream function-unit instance.
    pub unit: UnitId,
    /// Delay estimate, microseconds (floored at 1 µs).
    pub latency_us: f64,
    /// Remaining battery charge, 0..=1. Mains-powered / unreported
    /// workers sit at 1.
    pub battery_frac: f64,
    /// Current total power draw, watts. 0 when unreported.
    pub drain_w: f64,
    /// Wi-Fi signal strength, dBm. 0 when unreported.
    pub rssi_dbm: f64,
}

impl WorkerVitals {
    /// Vitals for a healthy, unmeasured worker at the given delay.
    #[must_use]
    pub fn healthy(unit: UnitId, latency_us: f64) -> Self {
        WorkerVitals {
            unit,
            latency_us,
            battery_frac: 1.0,
            drain_w: 0.0,
            rssi_dbm: 0.0,
        }
    }

    /// Service rate `μ = 1/L`, tuples per second.
    #[must_use]
    pub fn rate_per_sec(&self) -> f64 {
        1_000_000.0 / self.latency_us.max(1.0)
    }

    /// Projected seconds until the battery empties at the current draw,
    /// assuming a phone-class pack ([`REFERENCE_CAPACITY_J`]).
    /// `f64::INFINITY` for full or non-draining workers.
    #[must_use]
    pub fn lifetime_s(&self) -> f64 {
        if self.drain_w <= 0.0 || self.battery_frac >= 1.0 {
            f64::INFINITY
        } else {
            self.battery_frac.max(0.0) * REFERENCE_CAPACITY_J / self.drain_w
        }
    }
}

/// Phone-class battery capacity assumed when projecting lifetimes from a
/// charge *fraction* (a Galaxy-Nexus-class 1750 mAh pack ≈ 23.3 kJ).
pub const REFERENCE_CAPACITY_J: f64 = 23_310.0;

/// Outcome of one re-selection round, installed verbatim into the
/// routing table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectionDecision {
    /// Raw (unnormalized) routing weights per unit. Units missing from
    /// the list route nothing.
    pub weights: Vec<(UnitId, f64)>,
    /// The active set. Units outside it receive only probe traffic.
    pub selected: Vec<UnitId>,
    /// Whether the selected set's summed service rate covers the demand.
    pub satisfied: bool,
}

impl SelectionDecision {
    /// Select every worker, weighted by its service rate.
    #[must_use]
    pub fn all_by_rate(vitals: &[WorkerVitals]) -> Self {
        let weights: Vec<(UnitId, f64)> =
            vitals.iter().map(|v| (v.unit, v.rate_per_sec())).collect();
        let selected = vitals.iter().map(|v| v.unit).collect();
        SelectionDecision {
            weights,
            selected,
            satisfied: true,
        }
    }
}

/// A pluggable worker-selection policy.
///
/// Implementations receive the full vitals snapshot each control period
/// and decide which downstreams stay active and with what weights. The
/// contract mirrors the paper's two-step algorithm: *Worker Selection*
/// (the `selected` set) and *Data Routing* (the `weights`).
///
/// Rules of engagement:
///
/// * `select` must be **deterministic**: the same `(vitals, lambda)`
///   snapshot must produce the same decision, or seeded replays diverge.
/// * `lambda` arrives pre-multiplied by the router's configured headroom.
/// * Returning units absent from `vitals` is harmless (the routing table
///   ignores them); returning an empty decision re-selects everything at
///   equal weight.
/// * Policies are owned by a single router; `&mut self` may cache state
///   across rounds (hysteresis, EWMA of vitals, ...).
pub trait SelectionPolicy: Send + Sync + std::fmt::Debug {
    /// Decide the active set and routing weights for one control period.
    fn select(&mut self, vitals: &[WorkerVitals], lambda: f64) -> SelectionDecision;

    /// Which delay estimate fills [`WorkerVitals::latency_us`].
    fn metric(&self) -> Metric {
        Metric::Latency
    }

    /// `true` for pure round-robin policies: the router bypasses
    /// `select` entirely and deals tuples in turn.
    fn round_robin(&self) -> bool {
        false
    }

    /// Display name used in figures and telemetry labels.
    fn name(&self) -> &'static str;
}

/// Round-robin (the paper's `RR` baseline): every downstream in turn.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl SelectionPolicy for RoundRobin {
    fn select(&mut self, vitals: &[WorkerVitals], _lambda: f64) -> SelectionDecision {
        let selected: Vec<UnitId> = vitals.iter().map(|v| v.unit).collect();
        let weights = selected.iter().map(|&u| (u, 1.0)).collect();
        SelectionDecision {
            weights,
            selected,
            satisfied: true,
        }
    }

    fn round_robin(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "RR"
    }
}

/// Delay-proportional routing without selection (the paper's `PR`/`LR`):
/// every worker active, weights `1/delay` under the chosen metric.
#[derive(Debug, Clone, Copy)]
pub struct DelayRatio {
    metric: Metric,
}

impl DelayRatio {
    /// `LR` (latency metric) or `PR` (processing metric).
    #[must_use]
    pub fn new(metric: Metric) -> Self {
        DelayRatio { metric }
    }
}

impl SelectionPolicy for DelayRatio {
    fn select(&mut self, vitals: &[WorkerVitals], _lambda: f64) -> SelectionDecision {
        SelectionDecision::all_by_rate(vitals)
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn name(&self) -> &'static str {
        match self.metric {
            Metric::Latency => "LR",
            Metric::Processing => "PR",
        }
    }
}

/// Delay-proportional routing *with* Worker Selection (the paper's
/// `PRS`/`LRS`): the minimum prefix of fastest workers covering `Λ`.
#[derive(Debug, Clone, Copy)]
pub struct DelaySelection {
    metric: Metric,
}

impl DelaySelection {
    /// `LRS` (latency metric) or `PRS` (processing metric).
    #[must_use]
    pub fn new(metric: Metric) -> Self {
        DelaySelection { metric }
    }
}

impl SelectionPolicy for DelaySelection {
    fn select(&mut self, vitals: &[WorkerVitals], lambda: f64) -> SelectionDecision {
        let rates: Vec<(UnitId, f64)> = vitals.iter().map(|v| (v.unit, v.rate_per_sec())).collect();
        let sel = select_workers(&rates, lambda);
        let weights = rates
            .iter()
            .filter(|(u, _)| sel.selected.contains(u))
            .copied()
            .collect();
        SelectionDecision {
            weights,
            selected: sel.selected,
            satisfied: sel.satisfied,
        }
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn name(&self) -> &'static str {
        match self.metric {
            Metric::Latency => "LRS",
            Metric::Processing => "PRS",
        }
    }
}

/// Lifetime horizon (seconds) below which [`EnergyWeightedLrs`] starts
/// discounting a worker: half an hour of projected runtime counts as
/// "healthy enough", matching the paper's ~2 h full-battery estimate
/// with margin for the swarm to re-form.
pub const LIFETIME_HORIZON_S: f64 = 1_800.0;

/// Energy-weighted LRS: classic `1/L_i` weights scaled by projected
/// lifetime, so a fast-but-dying worker sheds load *gradually* instead
/// of dragging the swarm over its battery cliff.
///
/// The lifetime factor is `min(1, lifetime_s / LIFETIME_HORIZON_S)`;
/// workers with full or infinite batteries keep factor 1, which makes
/// this policy degenerate to exact LRS on a mains-powered swarm.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyWeightedLrs;

impl EnergyWeightedLrs {
    /// The lifetime discount applied to a worker's service rate.
    #[must_use]
    pub fn lifetime_factor(v: &WorkerVitals) -> f64 {
        let life = v.lifetime_s();
        if life.is_infinite() {
            1.0
        } else {
            (life / LIFETIME_HORIZON_S).clamp(0.0, 1.0)
        }
    }
}

impl SelectionPolicy for EnergyWeightedLrs {
    fn select(&mut self, vitals: &[WorkerVitals], lambda: f64) -> SelectionDecision {
        let effective: Vec<(UnitId, f64)> = vitals
            .iter()
            .map(|v| (v.unit, v.rate_per_sec() * Self::lifetime_factor(v)))
            .collect();
        let sel = select_workers(&effective, lambda);
        let weights = effective
            .iter()
            .filter(|(u, _)| sel.selected.contains(u))
            .copied()
            .collect();
        SelectionDecision {
            weights,
            selected: sel.selected,
            satisfied: sel.satisfied,
        }
    }

    fn name(&self) -> &'static str {
        "ELRS"
    }
}

/// Correlated-source subset selection (Robot Subset Selection): when
/// sources are redundant, *which* subset covers the demand is a free
/// choice — spend it on battery health. Workers are ranked by remaining
/// charge first and speed second; the minimum prefix covering `Λ` is
/// selected and weighted by service rate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrelatedSubset;

impl SelectionPolicy for CorrelatedSubset {
    fn select(&mut self, vitals: &[WorkerVitals], lambda: f64) -> SelectionDecision {
        let mut ranked: Vec<&WorkerVitals> = vitals.iter().collect();
        // Healthiest battery first; speed breaks charge ties; id breaks
        // exact ties so the outcome is deterministic.
        ranked.sort_by(|a, b| {
            b.battery_frac
                .partial_cmp(&a.battery_frac)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.rate_per_sec()
                        .partial_cmp(&a.rate_per_sec())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.unit.cmp(&b.unit))
        });

        let mut selected = Vec::new();
        let mut weights = Vec::new();
        let mut sum = 0.0;
        let mut satisfied = false;
        for v in &ranked {
            selected.push(v.unit);
            weights.push((v.unit, v.rate_per_sec()));
            sum += v.rate_per_sec().max(0.0);
            if lambda <= 0.0 || sum >= lambda {
                satisfied = true;
                break;
            }
        }
        SelectionDecision {
            weights,
            selected,
            satisfied,
        }
    }

    fn name(&self) -> &'static str {
        "RSS"
    }
}

/// Battery fraction below which [`CrowdioResched`] treats a worker as
/// departing and starts draining its share of the load.
pub const CROWDIO_DYING_FRAC: f64 = 0.15;

/// CROWDio-style proactive rescheduling: run LRS over the *healthy*
/// workers, and admit dying ones (battery below
/// [`CROWDIO_DYING_FRAC`]) only when healthy capacity alone cannot cover
/// the demand — and then at a weight that shrinks with their remaining
/// charge, so their queues drain before the cliff empties them onto the
/// floor.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrowdioResched;

impl SelectionPolicy for CrowdioResched {
    fn select(&mut self, vitals: &[WorkerVitals], lambda: f64) -> SelectionDecision {
        let healthy: Vec<(UnitId, f64)> = vitals
            .iter()
            .filter(|v| v.battery_frac > CROWDIO_DYING_FRAC)
            .map(|v| (v.unit, v.rate_per_sec()))
            .collect();

        if !healthy.is_empty() {
            let sel = select_workers(&healthy, lambda);
            if sel.satisfied {
                let weights = healthy
                    .iter()
                    .filter(|(u, _)| sel.selected.contains(u))
                    .copied()
                    .collect();
                return SelectionDecision {
                    weights,
                    selected: sel.selected,
                    satisfied: true,
                };
            }
        }

        // Healthy capacity falls short: keep every healthy worker and
        // top up with dying ones, fastest first, de-weighted by their
        // remaining charge so traffic tapers off as they approach empty.
        let mut selected: Vec<UnitId> = healthy.iter().map(|&(u, _)| u).collect();
        let mut weights: Vec<(UnitId, f64)> = healthy.clone();
        let mut sum: f64 = healthy.iter().map(|&(_, r)| r.max(0.0)).sum();

        let mut dying: Vec<&WorkerVitals> = vitals
            .iter()
            .filter(|v| v.battery_frac <= CROWDIO_DYING_FRAC)
            .collect();
        dying.sort_by(|a, b| {
            b.rate_per_sec()
                .partial_cmp(&a.rate_per_sec())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.unit.cmp(&b.unit))
        });

        let mut satisfied = lambda > 0.0 && sum >= lambda;
        for v in &dying {
            if satisfied {
                break;
            }
            selected.push(v.unit);
            let taper = (v.battery_frac / CROWDIO_DYING_FRAC).clamp(0.0, 1.0);
            weights.push((v.unit, v.rate_per_sec() * taper));
            sum += v.rate_per_sec().max(0.0);
            satisfied = sum >= lambda;
        }
        SelectionDecision {
            weights,
            selected,
            satisfied,
        }
    }

    fn name(&self) -> &'static str {
        "CROWDIO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UnitId {
        UnitId(i)
    }

    fn v(i: u32, latency_us: f64, battery: f64, drain: f64) -> WorkerVitals {
        WorkerVitals {
            unit: u(i),
            latency_us,
            battery_frac: battery,
            drain_w: drain,
            rssi_dbm: -55.0,
        }
    }

    #[test]
    fn delay_selection_matches_select_workers() {
        let vitals = vec![
            v(1, 50_000.0, 1.0, 0.0),  // 20/s
            v(2, 50_000.0, 1.0, 0.0),  // 20/s
            v(3, 500_000.0, 1.0, 0.0), // 2/s
        ];
        let mut p = DelaySelection::new(Metric::Latency);
        let d = p.select(&vitals, 24.0);
        assert_eq!(d.selected, vec![u(1), u(2)]);
        assert!(d.satisfied);
        assert_eq!(d.weights.len(), 2);
    }

    #[test]
    fn energy_lrs_degenerates_on_full_batteries() {
        let vitals = vec![
            v(1, 40_000.0, 1.0, 3.0),
            v(2, 60_000.0, 1.0, 2.0),
            v(3, 300_000.0, 1.0, 1.0),
        ];
        let mut lrs = DelaySelection::new(Metric::Latency);
        let mut elrs = EnergyWeightedLrs;
        assert_eq!(lrs.select(&vitals, 30.0), elrs.select(&vitals, 30.0));
    }

    #[test]
    fn energy_lrs_discounts_a_dying_worker() {
        // Unit 1 is fastest but minutes from empty; with demand coverable
        // by the others, it must drop out of the selection.
        let vitals = vec![
            v(1, 40_000.0, 0.02, 4.0), // ~117 s left -> factor ~0.065
            v(2, 50_000.0, 0.9, 2.0),
            v(3, 55_000.0, 0.9, 2.0),
        ];
        let mut elrs = EnergyWeightedLrs;
        let d = elrs.select(&vitals, 30.0);
        assert!(!d.selected.contains(&u(1)), "dying unit stayed selected");
        assert!(d.satisfied);
    }

    #[test]
    fn lifetime_factor_clamps_to_one() {
        let healthy = v(1, 50_000.0, 1.0, 5.0);
        assert_eq!(EnergyWeightedLrs::lifetime_factor(&healthy), 1.0);
        let dying = v(2, 50_000.0, 0.01, 5.0);
        assert!(EnergyWeightedLrs::lifetime_factor(&dying) < 0.1);
    }

    #[test]
    fn correlated_subset_prefers_healthy_batteries() {
        // Both pairs cover the demand; RSS must pick the charged pair.
        let vitals = vec![
            v(1, 50_000.0, 0.2, 2.0),
            v(2, 50_000.0, 0.95, 2.0),
            v(3, 50_000.0, 0.9, 2.0),
            v(4, 50_000.0, 0.1, 2.0),
        ];
        let mut rss = CorrelatedSubset;
        let d = rss.select(&vitals, 30.0);
        assert_eq!(d.selected, vec![u(2), u(3)]);
        assert!(d.satisfied);
    }

    #[test]
    fn correlated_subset_selects_all_when_short() {
        let vitals = vec![v(1, 500_000.0, 0.5, 2.0), v(2, 500_000.0, 0.4, 2.0)];
        let mut rss = CorrelatedSubset;
        let d = rss.select(&vitals, 24.0);
        assert_eq!(d.selected.len(), 2);
        assert!(!d.satisfied);
    }

    #[test]
    fn crowdio_drops_dying_workers_when_capacity_allows() {
        let vitals = vec![
            v(1, 40_000.0, 0.05, 3.0), // dying and fast
            v(2, 50_000.0, 0.8, 2.0),
            v(3, 50_000.0, 0.8, 2.0),
        ];
        let mut c = CrowdioResched;
        let d = c.select(&vitals, 30.0);
        assert!(!d.selected.contains(&u(1)));
        assert!(d.satisfied);
    }

    #[test]
    fn crowdio_keeps_dying_workers_at_tapered_weight_when_short() {
        let vitals = vec![
            v(1, 40_000.0, 0.05, 3.0), // dying: 25/s raw
            v(2, 100_000.0, 0.8, 2.0), // healthy: 10/s
        ];
        let mut c = CrowdioResched;
        let d = c.select(&vitals, 30.0);
        assert!(
            d.selected.contains(&u(1)),
            "capacity requires the dying unit"
        );
        let w1 = d.weights.iter().find(|(x, _)| *x == u(1)).unwrap().1;
        let raw = 1_000_000.0 / 40_000.0;
        assert!(w1 < raw * 0.5, "dying weight should be tapered, got {w1}");
    }

    #[test]
    fn decisions_are_deterministic() {
        let vitals = vec![
            v(1, 40_000.0, 0.3, 3.0),
            v(2, 60_000.0, 0.9, 1.0),
            v(3, 80_000.0, 0.05, 2.0),
        ];
        for mut p in [
            Box::new(EnergyWeightedLrs) as Box<dyn SelectionPolicy>,
            Box::new(CorrelatedSubset),
            Box::new(CrowdioResched),
            Box::new(DelaySelection::new(Metric::Latency)),
        ] {
            let a = p.select(&vitals, 24.0);
            let b = p.select(&vitals, 24.0);
            assert_eq!(a, b, "{} not deterministic", p.name());
        }
    }

    #[test]
    fn round_robin_flags_itself() {
        let mut rr = RoundRobin;
        assert!(rr.round_robin());
        let d = rr.select(&[v(1, 50_000.0, 1.0, 0.0)], 10.0);
        assert_eq!(d.selected, vec![u(1)]);
    }

    #[test]
    fn healthy_vitals_report_infinite_lifetime() {
        let h = WorkerVitals::healthy(u(9), 80_000.0);
        assert_eq!(h.battery_frac, 1.0);
        assert!(h.lifetime_s().is_infinite());
        assert!((h.rate_per_sec() - 12.5).abs() < 1e-9);
    }
}
