//! The per-upstream routing engine implementing LRS and its baselines.

use crate::config::RouterConfig;
use crate::error::{Error, Result};
use crate::estimator::LatencyEstimator;
use crate::rng::DetRng;
use crate::routing::partition::rendezvous_owner;
use crate::routing::policy::{Metric, Policy};
use crate::routing::table::RoutingTable;
use crate::routing::vitals::{SelectionPolicy, WorkerVitals};
use crate::stats::RateEstimator;
use crate::{SeqNo, UnitId};
use std::collections::BTreeMap;

/// Energy/radio vitals reported for one downstream, kept between
/// control periods. Defaults model a healthy mains-powered worker.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VitalsNote {
    battery_frac: f64,
    drain_w: f64,
    rssi_dbm: f64,
}

impl Default for VitalsNote {
    fn default() -> Self {
        VitalsNote {
            battery_frac: 1.0,
            drain_w: 0.0,
            rssi_dbm: 0.0,
        }
    }
}

/// Diagnostic view of one routing-table row plus its latency statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteView {
    /// Downstream instance.
    pub unit: UnitId,
    /// Normalized routing weight `p_i`.
    pub weight: f64,
    /// Whether Worker Selection kept the unit active.
    pub selected: bool,
    /// Last reported battery level, 0..=1 (1 when unreported).
    pub battery_frac: f64,
    /// Last reported power draw, watts (0 when unreported).
    pub drain_w: f64,
    /// Last reported Wi-Fi signal strength, dBm (0 when unreported).
    pub rssi_dbm: f64,
    /// Mean end-to-end latency estimate, milliseconds.
    pub latency_ms: f64,
    /// Mean processing delay estimate, milliseconds.
    pub processing_ms: f64,
    /// Tuples sent / acked / lost so far.
    pub sent: u64,
    /// ACKs received.
    pub acked: u64,
    /// Tuples written off as lost.
    pub lost: u64,
}

/// Snapshot of a router's state after a rebalancing round.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSnapshot {
    /// Rebalancing rounds completed.
    pub round: u64,
    /// Measured incoming tuple rate Λ (tuples/s).
    pub lambda: f64,
    /// Whether the router is currently probing in round-robin mode.
    pub probing: bool,
    /// Per-downstream rows, in table order.
    pub routes: Vec<RouteView>,
}

/// The routing engine run by each upstream function unit.
///
/// Drives the paper's two-step LRS algorithm (worker selection +
/// latency-based probabilistic routing) and the four baseline policies,
/// using [`LatencyEstimator`] for ACK-driven measurements and
/// [`RateEstimator`] for the input rate Λ. All methods take explicit
/// timestamps; the router never reads a clock.
///
/// Typical integration:
///
/// ```
/// use swing_core::routing::{Policy, Router, RouterConfig};
/// use swing_core::{SeqNo, UnitId};
///
/// let mut r = Router::new(RouterConfig::new(Policy::Lrs), 1);
/// r.add_downstream(UnitId(1), 0);
/// r.add_downstream(UnitId(2), 0);
///
/// // For each incoming tuple: pick a destination, dispatch, record.
/// let dest = r.route(10_000).unwrap();
/// r.on_send(SeqNo(0), dest, 10_000);
/// // ... transport delivers, downstream processes and ACKs ...
/// r.on_ack(SeqNo(0), 90_000, 60_000);
/// ```
#[derive(Debug)]
pub struct Router {
    config: RouterConfig,
    /// The selection policy actually consulted each control period —
    /// resolved from `config.policy`, or installed directly via
    /// [`set_selection_policy`](Self::set_selection_policy).
    policy_impl: Box<dyn SelectionPolicy>,
    table: RoutingTable,
    estimator: LatencyEstimator,
    arrivals: RateEstimator,
    rng: DetRng,
    rr_cursor: usize,
    /// Cursor for `Rebalance`-edge round-robin, separate from
    /// `rr_cursor` so probing never perturbs keyed-graph dispatch.
    rebalance_cursor: usize,
    round: u64,
    probe_remaining: u32,
    last_rebalance_us: Option<u64>,
    demand_hint: Option<f64>,
    /// Latest reported energy/radio vitals per downstream.
    vitals: BTreeMap<UnitId, VitalsNote>,
    /// Tuples dispatched via [`route`](Self::route).
    dispatched: u64,
    /// Arrivals recorded (explicitly or by `route`'s fallback).
    arrivals_noted: u64,
}

impl Router {
    /// Create a router with the given configuration and RNG seed.
    ///
    /// The seed makes probabilistic routing reproducible; give each
    /// upstream a distinct seed in multi-router deployments.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`RouterConfig::validate`]).
    #[must_use]
    pub fn new(config: RouterConfig, seed: u64) -> Self {
        config.validate().expect("invalid router configuration");
        let mut estimator = LatencyEstimator::new(
            config.latency_window,
            config.initial_latency_us,
            config.loss_timeout_us,
        );
        estimator.set_pending_age_floor(config.pending_age_floor);
        estimator.set_sample_max_age(config.sample_max_age_us);
        Router {
            arrivals: RateEstimator::new(config.control_period_us),
            estimator,
            table: RoutingTable::new(),
            rng: DetRng::seed_from_u64(seed),
            rr_cursor: 0,
            rebalance_cursor: 0,
            round: 0,
            probe_remaining: 0,
            last_rebalance_us: None,
            demand_hint: None,
            vitals: BTreeMap::new(),
            dispatched: 0,
            arrivals_noted: 0,
            policy_impl: config.policy.resolve(),
            config,
        }
    }

    /// The configured policy name this router was built with. When a
    /// custom implementation was installed via
    /// [`set_selection_policy`](Self::set_selection_policy), this still
    /// reports the original config name — use
    /// [`policy_name`](Self::policy_name) for the live label.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// Display name of the selection policy actually in force.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy_impl.name()
    }

    /// Replace the selection policy with a custom implementation — the
    /// open end of the API. Takes effect at the next rebalancing round;
    /// the routing table keeps its current weights until then.
    pub fn set_selection_policy(&mut self, policy: Box<dyn SelectionPolicy>) {
        self.policy_impl = policy;
    }

    /// The router's configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Declare a demand floor (tuples/s), e.g. the app's declared input
    /// rate. Worker selection covers `max(measured Λ, hint)`.
    pub fn set_demand_hint(&mut self, tuples_per_sec: Option<f64>) {
        self.demand_hint = tuples_per_sec;
    }

    /// Register a new downstream (device joined). It starts with an
    /// equal-share weight so it receives traffic immediately — the paper
    /// activates new devices "instantly" and rebalances within a round.
    pub fn add_downstream(&mut self, unit: UnitId, _now_us: u64) {
        self.table.add(unit);
        self.estimator.add_unit(unit);
    }

    /// Remove a downstream (device left / link broken). "The affected
    /// upstream units automatically remove the corresponding downstream
    /// from the routing tables and re-route data to other units" (§IV-C).
    ///
    /// Returns the sequence numbers of in-flight tuples addressed to the
    /// removed unit; the caller decides whether to re-send or count them
    /// as lost (the paper's prototype loses them: "13 frames are lost").
    pub fn remove_downstream(&mut self, unit: UnitId) -> Vec<SeqNo> {
        self.table.remove(unit);
        self.vitals.remove(&unit);
        self.estimator.remove_unit(unit)
    }

    /// Downstream ids currently in the routing table.
    pub fn downstreams(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.table.units()
    }

    /// Number of downstreams.
    #[must_use]
    pub fn downstream_len(&self) -> usize {
        self.table.len()
    }

    /// Whether the given downstream is currently selected.
    #[must_use]
    pub fn is_selected(&self, unit: UnitId) -> bool {
        self.table.selected_units().any(|u| u == unit)
    }

    /// Report a downstream's energy/radio vitals: remaining battery
    /// fraction (clamped to `[0, 1]`), current power draw in watts and
    /// Wi-Fi RSSI in dBm. The next rebalance hands them to the
    /// [`SelectionPolicy`] as part of its [`WorkerVitals`] snapshot;
    /// latency-only policies simply ignore them. NaN fields are ignored
    /// (the previous report is kept).
    pub fn note_vitals(&mut self, unit: UnitId, battery_frac: f64, drain_w: f64, rssi_dbm: f64) {
        let note = self.vitals.entry(unit).or_default();
        if !battery_frac.is_nan() {
            note.battery_frac = battery_frac.clamp(0.0, 1.0);
        }
        if !drain_w.is_nan() {
            note.drain_w = drain_w.max(0.0);
        }
        if !rssi_dbm.is_nan() {
            note.rssi_dbm = rssi_dbm;
        }
    }

    /// Record that a tuple arrived at this upstream unit.
    ///
    /// Feeds the input-rate estimate `Λ` that Worker Selection covers.
    /// Call this when the tuple *enters* the unit (is sensed or received
    /// from upstream), not when it is dispatched — dispatch may be
    /// throttled by a congested network, and selection must still target
    /// the true offered load.
    pub fn note_arrival(&mut self, now_us: u64) {
        self.arrivals_noted += 1;
        self.arrivals.record(now_us);
    }

    /// Pick the destination for the next tuple to dispatch.
    ///
    /// Runs a rebalancing round if the control period has elapsed, then
    /// routes: round-robin while probing or under the RR policy,
    /// weighted-random otherwise. Callers should have fed the offered
    /// load via [`note_arrival`](Self::note_arrival); as a convenience
    /// for simple single-stage callers, `route` also counts one arrival
    /// when none has been recorded for this tuple yet — detected by the
    /// arrival counter lagging the dispatch counter.
    pub fn route(&mut self, now_us: u64) -> Result<UnitId> {
        if self.table.is_empty() {
            return Err(Error::NoDownstreams);
        }
        self.note_dispatch(now_us);

        let round_robin = self.policy_impl.round_robin() || self.probe_remaining > 0;
        if round_robin {
            if self.probe_remaining > 0 {
                self.probe_remaining -= 1;
            }
            let units: Vec<UnitId> = self.table.units().collect();
            let dest = units[self.rr_cursor % units.len()];
            self.rr_cursor = (self.rr_cursor + 1) % units.len();
            Ok(dest)
        } else {
            self.table.sample(&mut self.rng)
        }
    }

    /// Pick the destination for a tuple on a
    /// [`KeyBy`](crate::graph::EdgeKind::KeyBy) edge: the live
    /// downstream that owns `key_hash` under rendezvous hashing (see
    /// [`partition`](crate::routing::partition)).
    ///
    /// Shares [`route`](Self::route)'s arrival and rebalance
    /// bookkeeping so Λ estimates and snapshots stay meaningful, but
    /// draws nothing from the RNG and ignores Worker Selection: key
    /// affinity — not latency — decides the destination, and *every*
    /// live instance (selected or not) owns its share of keys.
    pub fn route_key(&mut self, key_hash: u64, now_us: u64) -> Result<UnitId> {
        if self.table.is_empty() {
            return Err(Error::NoDownstreams);
        }
        self.note_dispatch(now_us);
        rendezvous_owner(key_hash, self.table.units()).ok_or(Error::NoDownstreams)
    }

    /// Pick the destination for a tuple on a
    /// [`Rebalance`](crate::graph::EdgeKind::Rebalance) edge:
    /// deterministic round-robin over all live downstreams, with a
    /// cursor independent from LRS probing so replays are byte-stable.
    pub fn route_rebalance(&mut self, now_us: u64) -> Result<UnitId> {
        if self.table.is_empty() {
            return Err(Error::NoDownstreams);
        }
        self.note_dispatch(now_us);
        let units: Vec<UnitId> = self.table.units().collect();
        let dest = units[self.rebalance_cursor % units.len()];
        self.rebalance_cursor = (self.rebalance_cursor + 1) % units.len();
        Ok(dest)
    }

    /// Dispatch-side bookkeeping shared by every `route*` flavour:
    /// count the dispatch, backfill a missing arrival sample, and run a
    /// rebalancing round when the control period has elapsed.
    fn note_dispatch(&mut self, now_us: u64) {
        self.dispatched += 1;
        if self.arrivals_noted < self.dispatched {
            self.arrivals_noted = self.dispatched;
            self.arrivals.record(now_us);
        }
        self.maybe_rebalance(now_us);
    }

    /// Record that `seq` was dispatched to `unit` at `now_us`.
    pub fn on_send(&mut self, seq: SeqNo, unit: UnitId, now_us: u64) {
        self.estimator.on_send(seq, unit, now_us);
    }

    /// Process a downstream ACK. Returns the latency sample (µs) if the
    /// tuple was known.
    pub fn on_ack(&mut self, seq: SeqNo, now_us: u64, processing_us: u64) -> Option<u64> {
        self.estimator.on_ack(seq, now_us, processing_us)
    }

    /// Current end-to-end latency estimate `L_i` for a downstream, in
    /// microseconds — the same figure LRS weights by, including the
    /// pending-age floor. `None` if the unit is not tracked. The
    /// runtime's retransmission layer derives ACK deadlines from this.
    #[must_use]
    pub fn latency_estimate_us(&mut self, unit: UnitId, now_us: u64) -> Option<f64> {
        self.estimator.view(unit, now_us).map(|v| v.latency_us)
    }

    /// Whether the router is currently probing (round-robin) to refresh
    /// latency estimates of unselected downstreams.
    #[must_use]
    pub fn probing(&self) -> bool {
        self.probe_remaining > 0
    }

    /// Rebalancing rounds completed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.round
    }

    fn maybe_rebalance(&mut self, now_us: u64) {
        match self.last_rebalance_us {
            None => {
                // First tuple: anchor the control period without stats.
                self.last_rebalance_us = Some(now_us);
            }
            Some(last) if now_us.saturating_sub(last) >= self.config.control_period_us => {
                self.rebalance(now_us);
                self.last_rebalance_us = Some(now_us);
            }
            _ => {}
        }
    }

    /// Run one rebalancing round immediately (normally triggered by
    /// [`route`](Self::route) once per control period).
    pub fn rebalance(&mut self, now_us: u64) {
        self.round += 1;
        let lost = self.estimator.prune_lost(now_us);
        let _ = lost;

        let measured = self.arrivals.rate_per_sec(now_us);
        let lambda = match self.demand_hint {
            Some(hint) => measured.max(hint),
            None => measured,
        };

        if self.policy_impl.round_robin() {
            self.table.equalize();
            return;
        }

        let metric = self.policy_impl.metric();

        // Gather vitals for every downstream in the table. Energy
        // fields come from the latest `note_vitals` report; unreported
        // workers count as healthy.
        let vitals: Vec<WorkerVitals> = self
            .table
            .units()
            .filter_map(|u| self.estimator.view(u, now_us))
            .map(|v| {
                let d = match metric {
                    Metric::Latency => v.latency_us,
                    Metric::Processing => v.processing_us,
                };
                let note = self.vitals.get(&v.unit).copied().unwrap_or_default();
                WorkerVitals {
                    unit: v.unit,
                    latency_us: d.max(1.0),
                    battery_frac: note.battery_frac,
                    drain_w: note.drain_w,
                    rssi_dbm: note.rssi_dbm,
                }
            })
            .collect();
        if vitals.is_empty() {
            return;
        }

        let decision = self
            .policy_impl
            .select(&vitals, lambda * self.config.headroom);
        self.table.install(&decision.weights, &decision.selected);

        // Periodic probing keeps estimates of unselected units fresh
        // (§V-B). Only needed when selection starved some units.
        if self
            .round
            .is_multiple_of(u64::from(self.config.probe_every_rounds))
            && self.table.selected_len() < self.table.len()
        {
            self.probe_remaining = self.config.probe_tuples_per_unit * self.table.len() as u32;
        }
    }

    /// Diagnostic snapshot of the router state.
    #[must_use]
    pub fn snapshot(&mut self, now_us: u64) -> RouterSnapshot {
        let lambda = self.arrivals.rate_per_sec(now_us);
        let routes = self
            .table
            .entries()
            .iter()
            .map(|e| {
                let v = self.estimator.view(e.unit, now_us);
                let (latency_ms, processing_ms, sent, acked, lost) = match v {
                    Some(v) => (
                        v.latency_us / 1_000.0,
                        v.processing_us / 1_000.0,
                        v.sent,
                        v.acked,
                        v.lost,
                    ),
                    None => (0.0, 0.0, 0, 0, 0),
                };
                let note = self.vitals.get(&e.unit).copied().unwrap_or_default();
                RouteView {
                    unit: e.unit,
                    weight: e.weight,
                    selected: e.selected,
                    battery_frac: note.battery_frac,
                    drain_w: note.drain_w,
                    rssi_dbm: note.rssi_dbm,
                    latency_ms,
                    processing_ms,
                    sent,
                    acked,
                    lost,
                }
            })
            .collect();
        RouterSnapshot {
            round: self.round,
            lambda,
            probing: self.probe_remaining > 0,
            routes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SECOND_US;

    fn u(i: u32) -> UnitId {
        UnitId(i)
    }

    /// Drive `router` with `n` tuples at `rate` FPS starting at `start`,
    /// acking each tuple with the given per-unit latency function.
    fn drive(
        router: &mut Router,
        n: u64,
        rate: f64,
        start: u64,
        latency_us: impl Fn(UnitId) -> u64,
    ) -> std::collections::BTreeMap<UnitId, u64> {
        let mut counts = std::collections::BTreeMap::new();
        let gap = (1_000_000.0 / rate) as u64;
        for i in 0..n {
            let now = start + i * gap;
            let dest = router.route(now).unwrap();
            *counts.entry(dest).or_insert(0) += 1;
            router.on_send(SeqNo(i), dest, now);
            let lat = latency_us(dest);
            router.on_ack(SeqNo(i), now + lat, lat / 2);
        }
        counts
    }

    #[test]
    fn empty_router_errors() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 0);
        assert_eq!(r.route(0).unwrap_err(), Error::NoDownstreams);
    }

    #[test]
    fn rr_cycles_evenly() {
        let mut r = Router::new(RouterConfig::new(Policy::Rr), 0);
        for i in 1..=3 {
            r.add_downstream(u(i), 0);
        }
        let counts = drive(&mut r, 300, 24.0, 0, |_| 10_000);
        for i in 1..=3 {
            assert_eq!(counts[&u(i)], 100);
        }
    }

    #[test]
    fn lr_weights_follow_inverse_latency() {
        let mut r = Router::new(RouterConfig::new(Policy::Lr), 1);
        r.add_downstream(u(1), 0);
        r.add_downstream(u(2), 0);
        // Unit 1 is 4x faster than unit 2.
        let counts = drive(&mut r, 4_000, 100.0, 0, |d| {
            if d == u(1) {
                25_000
            } else {
                100_000
            }
        });
        let c1 = counts[&u(1)] as f64;
        let c2 = counts[&u(2)] as f64;
        let ratio = c1 / c2;
        assert!(
            ratio > 2.5 && ratio < 6.0,
            "expected ~4x more tuples to the fast unit, ratio={ratio}"
        );
    }

    #[test]
    fn lrs_selects_minimum_fast_set() {
        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.probe_every_rounds = 1_000; // keep probes out of this test
        let mut r = Router::new(cfg, 2);
        // Fast pair covers 24 FPS on its own: 20 + 20 > 24.
        r.add_downstream(u(1), 0); // 50 ms  -> 20/s
        r.add_downstream(u(2), 0); // 50 ms  -> 20/s
        r.add_downstream(u(3), 0); // 500 ms -> 2/s (straggler)
        let counts = drive(&mut r, 240, 24.0, 0, |d| match d {
            d if d == u(3) => 500_000,
            _ => 50_000,
        });
        // After the first rebalance the straggler is deselected.
        assert!(r.is_selected(u(1)));
        assert!(r.is_selected(u(2)));
        assert!(!r.is_selected(u(3)));
        // The straggler only saw traffic before the first rebalance.
        assert!(counts.get(&u(3)).copied().unwrap_or(0) < 40);
    }

    #[test]
    fn lrs_selects_all_when_capacity_short() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 3);
        r.add_downstream(u(1), 0); // 200 ms -> 5/s
        r.add_downstream(u(2), 0); // 250 ms -> 4/s
        drive(&mut r, 240, 24.0, 0, |d| {
            if d == u(1) {
                200_000
            } else {
                250_000
            }
        });
        // 9 tuples/s of capacity < 24 demanded: everything stays selected.
        assert!(r.is_selected(u(1)));
        assert!(r.is_selected(u(2)));
    }

    #[test]
    fn probing_revisits_unselected_units() {
        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.probe_every_rounds = 2;
        cfg.probe_tuples_per_unit = 1;
        let mut r = Router::new(cfg, 4);
        r.add_downstream(u(1), 0); // fast
        r.add_downstream(u(2), 0); // fast
        r.add_downstream(u(3), 0); // straggler
        let counts = drive(&mut r, 24 * 20, 24.0, 0, |d| match d {
            d if d == u(3) => 800_000,
            _ => 40_000,
        });
        // 20 seconds -> ~20 rounds -> ~10 probe windows; the straggler
        // keeps receiving occasional probe tuples after deselection.
        let straggler = counts.get(&u(3)).copied().unwrap_or(0);
        assert!(
            straggler >= 8,
            "straggler should receive probe traffic, got {straggler}"
        );
        assert!(!r.is_selected(u(3)));
    }

    #[test]
    fn pr_uses_processing_delay_not_latency() {
        let mut r = Router::new(RouterConfig::new(Policy::Pr), 5);
        r.add_downstream(u(1), 0);
        r.add_downstream(u(2), 0);
        // Unit 1: terrible total latency but tiny processing delay
        // (a fast device on a bad link). PR must still prefer it.
        let gap = SECOND_US / 100;
        for i in 0..4_000u64 {
            let now = i * gap;
            let dest = r.route(now).unwrap();
            r.on_send(SeqNo(i), dest, now);
            let (lat, proc) = if dest == u(1) {
                (400_000, 10_000)
            } else {
                (60_000, 50_000)
            };
            r.on_ack(SeqNo(i), now + lat, proc);
        }
        let snap = r.snapshot(4_000 * gap);
        let w1 = snap.routes.iter().find(|v| v.unit == u(1)).unwrap().weight;
        let w2 = snap.routes.iter().find(|v| v.unit == u(2)).unwrap().weight;
        assert!(
            w1 > w2 * 2.0,
            "PR should weight the low-processing-delay unit higher: w1={w1} w2={w2}"
        );
    }

    #[test]
    fn join_gets_traffic_immediately() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 6);
        r.add_downstream(u(1), 0);
        drive(&mut r, 48, 24.0, 0, |_| 40_000);
        r.add_downstream(u(2), 2 * SECOND_US);
        // Route a handful of tuples; the newcomer must receive some
        // before any measurement exists.
        let mut got = 0;
        for i in 0..20u64 {
            let now = 2 * SECOND_US + i * 10_000;
            if r.route(now).unwrap() == u(2) {
                got += 1;
            }
        }
        assert!(got > 0, "newly joined unit received no traffic");
    }

    #[test]
    fn leave_reroutes_and_reports_orphans() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 7);
        r.add_downstream(u(1), 0);
        r.add_downstream(u(2), 0);
        // Send two tuples to each unit without acking.
        let mut orphan_candidates = Vec::new();
        for i in 0..8u64 {
            let dest = r.route(i * 1_000).unwrap();
            r.on_send(SeqNo(i), dest, i * 1_000);
            if dest == u(2) {
                orphan_candidates.push(SeqNo(i));
            }
        }
        let orphans = r.remove_downstream(u(2));
        assert_eq!(orphans, orphan_candidates);
        // All future traffic goes to the survivor.
        for i in 100..120u64 {
            assert_eq!(r.route(i * 1_000).unwrap(), u(1));
        }
    }

    #[test]
    fn demand_hint_raises_selection_target() {
        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.probe_every_rounds = 1_000;
        let mut r = Router::new(cfg, 8);
        r.add_downstream(u(1), 0); // 20/s
        r.add_downstream(u(2), 0); // 20/s
        r.add_downstream(u(3), 0); // 18/s
        r.set_demand_hint(Some(50.0));
        // Offered rate is only 10 FPS, but the hint demands 50/s coverage,
        // so all three units stay selected.
        drive(&mut r, 100, 10.0, 0, |d| match d {
            d if d == u(1) || d == u(2) => 50_000,
            _ => 55_000,
        });
        assert_eq!(
            [u(1), u(2), u(3)]
                .iter()
                .filter(|&&x| r.is_selected(x))
                .count(),
            3
        );
    }

    #[test]
    fn snapshot_reports_counts() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 9);
        r.add_downstream(u(1), 0);
        drive(&mut r, 10, 24.0, 0, |_| 30_000);
        let snap = r.snapshot(SECOND_US);
        assert_eq!(snap.routes.len(), 1);
        assert_eq!(snap.routes[0].sent, 10);
        assert_eq!(snap.routes[0].acked, 10);
        assert_eq!(snap.routes[0].lost, 0);
        assert!(snap.routes[0].latency_ms > 0.0);
    }

    #[test]
    fn latency_estimate_follows_acks_and_pending_age() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 10);
        assert_eq!(r.latency_estimate_us(u(1), 0), None);
        r.add_downstream(u(1), 0);
        // Unmeasured: the optimistic initial estimate.
        assert_eq!(r.latency_estimate_us(u(1), 0), Some(100_000.0));
        r.on_send(SeqNo(0), u(1), 0);
        r.on_ack(SeqNo(0), 30_000, 10_000);
        assert_eq!(r.latency_estimate_us(u(1), 30_000), Some(30_000.0));
        // A stuck in-flight tuple floors the estimate by its age.
        r.on_send(SeqNo(1), u(1), 30_000);
        assert_eq!(
            r.latency_estimate_us(u(1), 530_000),
            Some(500_000.0),
            "pending-age floor should dominate the 30 ms average"
        );
    }

    #[test]
    fn route_key_is_sticky_and_rehomes_on_leave() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 13);
        for i in 1..=4 {
            r.add_downstream(u(i), 0);
        }
        // Ownership per key hash is stable across calls and time.
        let owners: Vec<UnitId> = (0..64u64)
            .map(|k| r.route_key(k.wrapping_mul(0x9E37), 0).unwrap())
            .collect();
        for (k, &owner) in owners.iter().enumerate() {
            assert_eq!(
                r.route_key((k as u64).wrapping_mul(0x9E37), SECOND_US)
                    .unwrap(),
                owner
            );
        }
        // Evicting one downstream moves only its keys.
        let dead = owners[0];
        r.remove_downstream(dead);
        for (k, &owner) in owners.iter().enumerate() {
            let now = r
                .route_key((k as u64).wrapping_mul(0x9E37), 2 * SECOND_US)
                .unwrap();
            if owner == dead {
                assert_ne!(now, dead, "dead unit still owns key {k}");
            } else {
                assert_eq!(now, owner, "survivor-owned key {k} moved");
            }
        }
    }

    #[test]
    fn route_key_ignores_worker_selection() {
        // LRS deselects the straggler, but keyed routing must still
        // deliver its keys to it: key affinity beats latency.
        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.probe_every_rounds = 1_000;
        let mut r = Router::new(cfg, 14);
        r.add_downstream(u(1), 0);
        r.add_downstream(u(2), 0);
        r.add_downstream(u(3), 0);
        drive(&mut r, 240, 24.0, 0, |d| {
            if d == u(3) {
                500_000
            } else {
                50_000
            }
        });
        assert!(!r.is_selected(u(3)));
        let hit_straggler = (0..256u64)
            .any(|k| r.route_key(crate::routing::partition::mix64(k), 20 * SECOND_US) == Ok(u(3)));
        assert!(hit_straggler, "deselected unit received none of 256 keys");
    }

    #[test]
    fn route_rebalance_cycles_deterministically() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 15);
        for i in 1..=3 {
            r.add_downstream(u(i), 0);
        }
        let seq: Vec<UnitId> = (0..9u64)
            .map(|i| r.route_rebalance(i * 1_000).unwrap())
            .collect();
        let mut r2 = Router::new(RouterConfig::new(Policy::Lrs), 999);
        for i in 1..=3 {
            r2.add_downstream(u(i), 0);
        }
        let seq2: Vec<UnitId> = (0..9u64)
            .map(|i| r2.route_rebalance(i * 1_000).unwrap())
            .collect();
        assert_eq!(seq, seq2, "rebalance order must not depend on the seed");
        let mut counts = std::collections::BTreeMap::new();
        for d in seq {
            *counts.entry(d).or_insert(0u32) += 1;
        }
        assert!(
            counts.values().all(|&c| c == 3),
            "uneven rebalance: {counts:?}"
        );
    }

    #[test]
    fn keyed_routes_error_on_empty_table() {
        let mut r = Router::new(RouterConfig::new(Policy::Lrs), 16);
        assert_eq!(r.route_key(7, 0).unwrap_err(), Error::NoDownstreams);
        assert_eq!(r.route_rebalance(0).unwrap_err(), Error::NoDownstreams);
    }

    #[test]
    #[should_panic(expected = "invalid router configuration")]
    fn invalid_config_panics_on_construction() {
        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.headroom = 0.0;
        let _ = Router::new(cfg, 0);
    }

    #[test]
    fn energy_lrs_deselects_a_dying_fast_worker() {
        let mut cfg = RouterConfig::new(Policy::EnergyLrs);
        cfg.probe_every_rounds = 1_000;
        let mut r = Router::new(cfg, 20);
        r.add_downstream(u(1), 0);
        r.add_downstream(u(2), 0);
        r.add_downstream(u(3), 0);
        // Unit 1 is fastest but nearly empty and draining hard.
        r.note_vitals(u(1), 0.02, 4.0, -55.0);
        let counts = drive(&mut r, 480, 24.0, 0, |d| {
            if d == u(1) {
                40_000
            } else {
                60_000
            }
        });
        assert!(!r.is_selected(u(1)), "dying unit must be deselected");
        assert!(r.is_selected(u(2)));
        assert!(r.is_selected(u(3)));
        // Under plain LRS the fast unit would dominate; here the healthy
        // pair carries the load after the first rebalance.
        let dying = counts.get(&u(1)).copied().unwrap_or(0);
        let healthy = counts.get(&u(2)).copied().unwrap_or(0);
        assert!(
            healthy > dying,
            "healthy worker should out-receive the dying one: {healthy} vs {dying}"
        );
    }

    #[test]
    fn vitals_default_to_healthy_and_clear_on_leave() {
        let mut r = Router::new(RouterConfig::new(Policy::EnergyLrs), 21);
        r.add_downstream(u(1), 0);
        drive(&mut r, 48, 24.0, 0, |_| 40_000);
        let snap = r.snapshot(2 * SECOND_US);
        assert_eq!(snap.routes[0].battery_frac, 1.0);
        assert_eq!(snap.routes[0].drain_w, 0.0);
        r.note_vitals(u(1), 7.0, -3.0, f64::NAN); // clamped
        r.note_vitals(u(1), f64::NAN, 2.5, -60.0); // partial update
        let snap = r.snapshot(2 * SECOND_US);
        assert_eq!(snap.routes[0].battery_frac, 1.0);
        assert_eq!(snap.routes[0].drain_w, 2.5);
        r.remove_downstream(u(1));
        assert!(r.vitals.is_empty());
    }

    #[test]
    fn custom_selection_policy_plugs_in() {
        /// Always routes everything to the lowest unit id.
        #[derive(Debug)]
        struct Favorite;
        impl crate::routing::SelectionPolicy for Favorite {
            fn select(
                &mut self,
                vitals: &[crate::routing::WorkerVitals],
                _lambda: f64,
            ) -> crate::routing::SelectionDecision {
                let min = vitals.iter().map(|v| v.unit).min();
                let selected: Vec<UnitId> = min.into_iter().collect();
                crate::routing::SelectionDecision {
                    weights: selected.iter().map(|&u| (u, 1.0)).collect(),
                    selected,
                    satisfied: true,
                }
            }
            fn name(&self) -> &'static str {
                "FAVORITE"
            }
        }

        let mut cfg = RouterConfig::new(Policy::Lrs);
        cfg.probe_every_rounds = 1_000;
        let mut r = Router::new(cfg, 22);
        r.add_downstream(u(3), 0);
        r.add_downstream(u(7), 0);
        r.set_selection_policy(Box::new(Favorite));
        assert_eq!(r.policy_name(), "FAVORITE");
        assert_eq!(r.policy(), Policy::Lrs, "config name is preserved");
        drive(&mut r, 200, 24.0, 0, |_| 40_000);
        assert!(r.is_selected(u(3)));
        assert!(!r.is_selected(u(7)));
    }

    #[test]
    fn energy_policies_match_lrs_on_healthy_swarms() {
        // With no vitals reported every worker defaults to a full
        // battery, so ELRS must route byte-identically to LRS.
        let run = |policy: Policy| {
            let mut cfg = RouterConfig::new(policy);
            cfg.probe_every_rounds = 1_000;
            let mut r = Router::new(cfg, 23);
            for i in 1..=3 {
                r.add_downstream(u(i), 0);
            }
            drive(&mut r, 300, 24.0, 0, |d| {
                if d == u(3) {
                    400_000
                } else {
                    50_000
                }
            })
        };
        assert_eq!(run(Policy::Lrs), run(Policy::EnergyLrs));
    }
}
