//! The data-plane dispatch state machine, shared by every execution
//! mode.
//!
//! [`Dispatcher`] owns one function unit's outbound edge: the
//! [`Router`] running the configured LRS/baseline policy, the pending
//! queue of tuples awaiting (re)transmission, the [`InflightTable`] of
//! sent-but-unACKed tuples with their ACK deadlines, the per-upstream
//! [`DedupWindow`]s, and the delivery telemetry. It is the *single*
//! implementation of dispatch/ACK/retransmission semantics in the
//! repository:
//!
//! * the live executor threads drive it, inside the unit state machine
//!   (`machine.rs`) that owns it, under a [`RealClock`];
//! * the simulation engine (`sim::SimSwarm`) drives it from a
//!   discrete-event loop under a
//!   [`VirtualClock`](swing_core::clock::VirtualClock) — every paper
//!   figure, tournament and campaign in `swing-sim` is a scenario on
//!   that one loop, which calls the same unit state machine, with the
//!   radio / device / mobility models layered around it there.
//!
//! Time is an injected capability ([`ClockHandle`]); the dispatcher
//! never reads a process global.
//!
//! [`RealClock`]: swing_core::clock::RealClock

use crate::executor::{DeliveryStats, ExecInbox, ExecMsg, ExecProbe, NodeConfig};
use crate::fabric::MsgSender;
use crate::inflight::InflightTable;
use crate::lock;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use swing_core::clock::ClockHandle;
use swing_core::config::RetryConfig;
use swing_core::dedup::DedupWindow;
use swing_core::flow::{FlowConfig, OverloadPolicy};
use swing_core::graph::EdgeKind;
use swing_core::routing::partition::{rendezvous_owner, tuple_key_hash};
use swing_core::routing::{Router, RouterSnapshot};
use swing_core::timing;
use swing_core::{SeqNo, Tuple, UnitId};
use swing_net::Message;
use swing_telemetry::{Counter, Gauge, Histogram, Stage, Telemetry};

/// Frames a source holds while its paced dispatcher waits on closed
/// gates (full radio windows); a capture beyond it is shed at the
/// source, like a camera missing frames (one second of the paper's
/// 24 FPS stream).
const SENSE_BUFFER_FRAMES: usize = 24;

/// A tuple awaiting (re)transmission.
#[derive(Debug)]
struct PendingTuple {
    tuple: Tuple,
    /// Prior transmissions (0 = never sent; doubles as the backoff
    /// exponent of the next ACK deadline).
    attempts: u32,
    /// The downstream this tuple was routed to while dispatch was
    /// paused (link not yet established / gated). Re-routing on every
    /// resume would double-count the tuple in the router's weighted
    /// counters; committing preserves head-of-line order.
    committed: Option<UnitId>,
}

/// Per-downstream gauges, registered lazily as routes appear.
struct RouteGauges {
    latency_us: Gauge,
    weight: Gauge,
    selected: Gauge,
    battery_frac: Gauge,
    drain_w: Gauge,
}

/// Keyed-edge telemetry handles, registered lazily on the first publish
/// of a dispatcher whose out-edge is partitioned — broadcast
/// dispatchers never register (or pay for) them.
struct KeyedMetrics {
    keys: Gauge,
    skew: Gauge,
    rehomed: Counter,
    rehomed_last: Gauge,
    /// Per-downstream routed counters, registered lazily like
    /// [`ExecMetrics::route_gauges`].
    routed: HashMap<UnitId, Counter>,
}

/// One executor's telemetry handles. Everything is registered once at
/// construction (or on first sight of a downstream); after that every
/// hot-path update is a single relaxed atomic operation on a retained
/// handle — no locks, no allocation, no label formatting per tuple.
pub(crate) struct ExecMetrics {
    pub(crate) telemetry: Telemetry,
    worker: String,
    unit_label: String,
    policy: &'static str,
    pub(crate) unit_raw: u32,
    sent: Counter,
    acked: Counter,
    retried: Counter,
    duplicated: Counter,
    lost: Counter,
    pub(crate) queue_depth: Gauge,
    ack_rtt_us: Histogram,
    inflight_size: Gauge,
    inflight_expired: Counter,
    inflight_reclaimed: Counter,
    selection_size: Gauge,
    selection_changes: Counter,
    probe_windows: Counter,
    policy_reselects: Counter,
    sensed: Counter,
    shed_at_source: Counter,
    source_paused: Counter,
    shed_in_queue: Counter,
    pub(crate) mailbox_depth: Histogram,
    route_gauges: HashMap<UnitId, RouteGauges>,
    /// Keyed-edge handles, `None` until the first keyed publish.
    keyed: Option<KeyedMetrics>,
    /// Per-downstream remaining-credit gauges, registered lazily like
    /// [`ExecMetrics::route_gauges`].
    credit_gauges: HashMap<UnitId, Gauge>,
    /// Selection-set membership at the last published snapshot, for the
    /// membership-change counter.
    prev_selected: Vec<UnitId>,
    /// Probe flag at the last published snapshot, for edge detection.
    prev_probing: bool,
    /// Rebalance round at the last published snapshot, for the
    /// re-selection counter.
    prev_round: u64,
}

impl ExecMetrics {
    fn new(me: UnitId, config: &NodeConfig) -> Self {
        use swing_telemetry::names as n;
        let telemetry = config.telemetry.clone();
        let worker = config.worker_label.clone();
        let unit_label = me.0.to_string();
        let labels: &[(&str, &str)] = &[(n::LABEL_WORKER, &worker), (n::LABEL_UNIT, &unit_label)];
        ExecMetrics {
            sent: telemetry.counter(n::EXEC_SENT, labels),
            acked: telemetry.counter(n::EXEC_ACKED, labels),
            retried: telemetry.counter(n::EXEC_RETRIED, labels),
            duplicated: telemetry.counter(n::EXEC_DUPLICATED, labels),
            lost: telemetry.counter(n::EXEC_LOST, labels),
            queue_depth: telemetry.gauge(n::EXEC_QUEUE_DEPTH, labels),
            ack_rtt_us: telemetry.histogram(n::EXEC_ACK_RTT_US, labels),
            inflight_size: telemetry.gauge(n::INFLIGHT_SIZE, labels),
            inflight_expired: telemetry.counter(n::INFLIGHT_EXPIRED, labels),
            inflight_reclaimed: telemetry.counter(n::INFLIGHT_RECLAIMED, labels),
            selection_size: telemetry.gauge(n::EXEC_SELECTION_SIZE, labels),
            selection_changes: telemetry.counter(n::EXEC_SELECTION_CHANGES, labels),
            probe_windows: telemetry.counter(n::EXEC_PROBE_WINDOWS, labels),
            policy_reselects: telemetry.counter(n::POLICY_RESELECTS, labels),
            sensed: telemetry.counter(n::SOURCE_SENSED, labels),
            shed_at_source: telemetry.counter(n::SOURCE_SHED, labels),
            source_paused: telemetry.counter(n::SOURCE_PAUSED, labels),
            shed_in_queue: telemetry.counter(n::EXEC_SHED_IN_QUEUE, labels),
            mailbox_depth: telemetry.histogram(n::EXEC_MAILBOX_DEPTH, labels),
            route_gauges: HashMap::new(),
            keyed: None,
            credit_gauges: HashMap::new(),
            prev_selected: Vec::new(),
            prev_probing: false,
            prev_round: 0,
            policy: config.router.policy.name(),
            unit_raw: me.0,
            telemetry,
            worker,
            unit_label,
        }
    }

    /// The delivery counters as one consistent-schema view. Each field
    /// is read once from its atomic; the struct is the same shape the
    /// registry snapshot exposes under the `swing_exec_*_total` names.
    fn delivery(&self) -> DeliveryStats {
        DeliveryStats {
            sent: self.sent.get(),
            acked: self.acked.get(),
            retried: self.retried.get(),
            duplicated: self.duplicated.get(),
            lost: self.lost.get(),
        }
    }

    /// Mirror a router snapshot into the per-downstream gauges, the
    /// selection-set metrics, and the probe-window edge counter.
    fn publish_router(&mut self, snap: &RouterSnapshot) {
        use swing_telemetry::names as n;
        for route in &snap.routes {
            if !self.route_gauges.contains_key(&route.unit) {
                let downstream = route.unit.0.to_string();
                let labels: &[(&str, &str)] = &[
                    (n::LABEL_WORKER, &self.worker),
                    (n::LABEL_UNIT, &self.unit_label),
                    (n::LABEL_DOWNSTREAM, &downstream),
                ];
                let gauges = RouteGauges {
                    latency_us: self.telemetry.gauge(n::EXEC_LATENCY_ESTIMATE_US, labels),
                    weight: self.telemetry.gauge(
                        n::ROUTE_WEIGHT,
                        &[
                            (n::LABEL_WORKER, &self.worker),
                            (n::LABEL_UNIT, &self.unit_label),
                            (n::LABEL_DOWNSTREAM, &downstream),
                            (n::LABEL_POLICY, self.policy),
                        ],
                    ),
                    selected: self.telemetry.gauge(n::ROUTE_SELECTED, labels),
                    battery_frac: self.telemetry.gauge(n::BATTERY_FRAC, labels),
                    drain_w: self.telemetry.gauge(n::DRAIN_W, labels),
                };
                self.route_gauges.insert(route.unit, gauges);
            }
            let gauges = &self.route_gauges[&route.unit];
            gauges.latency_us.set(route.latency_ms * 1_000.0);
            gauges.weight.set(route.weight);
            gauges.selected.set(if route.selected { 1.0 } else { 0.0 });
            gauges.battery_frac.set(route.battery_frac);
            gauges.drain_w.set(route.drain_w);
        }
        // A downstream that left keeps its last gauge values; zero the
        // weight so scrapes don't show a stale route share.
        for (unit, gauges) in &self.route_gauges {
            if !snap.routes.iter().any(|r| r.unit == *unit) {
                gauges.weight.set(0.0);
                gauges.selected.set(0.0);
            }
        }

        let mut selected: Vec<UnitId> = snap
            .routes
            .iter()
            .filter(|r| r.selected)
            .map(|r| r.unit)
            .collect();
        selected.sort_unstable();
        self.selection_size.set_u64(selected.len() as u64);
        if selected != self.prev_selected {
            // Count units entering or leaving the selection set.
            let changes = selected
                .iter()
                .filter(|u| !self.prev_selected.contains(u))
                .count()
                + self
                    .prev_selected
                    .iter()
                    .filter(|u| !selected.contains(u))
                    .count();
            self.selection_changes.add(changes as u64);
            self.prev_selected = selected;
        }
        if snap.probing && !self.prev_probing {
            self.probe_windows.inc();
        }
        self.prev_probing = snap.probing;
        if snap.round > self.prev_round {
            self.policy_reselects.add(snap.round - self.prev_round);
            self.prev_round = snap.round;
        }
    }

    /// The keyed-edge handles, registered on first use.
    fn keyed(&mut self) -> &mut KeyedMetrics {
        use swing_telemetry::names as n;
        if self.keyed.is_none() {
            let labels: &[(&str, &str)] = &[
                (n::LABEL_WORKER, &self.worker),
                (n::LABEL_UNIT, &self.unit_label),
            ];
            self.keyed = Some(KeyedMetrics {
                keys: self.telemetry.gauge(n::KEYED_KEYS, labels),
                skew: self.telemetry.gauge(n::KEYED_SKEW_RATIO, labels),
                rehomed: self.telemetry.counter(n::KEYED_REHOMED, labels),
                rehomed_last: self.telemetry.gauge(n::KEYED_REHOMED_LAST, labels),
                routed: HashMap::new(),
            });
        }
        self.keyed.as_mut().expect("registered above")
    }

    /// The partitioned-edge routed counter toward `unit`, registered on
    /// first use.
    fn keyed_routed(&mut self, unit: UnitId) -> &Counter {
        use swing_telemetry::names as n;
        if !self.keyed().routed.contains_key(&unit) {
            let downstream = unit.0.to_string();
            let counter = self.telemetry.counter(
                n::KEYED_ROUTED,
                &[
                    (n::LABEL_WORKER, &self.worker),
                    (n::LABEL_UNIT, &self.unit_label),
                    (n::LABEL_DOWNSTREAM, &downstream),
                ],
            );
            self.keyed().routed.insert(unit, counter);
        }
        &self.keyed.as_ref().expect("registered above").routed[&unit]
    }

    /// The remaining-credit gauge toward `unit`, registered on first use.
    fn credit_gauge(&mut self, unit: UnitId) -> &Gauge {
        use swing_telemetry::names as n;
        if !self.credit_gauges.contains_key(&unit) {
            let downstream = unit.0.to_string();
            let gauge = self.telemetry.gauge(
                n::EXEC_CREDITS,
                &[
                    (n::LABEL_WORKER, &self.worker),
                    (n::LABEL_UNIT, &self.unit_label),
                    (n::LABEL_DOWNSTREAM, &downstream),
                ],
            );
            self.credit_gauges.insert(unit, gauge);
        }
        &self.credit_gauges[&unit]
    }
}

/// Delivery counts accumulated locally on the dispatch hot path and
/// flushed to the registry in [`Dispatcher::publish`]: one plain
/// integer add per tuple instead of an atomic RMW, keeping telemetry
/// inside the 5% dispatch-overhead budget.
#[derive(Default)]
struct LocalDelivery {
    sent: u64,
    acked: u64,
    retried: u64,
    duplicated: u64,
    lost: u64,
}

/// One function unit's outbound dispatch state machine (see the module
/// docs). Formerly the executor-private `Outbound` struct; promoted so
/// the simulation engine can drive the *same*
/// dispatch/ACK/retransmission code the live threads run.
pub struct Dispatcher {
    me: UnitId,
    pub(crate) router: Router,
    retry: RetryConfig,
    flow: FlowConfig,
    clock: ClockHandle,
    initial_latency_us: f64,
    downstreams: HashMap<UnitId, MsgSender>,
    upstreams: HashMap<UnitId, MsgSender>,
    /// Downstreams an embedding layer has gated off (e.g. the
    /// simulator's per-destination byte window is full). Dispatch to a
    /// gated destination pauses exactly like a not-yet-dialed link.
    gated: HashSet<UnitId>,
    /// Tuples in flight toward each downstream, counted against the
    /// per-downstream credit window
    /// ([`FlowConfig::credits_per_downstream`]). Every increment happens
    /// when an in-flight entry is recorded and every decrement when one
    /// is removed (ACK, expiry, reclaim), so the counts always agree
    /// with the [`InflightTable`]. Empty unless credits are active.
    outstanding: CreditLedger,
    /// Tuples waiting to be routed (new dispatches and retransmissions).
    pending: VecDeque<PendingTuple>,
    /// Sent-but-unACKed tuples (empty when retries are disabled).
    pub(crate) inflight: InflightTable,
    /// Per-upstream duplicate filters (receiver side).
    dedup: HashMap<UnitId, DedupWindow>,
    pub(crate) metrics: ExecMetrics,
    /// Registry-pending delivery counts (see [`LocalDelivery`]).
    local: LocalDelivery,
    probe: Arc<Mutex<Option<ExecProbe>>>,
    dispatched: u64,
    /// Absolute time of the next periodic publish (see `maybe_publish`).
    next_publish_us: u64,
    /// When enabled (simulators), sequence numbers counted lost are
    /// also appended here so the embedding layer can settle per-tuple
    /// lifecycle records. Never enabled on the live path.
    loss_log: Option<Vec<SeqNo>>,
    /// Paced mode (see [`Dispatcher::set_paced`]): automatic pending
    /// pushes are suppressed and the embedding layer transmits one
    /// tuple at a time via [`Dispatcher::flush_one`].
    paced: bool,
    /// Distribution mode of this unit's out-edge (see
    /// [`Dispatcher::set_edge_kind`]).
    partition: PartitionState,
    /// Per-downstream routed counts on a partitioned out-edge, pending
    /// telemetry flush (same local-accumulate idiom as
    /// [`LocalDelivery`]). Always empty on broadcast edges.
    part_routed: Vec<(UnitId, u64)>,
}

/// Distribution mode of a dispatcher's out-edge, mirroring [`EdgeKind`]
/// plus the routing state each mode needs at dispatch time. The graph
/// layer guarantees a partitioned (non-broadcast) out-edge is the *sole*
/// out-edge of its stage, so one mode per dispatcher suffices.
enum PartitionState {
    /// Replica pooling (the default): the configured routing policy
    /// picks freely among live downstream instances.
    Broadcast,
    /// Hash partitioning: every tuple is pinned to the rendezvous owner
    /// of its key hash among the live downstream instances.
    KeyBy {
        /// Tuple field whose value is hashed into the key space.
        field: String,
        /// Last observed owner of every key hash routed on this edge,
        /// for re-home accounting and the skew gauge.
        owners: HashMap<u64, UnitId>,
        /// Keys whose owner has changed since the edge was wired.
        rehomed_total: u64,
        /// Keys re-homed by the most recent membership change alone.
        rehomed_last: u64,
        /// Portion of `rehomed_total` already flushed to telemetry.
        rehomed_published: u64,
    },
    /// Round-robin spraying, ignoring latency estimates.
    Rebalance,
}

/// Per-downstream in-flight counts, touched on every send and every
/// ACK. A flat vector instead of a `HashMap`: a unit fans out to a
/// handful of replicas, and at that size a linear scan over eight-byte
/// keys is several times cheaper than hashing — this sits on the
/// per-tuple hot path, where the flow-overhead budget is 5%.
#[derive(Debug, Default)]
struct CreditLedger(Vec<(UnitId, u32)>);

impl CreditLedger {
    #[inline]
    fn get(&self, unit: UnitId) -> u32 {
        self.0
            .iter()
            .find(|(u, _)| *u == unit)
            .map_or(0, |&(_, n)| n)
    }

    #[inline]
    fn add_one(&mut self, unit: UnitId) {
        match self.0.iter_mut().find(|(u, _)| *u == unit) {
            Some((_, n)) => *n += 1,
            None => self.0.push((unit, 1)),
        }
    }

    #[inline]
    fn sub_one(&mut self, unit: UnitId) {
        if let Some((_, n)) = self.0.iter_mut().find(|(u, _)| *u == unit) {
            *n = n.saturating_sub(1);
        }
    }

    fn remove(&mut self, unit: UnitId) {
        self.0.retain(|(u, _)| *u != unit);
    }

    fn iter(&self) -> impl Iterator<Item = (UnitId, u32)> + '_ {
        self.0.iter().copied()
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("me", &self.me)
            .field("pending", &self.pending.len())
            .field("inflight", &self.inflight.len())
            .field("downstreams", &self.downstreams.len())
            .finish()
    }
}

impl Dispatcher {
    /// A dispatcher with a private probe slot. The clock, retry policy,
    /// telemetry domain, and router configuration all come from
    /// `config`.
    #[must_use]
    pub fn new(me: UnitId, config: &NodeConfig) -> Self {
        Dispatcher::with_probe(me, config, Arc::new(Mutex::new(None)))
    }

    pub(crate) fn with_probe(
        me: UnitId,
        config: &NodeConfig,
        probe: Arc<Mutex<Option<ExecProbe>>>,
    ) -> Self {
        Dispatcher {
            me,
            router: Router::new(config.router.clone(), u64::from(me.0) + 1),
            retry: config.retry.clone(),
            flow: config.flow,
            clock: config.clock.clone(),
            initial_latency_us: config.router.initial_latency_us,
            downstreams: HashMap::new(),
            upstreams: HashMap::new(),
            gated: HashSet::new(),
            outstanding: CreditLedger::default(),
            pending: VecDeque::new(),
            inflight: InflightTable::new(),
            dedup: HashMap::new(),
            metrics: ExecMetrics::new(me, config),
            local: LocalDelivery::default(),
            probe,
            dispatched: 0,
            next_publish_us: 0,
            loss_log: None,
            paced: false,
            partition: PartitionState::Broadcast,
            part_routed: Vec::new(),
        }
    }

    /// The unit this dispatcher sends on behalf of.
    #[must_use]
    pub fn unit(&self) -> UnitId {
        self.me
    }

    /// The injected clock (shared, monotonic microseconds).
    #[must_use]
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The routing state of this edge (latency estimates, selection).
    #[must_use]
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Record a live energy/link reading for the worker hosting
    /// downstream `unit`. The reading lands in the router's per-worker
    /// [`WorkerVitals`](swing_core::routing::WorkerVitals) snapshot and
    /// is consumed by the selection policy on its next re-selection
    /// round. `NaN` fields keep the previous value, so partial sensors
    /// (battery-only, RSSI-only) can report independently.
    pub fn note_worker_vitals(
        &mut self,
        unit: UnitId,
        battery_frac: f64,
        drain_w: f64,
        rssi_dbm: f64,
    ) {
        self.router
            .note_vitals(unit, battery_frac, drain_w, rssi_dbm);
    }

    /// The overload-control configuration this dispatcher runs under.
    #[must_use]
    pub fn flow(&self) -> &FlowConfig {
        &self.flow
    }

    /// Whether the credit window is live: overload control is on *and*
    /// retries are enabled (the in-flight table is what meters credits;
    /// without it there is nothing to count against).
    fn credits_active(&self) -> bool {
        self.flow.enabled && self.retry.enabled
    }

    /// Consume one credit toward `dest` (an in-flight entry was just
    /// recorded for it).
    fn credit_consume(&mut self, dest: UnitId) {
        if self.credits_active() {
            self.outstanding.add_one(dest);
        }
    }

    /// Release one credit toward `dest` (its in-flight entry resolved:
    /// ACKed, expired, or reclaimed).
    fn credit_release(&mut self, dest: UnitId) {
        self.outstanding.sub_one(dest);
    }

    /// Source admission gate: `true` when a *new* capture can be
    /// admitted into the data plane. With overload control disabled this
    /// is always `true` (the seed behavior). With credits active, a new
    /// tuple is admitted only while the local pending queue is below the
    /// mailbox bound and at least one connected, selected, ungated
    /// downstream still has credit headroom. When it returns `false`
    /// the source sheds (or pauses, under [`OverloadPolicy::Block`]) at
    /// capture time instead of growing an unbounded queue. A paced
    /// dispatcher (see [`Dispatcher::set_paced`]) can stall on its gates
    /// whatever the flow configuration, so the sensing buffer behind it
    /// is bounded too.
    #[must_use]
    pub fn admits_new(&self) -> bool {
        if self.paced && self.pending.len() >= SENSE_BUFFER_FRAMES {
            return false;
        }
        if !self.credits_active() {
            return true;
        }
        if self.pending.len() >= self.flow.effective_capacity() {
            return false;
        }
        let credits = self.flow.credits_per_downstream;
        self.downstreams.keys().any(|u| {
            self.router.is_selected(*u)
                && !self.gated.contains(u)
                && self.outstanding.get(*u) < credits
        })
    }

    /// Count one frame sensed at a source (shed or admitted — every
    /// capture that consumed a sequence number).
    pub fn count_sensed(&mut self) {
        self.metrics.sensed.inc();
    }

    /// Count one frame shed at capture time (the admission gate was
    /// closed when the source sensed it).
    pub fn count_shed_at_source(&mut self) {
        self.metrics.shed_at_source.inc();
    }

    /// Count one capture tick skipped under [`OverloadPolicy::Block`]
    /// back-pressure (the frame was never sensed, so this is *not* part
    /// of the shed-accounting identity).
    pub fn count_source_paused(&mut self) {
        self.metrics.source_paused.inc();
    }

    /// Count one tuple evicted or rejected by a full bounded mailbox
    /// (or pending queue).
    pub fn count_shed_in_queue(&mut self) {
        self.metrics.shed_in_queue.inc();
    }

    /// The overload counters `(shed_at_source, shed_in_queue, paused)`
    /// as currently published.
    #[must_use]
    pub fn overload_counts(&self) -> (u64, u64, u64) {
        (
            self.metrics.shed_at_source.get(),
            self.metrics.shed_in_queue.get(),
            self.metrics.source_paused.get(),
        )
    }

    /// Refresh the remaining-credit gauge of every downstream.
    fn publish_credits(&mut self) {
        if !self.credits_active() {
            return;
        }
        let credits = self.flow.credits_per_downstream;
        let ledger: Vec<(UnitId, u32)> = self.outstanding.iter().collect();
        for (unit, out) in ledger {
            self.metrics
                .credit_gauge(unit)
                .set_u64(u64::from(credits.saturating_sub(out)));
        }
    }

    /// Number of tuples queued awaiting (re)transmission.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of sent-but-unACKed tuples retained for retransmission.
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Start recording the sequence numbers of tuples counted lost, for
    /// simulators that keep per-tuple lifecycle records.
    pub fn enable_loss_log(&mut self) {
        self.loss_log = Some(Vec::new());
    }

    /// Drain the recorded lost sequence numbers (empty unless
    /// [`Dispatcher::enable_loss_log`] was called).
    pub fn take_lost_seqs(&mut self) -> Vec<SeqNo> {
        self.loss_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn log_loss(&mut self, seq: SeqNo) {
        if let Some(log) = self.loss_log.as_mut() {
            log.push(seq);
        }
    }

    /// The delivery counters: registry values plus whatever accumulated
    /// locally since the last flush, so callers always see every event.
    #[must_use]
    pub fn delivery(&self) -> DeliveryStats {
        let mut d = self.metrics.delivery();
        d.sent += self.local.sent;
        d.acked += self.local.acked;
        d.retried += self.local.retried;
        d.duplicated += self.local.duplicated;
        d.lost += self.local.lost;
        d
    }

    /// Flush locally accumulated delivery counts into the registry.
    /// Sent and retried flush before acked so a concurrent snapshot
    /// (which reads `acked` first — the keys sort alphabetically) never
    /// observes more ACKs than transmissions.
    fn flush_delivery(&mut self) {
        let l = &mut self.local;
        if l.sent > 0 {
            self.metrics.sent.add(std::mem::take(&mut l.sent));
        }
        if l.retried > 0 {
            self.metrics.retried.add(std::mem::take(&mut l.retried));
        }
        if l.acked > 0 {
            self.metrics.acked.add(std::mem::take(&mut l.acked));
        }
        if l.duplicated > 0 {
            self.metrics
                .duplicated
                .add(std::mem::take(&mut l.duplicated));
        }
        if l.lost > 0 {
            self.metrics.lost.add(std::mem::take(&mut l.lost));
        }
    }

    /// Publish the current routing table and delivery counters for
    /// observers (every [`timing::TELEMETRY_PUBLISH_EVERY_DISPATCHES`]
    /// dispatches, and whenever called explicitly): the delivery-count
    /// flush, the routing-table gauges, and the probe slot refresh
    /// together.
    pub fn publish(&mut self) {
        self.flush_delivery();
        let now = self.clock.now_us();
        self.next_publish_us = now + timing::TELEMETRY_PUBLISH_INTERVAL_US;
        self.publish_credits();
        let router = self.router.snapshot(now);
        self.metrics.publish_router(&router);
        self.metrics
            .inflight_size
            .set_u64(self.inflight.len() as u64);
        self.publish_keyed();
        let snap = ExecProbe {
            router,
            delivery: self.delivery(),
        };
        *lock(&self.probe) = Some(snap);
    }

    /// Publish if the freshness deadline passed, so observers see live
    /// counters even when the dispatch-count cadence is too slow (a
    /// lightly loaded operator never reaches it between scrapes).
    pub(crate) fn maybe_publish(&mut self) {
        if self.clock.now_us() >= self.next_publish_us {
            self.publish();
        }
    }

    /// Absolute time of the next periodic publish. Until then
    /// [`maybe_publish`](Self::maybe_publish) does nothing, so an idle
    /// executor has no reason to wake earlier on its account.
    pub(crate) fn next_publish_us(&self) -> u64 {
        self.next_publish_us
    }

    /// Adopt the out-edge's distribution mode (see [`EdgeKind`]).
    /// Wiring layers call this when a downstream link of the edge is
    /// established; repeated calls with the same kind are no-ops, so
    /// per-replica `Connect` messages don't reset keyed routing state.
    pub fn set_edge_kind(&mut self, kind: &EdgeKind) {
        match (kind, &self.partition) {
            (EdgeKind::Broadcast, PartitionState::Broadcast)
            | (EdgeKind::Rebalance, PartitionState::Rebalance) => {}
            (EdgeKind::KeyBy(f), PartitionState::KeyBy { field, .. }) if f == field => {}
            _ => {
                self.partition = match kind {
                    EdgeKind::Broadcast => PartitionState::Broadcast,
                    EdgeKind::KeyBy(field) => PartitionState::KeyBy {
                        field: field.clone(),
                        owners: HashMap::new(),
                        rehomed_total: 0,
                        rehomed_last: 0,
                        rehomed_published: 0,
                    },
                    EdgeKind::Rebalance => PartitionState::Rebalance,
                };
            }
        }
    }

    /// Keyed-routing observability: `(distinct keys seen, keys re-homed
    /// in total, keys re-homed by the last membership change)` of a
    /// `KeyBy` out-edge, or `None` on broadcast/rebalance edges.
    #[must_use]
    pub fn keyed_stats(&self) -> Option<(usize, u64, u64)> {
        match &self.partition {
            PartitionState::KeyBy {
                owners,
                rehomed_total,
                rehomed_last,
                ..
            } => Some((owners.len(), *rehomed_total, *rehomed_last)),
            _ => None,
        }
    }

    /// Re-derive the rendezvous owner of every key seen on a `KeyBy`
    /// out-edge after a membership change, counting moved keys. Tuples
    /// re-hash lazily at dispatch time anyway; this keeps the re-home
    /// telemetry exact at the moment of the change instead of trickling
    /// in with traffic.
    fn recompute_key_owners(&mut self) {
        let PartitionState::KeyBy {
            owners,
            rehomed_total,
            rehomed_last,
            ..
        } = &mut self.partition
        else {
            return;
        };
        let mut moved = 0u64;
        for (hash, owner) in owners.iter_mut() {
            if let Some(new_owner) = rendezvous_owner(*hash, self.downstreams.keys().copied()) {
                if *owner != new_owner {
                    *owner = new_owner;
                    moved += 1;
                }
            }
        }
        *rehomed_total += moved;
        *rehomed_last = moved;
    }

    /// Flush keyed-routing telemetry: per-downstream routed counts, the
    /// key-count and skew gauges, and the re-home counters. A no-op on
    /// broadcast edges — the gauges are never even registered.
    fn publish_keyed(&mut self) {
        if matches!(self.partition, PartitionState::Broadcast) {
            return;
        }
        for (unit, n) in std::mem::take(&mut self.part_routed) {
            self.metrics.keyed_routed(unit).add(n);
        }
        let PartitionState::KeyBy {
            owners,
            rehomed_total,
            rehomed_last,
            rehomed_published,
            ..
        } = &mut self.partition
        else {
            return;
        };
        let keyed = self.metrics.keyed();
        keyed.keys.set_u64(owners.len() as u64);
        let mut per_owner: HashMap<UnitId, u64> = HashMap::new();
        for owner in owners.values() {
            *per_owner.entry(*owner).or_insert(0) += 1;
        }
        let skew = if per_owner.is_empty() {
            0.0
        } else {
            let max = per_owner.values().copied().max().unwrap_or(0) as f64;
            let mean = owners.len() as f64 / per_owner.len() as f64;
            max / mean
        };
        keyed.skew.set(skew);
        let delta = *rehomed_total - *rehomed_published;
        if delta > 0 {
            keyed.rehomed.add(delta);
            *rehomed_published = *rehomed_total;
        }
        keyed.rehomed_last.set_u64(*rehomed_last);
    }

    /// Route future tuples to this downstream too.
    pub fn add_downstream(&mut self, unit: UnitId, sender: MsgSender) {
        self.downstreams.insert(unit, sender);
        let now = self.clock.now_us();
        self.router.add_downstream(unit, now);
        self.recompute_key_owners();
        // Tuples may have been waiting for a route.
        self.flush_pending();
    }

    /// Register the return path for ACKs to an upstream.
    pub fn add_upstream(&mut self, unit: UnitId, sender: MsgSender) {
        self.upstreams.insert(unit, sender);
    }

    /// Forget an upstream (it left the swarm): drop its ACK return path
    /// and its dedup window.
    pub fn remove_upstream(&mut self, unit: UnitId) {
        self.upstreams.remove(&unit);
        self.dedup.remove(&unit);
    }

    /// Gate (`up = false`) or reopen (`up = true`) dispatch toward a
    /// downstream without evicting its route — the embedding layer's
    /// flow control (e.g. a full per-destination byte window in the
    /// simulator's radio model). Reopening pushes the pending queue.
    pub fn set_link_up(&mut self, unit: UnitId, up: bool) {
        if up {
            self.gated.remove(&unit);
            self.flush_pending();
        } else {
            self.gated.insert(unit);
        }
    }

    pub(crate) fn handle_control(&mut self, msg: ExecMsg) {
        match msg {
            ExecMsg::AddDownstream { unit, sender, kind } => {
                self.set_edge_kind(&kind);
                self.add_downstream(unit, sender);
            }
            ExecMsg::RemoveDownstream { unit } => {
                self.remove_downstream(unit);
                self.flush_pending();
            }
            ExecMsg::AddUpstream { unit, sender } => {
                self.add_upstream(unit, sender);
            }
            ExecMsg::RemoveUpstream { unit } => {
                self.remove_upstream(unit);
            }
            ExecMsg::Ack { seq, processing_us } => {
                self.on_ack(seq, processing_us);
            }
            _ => {}
        }
    }

    /// Process an ACK from a downstream: feed the router's latency
    /// estimator and release the retained in-flight tuple.
    pub fn on_ack(&mut self, seq: SeqNo, processing_us: u64) {
        let now = self.clock.now_us();
        let sample = self.router.on_ack(seq, now, processing_us);
        let fresh = if self.retry.enabled {
            match self.inflight.ack(seq) {
                Some(e) => {
                    self.credit_release(e.dest);
                    true
                }
                None => false,
            }
        } else {
            sample.is_some()
        };
        if fresh {
            self.local.acked += 1;
            self.metrics
                .telemetry
                .record_stage(seq.0, self.metrics.unit_raw, Stage::Acked);
        }
        if let Some(rtt_us) = sample {
            self.metrics.ack_rtt_us.record(rtt_us);
        }
    }

    /// Receiver-side duplicate filter (at-most-once processing per
    /// stage): `true` if `seq` from `upstream` is fresh. A re-seen
    /// sequence is counted and must be re-ACKed — the retransmission
    /// means the first ACK was lost — but not processed again.
    pub fn observe_fresh(&mut self, upstream: UnitId, seq: SeqNo) -> bool {
        let cap = self.retry.dedup_window;
        let fresh = self
            .dedup
            .entry(upstream)
            .or_insert_with(|| DedupWindow::new(cap))
            .observe(seq);
        if !fresh {
            self.local.duplicated += 1;
        }
        fresh
    }

    /// Remove a downstream everywhere and reclaim every tuple in flight
    /// toward it for re-dispatch to the survivors (§IV-C re-routing).
    ///
    /// Returns the orphaned sequence numbers: with retries enabled they
    /// were requeued for retransmission, with retries disabled they
    /// were counted lost. Simulators use the list to settle per-tuple
    /// lifecycle records; the live path ignores it.
    pub fn remove_downstream(&mut self, unit: UnitId) -> Vec<SeqNo> {
        self.downstreams.remove(&unit);
        self.gated.remove(&unit);
        // Pending tuples committed to the evicted destination go back
        // to open routing.
        for p in &mut self.pending {
            if p.committed == Some(unit) {
                p.committed = None;
            }
        }
        let mut orphans = self.router.remove_downstream(unit);
        self.recompute_key_owners();
        self.reclaim_seqs(&orphans);
        // Belt and braces: anything still addressed to the evicted unit
        // that the router no longer tracked (e.g. an entry whose ACK the
        // estimator already pruned as lost).
        let stragglers = self.inflight.take_orphans_of(unit);
        self.metrics.inflight_reclaimed.add(stragglers.len() as u64);
        for (seq, e) in stragglers {
            orphans.push(seq);
            self.pending.push_back(PendingTuple {
                tuple: e.tuple,
                attempts: e.attempts,
                committed: None,
            });
        }
        // Nothing can be outstanding toward a downstream that no longer
        // exists; drop its credit account entirely.
        self.outstanding.remove(unit);
        orphans
    }

    /// Requeue the listed in-flight sequence numbers for re-dispatch
    /// (they were orphaned by an evicted downstream). With retries
    /// disabled nothing was retained, so they are counted lost.
    fn reclaim_seqs(&mut self, seqs: &[SeqNo]) {
        if seqs.is_empty() {
            return;
        }
        if self.retry.enabled {
            let reclaimed = self.inflight.take_seqs(seqs);
            self.metrics.inflight_reclaimed.add(reclaimed.len() as u64);
            for (_, e) in reclaimed {
                self.credit_release(e.dest);
                self.pending.push_back(PendingTuple {
                    tuple: e.tuple,
                    attempts: e.attempts,
                    committed: None,
                });
            }
        } else {
            self.local.lost += seqs.len() as u64;
            for &s in seqs {
                self.log_loss(s);
            }
        }
    }

    /// Queue one fresh tuple and push the pending queue forward.
    ///
    /// With overload control enabled, the pending queue is bounded at
    /// [`FlowConfig::effective_capacity`]: a shedding policy evicts the
    /// oldest waiting tuple ([`OverloadPolicy::ShedOldest`]) or rejects
    /// the incoming one ([`OverloadPolicy::ShedNewest`]) rather than
    /// grow without limit, counting each victim as shed-in-queue.
    /// [`OverloadPolicy::Block`] never sheds here — it bounds memory
    /// through source back-pressure alone.
    pub fn dispatch(&mut self, tuple: Tuple) {
        self.dispatched += 1;
        if self
            .dispatched
            .is_multiple_of(timing::TELEMETRY_PUBLISH_EVERY_DISPATCHES)
        {
            self.publish();
        }
        if self.flow.enabled && self.pending.len() >= self.flow.effective_capacity() {
            match self.flow.policy {
                OverloadPolicy::ShedOldest => {
                    while self.pending.len() >= self.flow.effective_capacity() {
                        if self.pending.pop_front().is_none() {
                            break;
                        }
                        self.metrics.shed_in_queue.inc();
                    }
                }
                OverloadPolicy::ShedNewest => {
                    self.metrics.shed_in_queue.inc();
                    return;
                }
                OverloadPolicy::Block => {}
            }
        }
        self.pending.push_back(PendingTuple {
            tuple,
            attempts: 0,
            committed: None,
        });
        self.flush_pending();
    }

    /// Paced mode, for embedding layers whose flow-control state must
    /// update between consecutive transmissions (the simulation
    /// engine's per-destination radio byte windows). While paced,
    /// the automatic pending pushes after `dispatch`, link, and timer
    /// changes become no-ops; the embedding layer drives transmission
    /// explicitly, one tuple at a time, with [`Dispatcher::flush_one`],
    /// re-gating destinations between calls.
    pub fn set_paced(&mut self, paced: bool) {
        self.paced = paced;
    }

    /// Send pending tuples in order until the queue empties or dispatch
    /// must pause (a route exists but its connection has not been
    /// established yet, or the destination is gated). A no-op in paced
    /// mode (see [`Dispatcher::set_paced`]).
    pub fn flush_pending(&mut self) {
        if self.paced {
            return;
        }
        while let Some(p) = self.pending.pop_front() {
            if let Some(back) = self.try_send_one(p) {
                self.pending.push_front(back);
                return;
            }
        }
    }

    /// Send at most one pending tuple, ignoring pacing. Returns `true`
    /// when a tuple left the queue — transmitted, or written off
    /// because no downstream exists — so the caller should refresh its
    /// flow-control gates and call again; `false` when the queue is
    /// empty or dispatch must pause (gated or not-yet-connected
    /// destination).
    pub fn flush_one(&mut self) -> bool {
        let Some(p) = self.pending.pop_front() else {
            return false;
        };
        match self.try_send_one(p) {
            Some(back) => {
                self.pending.push_front(back);
                false
            }
            None => true,
        }
    }

    /// Route and transmit one tuple. Returns the tuple back when
    /// dispatch must wait; handles broken links by evicting the dead
    /// downstream and retrying another.
    fn try_send_one(&mut self, mut p: PendingTuple) -> Option<PendingTuple> {
        loop {
            let now = self.clock.now_us();
            let dest = match p.committed {
                Some(d) => d,
                None => {
                    // Partition-aware route selection: broadcast edges
                    // draw from the policy router exactly as before;
                    // keyed edges pin the tuple to its key's rendezvous
                    // owner (re-computed on every attempt, so requeued
                    // tuples re-home to survivors automatically);
                    // rebalance edges spray round-robin.
                    let key_hash = match &self.partition {
                        PartitionState::KeyBy { field, .. } => {
                            Some(tuple_key_hash(&p.tuple, field))
                        }
                        _ => None,
                    };
                    let routed = if let Some(h) = key_hash {
                        self.router.route_key(h, now)
                    } else if matches!(self.partition, PartitionState::Rebalance) {
                        self.router.route_rebalance(now)
                    } else {
                        self.router.route(now)
                    };
                    let Ok(d) = routed else {
                        if self.retry.enabled {
                            // No downstream *right now* — e.g. the sole
                            // host of the next stage died and its
                            // replacement is not wired yet. Hold the
                            // tuple: the pending tick keeps retrying
                            // until a route appears, and the drain
                            // budget bounds how long (leftovers are
                            // counted lost there).
                            return Some(p);
                        }
                        // Fire-and-forget: nowhere to go, count it now.
                        self.local.lost += 1;
                        self.log_loss(p.tuple.seq());
                        return None;
                    };
                    if let (Some(h), PartitionState::KeyBy { owners, .. }) =
                        (key_hash, &mut self.partition)
                    {
                        // Owners normally move in `recompute_key_owners`;
                        // this insert records first-sighted keys (and is
                        // a safety net if a route lands between table
                        // updates).
                        owners.insert(h, d);
                    }
                    p.committed = Some(d);
                    d
                }
            };
            if self.gated.contains(&dest) {
                // Flow control: the embedding layer closed this link's
                // window. Hold position until it reopens.
                return Some(p);
            }
            if self.credits_active()
                && self.outstanding.get(dest) >= self.flow.credits_per_downstream
            {
                // Out of credits toward the committed destination: hold
                // position (like a gated link) until an ACK, expiry, or
                // reclaim replenishes the window.
                return Some(p);
            }
            let Some(sender) = self.downstreams.get(&dest) else {
                // The route exists but its connection has not landed yet
                // (Connect in flight). The downstream is healthy — wait
                // for the link instead of dropping the tuple or evicting
                // the route; a control message or timer tick resumes us.
                return Some(p);
            };
            p.tuple.stamp_sent(now);
            self.router.on_send(p.tuple.seq(), dest, now);
            match sender.send(Message::Data {
                dest,
                from: self.me,
                tuple: p.tuple.clone(),
            }) {
                Ok(()) => {
                    if !matches!(self.partition, PartitionState::Broadcast) {
                        match self.part_routed.iter_mut().find(|(u, _)| *u == dest) {
                            Some((_, n)) => *n += 1,
                            None => self.part_routed.push((dest, 1)),
                        }
                    }
                    if p.attempts == 0 {
                        self.local.sent += 1;
                        self.metrics.telemetry.record_stage(
                            p.tuple.seq().0,
                            self.metrics.unit_raw,
                            Stage::Dispatched,
                        );
                    } else {
                        self.local.retried += 1;
                        self.metrics.telemetry.record_stage(
                            p.tuple.seq().0,
                            self.metrics.unit_raw,
                            Stage::Retransmitted,
                        );
                    }
                    if self.retry.enabled {
                        let latency = self
                            .router
                            .latency_estimate_us(dest, now)
                            .unwrap_or(self.initial_latency_us);
                        let deadline = now + self.retry.deadline_us(latency, p.attempts);
                        self.inflight
                            .record(p.tuple.seq(), p.tuple, dest, now, deadline);
                        self.credit_consume(dest);
                    }
                    return None;
                }
                Err(_) => {
                    // Link broken: the peer is gone. Evict it (reclaiming
                    // whatever else was in flight toward it) and try
                    // another downstream with the same tuple.
                    self.remove_downstream(dest);
                    p.committed = None;
                }
            }
        }
    }

    /// Earliest absolute time retry timers need servicing, if any.
    pub fn next_wake_us(&mut self) -> Option<u64> {
        if !self.retry.enabled {
            return None;
        }
        let mut wake = self.inflight.next_deadline_us();
        if !self.pending.is_empty() {
            // A paused pending queue retries on a short tick.
            let tick = self.clock.now_us() + timing::PENDING_RETRY_TICK_US;
            wake = Some(wake.map_or(tick, |w| w.min(tick)));
        }
        wake
    }

    /// Expire overdue ACK deadlines: requeue timed-out tuples for
    /// re-routing (counting the ones that exhausted their retry budget
    /// as lost) and push the pending queue forward.
    pub fn service_timers(&mut self) {
        if !self.retry.enabled {
            return;
        }
        let now = self.clock.now_us();
        let expired = self.inflight.pop_expired(now);
        if !expired.is_empty() {
            self.metrics.inflight_expired.add(expired.len() as u64);
            // Refresh weights/selection so the silent downstream's
            // pending-age latency floor steers the retry elsewhere.
            self.router.rebalance(now);
            for (seq, e) in expired {
                self.credit_release(e.dest);
                if e.attempts > self.retry.max_retries {
                    self.local.lost += 1;
                    self.log_loss(seq);
                } else {
                    self.pending.push_back(PendingTuple {
                        tuple: e.tuple,
                        attempts: e.attempts,
                        committed: None,
                    });
                }
            }
        }
        self.flush_pending();
    }

    /// After the source stream ends, keep servicing ACKs and retry
    /// timers until every in-flight tuple resolves (or the drain budget
    /// expires), so the tail of the stream is not silently abandoned.
    /// Whatever remains unresolved is counted lost; the caller publishes.
    pub(crate) fn drain_tail(&mut self, rx: &ExecInbox) {
        if self.retry.enabled && !(self.inflight.is_empty() && self.pending.is_empty()) {
            // Worst-case time for one tuple to exhaust its retry budget.
            let budget = self.retry.deadline_ceiling_us * (u64::from(self.retry.max_retries) + 2);
            let give_up = self.clock.now_us() + budget;
            loop {
                if self.inflight.is_empty() && self.pending.is_empty() {
                    break;
                }
                let now = self.clock.now_us();
                if now >= give_up {
                    break;
                }
                let wake = self
                    .next_wake_us()
                    .unwrap_or(now + timing::PENDING_RETRY_TICK_US)
                    .min(give_up);
                let timeout = Duration::from_micros(wake.saturating_sub(now).max(1));
                match rx.recv_timeout(timeout) {
                    Ok(ExecMsg::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                    Ok(msg) => self.handle_control(msg),
                    Err(RecvTimeoutError::Timeout) => {}
                }
                self.service_timers();
            }
            let leftovers = self.inflight.drain_all();
            self.local.lost += (leftovers.len() + self.pending.len()) as u64;
            for (seq, e) in leftovers {
                self.credit_release(e.dest);
                self.log_loss(seq);
            }
            let unsent: Vec<SeqNo> = self.pending.drain(..).map(|p| p.tuple.seq()).collect();
            for seq in unsent {
                self.log_loss(seq);
            }
        }
    }

    /// Send an ACK for `seq` back to `upstream`.
    pub fn ack(&self, upstream: UnitId, seq: SeqNo, sent_at_us: u64, processing_us: u64) {
        if let Some(sender) = self.upstreams.get(&upstream) {
            let _ = sender.send(Message::Ack {
                seq,
                to: upstream,
                from: self.me,
                sent_at_us,
                processing_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NodeConfig;
    use std::sync::mpsc::{channel, Receiver};
    use swing_core::config::{ReorderConfig, RetryConfig, RouterConfig};
    use swing_core::routing::Policy;

    fn config(fps: f64) -> NodeConfig {
        NodeConfig {
            router: RouterConfig::new(Policy::Lrs),
            input_fps: fps,
            reorder: ReorderConfig { span_us: 100_000 },
            retry: RetryConfig::default(),
            ..NodeConfig::default()
        }
    }

    fn tuple(seq: u64) -> Tuple {
        let mut t = Tuple::new().with("v", 1i64);
        t.set_seq(SeqNo(seq));
        t
    }

    /// The dispatch-while-disconnected fix: a routed downstream whose
    /// connection has not landed yet must *pause* dispatch, not drop the
    /// tuple or evict the healthy route.
    #[test]
    fn dispatch_waits_for_a_late_connection() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        // The route is known, but the connection has not landed yet.
        let now = out.clock().now_us();
        out.router.add_downstream(UnitId(1), now);
        out.dispatch(tuple(0));
        out.dispatch(tuple(1));
        assert_eq!(out.pending.len(), 2, "tuples must be held, not dropped");
        assert_eq!(out.router.downstream_len(), 1, "route must not be evicted");
        assert_eq!(out.delivery().sent, 0);
        assert_eq!(out.delivery().lost, 0);

        // The connection lands: dispatch resumes in order.
        let (tx, rx) = channel();
        out.add_downstream(UnitId(1), tx.into());
        assert!(out.pending.is_empty());
        assert_eq!(out.delivery().sent, 2);
        let seqs: Vec<u64> = rx
            .try_iter()
            .map(|m| match m {
                Message::Data { tuple, .. } => tuple.seq().0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(out.inflight.len(), 2, "sent tuples await their ACKs");
    }

    /// Eviction reclaims in-flight tuples for the survivors: the seqs
    /// reported by `Router::remove_downstream` are re-dispatched.
    #[test]
    fn evicted_downstream_tuples_are_rerouted_to_survivors() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        let (tx_a, rx_a) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        for i in 0..5 {
            out.dispatch(tuple(i));
        }
        assert_eq!(out.delivery().sent, 5);
        assert_eq!(rx_a.try_iter().count(), 5);
        assert_eq!(out.inflight.len(), 5);

        // A survivor joins, then the original downstream is evicted
        // (heartbeat prune): every unACKed tuple must reach the survivor.
        let (tx_b, rx_b) = channel();
        out.add_downstream(UnitId(2), tx_b.into());
        let orphans = out.remove_downstream(UnitId(1));
        out.flush_pending();
        assert_eq!(orphans.len(), 5, "every in-flight seq is reported");
        let mut resent: Vec<u64> = rx_b
            .try_iter()
            .map(|m| match m {
                Message::Data { tuple, .. } => tuple.seq().0,
                _ => unreachable!(),
            })
            .collect();
        resent.sort_unstable();
        assert_eq!(resent, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.delivery().retried, 5);
        assert_eq!(out.delivery().lost, 0);
    }

    /// With retries disabled, eviction orphans are counted lost — the
    /// pre-recovery behavior, kept reachable for baseline comparisons.
    #[test]
    fn disabled_retries_count_eviction_orphans_as_lost() {
        let mut cfg = config(100.0);
        cfg.retry = RetryConfig::disabled();
        let mut out = Dispatcher::new(UnitId(0), &cfg);
        out.enable_loss_log();
        let (tx_a, _rx_a) = channel();
        let (tx_b, _rx_b) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        for i in 0..4 {
            out.dispatch(tuple(i));
        }
        assert_eq!(out.inflight.len(), 0, "no retention when disabled");
        out.add_downstream(UnitId(2), tx_b.into());
        out.remove_downstream(UnitId(1));
        assert_eq!(out.delivery().lost, 4);
        let mut lost = out.take_lost_seqs();
        lost.sort_unstable();
        assert_eq!(lost, vec![SeqNo(0), SeqNo(1), SeqNo(2), SeqNo(3)]);
    }

    /// Gating a destination pauses dispatch without evicting the route;
    /// reopening resumes in order toward the *committed* destination.
    #[test]
    fn gated_link_pauses_and_resumes_in_order() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        let (tx, rx) = channel();
        out.add_downstream(UnitId(1), tx.into());
        out.set_link_up(UnitId(1), false);
        for i in 0..3 {
            out.dispatch(tuple(i));
        }
        assert_eq!(out.pending.len(), 3, "gated link holds the queue");
        assert_eq!(out.delivery().sent, 0);
        assert_eq!(out.router.downstream_len(), 1);

        out.set_link_up(UnitId(1), true);
        assert!(out.pending.is_empty());
        let seqs: Vec<u64> = rx
            .try_iter()
            .map(|m| match m {
                Message::Data { tuple, .. } => tuple.seq().0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    /// Paced mode: automatic pushes are suppressed and `flush_one`
    /// transmits exactly one tuple, so an embedding layer can update
    /// flow-control gates between consecutive sends.
    #[test]
    fn paced_mode_transmits_one_tuple_per_flush() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        out.set_paced(true);
        let (tx, rx) = channel();
        out.add_downstream(UnitId(1), tx.into());
        for i in 0..3 {
            out.dispatch(tuple(i));
        }
        assert_eq!(out.pending_len(), 3, "paced dispatch must not auto-send");
        assert!(out.flush_one());
        assert_eq!(rx.try_iter().count(), 1);

        out.set_link_up(UnitId(1), false);
        assert!(!out.flush_one(), "gated destination pauses the queue");
        out.set_link_up(UnitId(1), true); // reopening must not auto-flush
        assert_eq!(out.pending_len(), 2);
        assert!(out.flush_one());
        assert!(out.flush_one());
        assert!(!out.flush_one(), "queue is empty");
        assert_eq!(rx.try_iter().count(), 2);
    }

    /// The zero-copy acceptance check for the data plane: dispatching a
    /// tuple that carries a camera frame must not clone the pixel
    /// buffer. The wire message and the retransmission table entry both
    /// share the dispatcher's allocation, and ACKing releases exactly
    /// one reference.
    #[test]
    fn dispatch_shares_frame_payload_with_wire_and_inflight() {
        use swing_core::SharedBytes;

        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        let (tx, rx) = channel();
        out.add_downstream(UnitId(1), tx.into());

        let frame = SharedBytes::from_vec(vec![7u8; 6000]);
        assert_eq!(frame.ref_count(), 1);
        let mut t = Tuple::new().with("frame", frame.clone()).with("cam", 3i64);
        t.set_seq(SeqNo(0));
        out.dispatch(t);

        // dispatch -> wire: the Message::Data on the channel borrows the
        // same allocation, it does not own a copy.
        let sent = match rx.try_recv().expect("tuple was dispatched") {
            Message::Data { tuple, .. } => tuple,
            other => panic!("unexpected message {other:?}"),
        };
        let on_wire = sent.bytes_shared("frame").unwrap();
        assert!(
            on_wire.shares_allocation_with(&frame),
            "wire message must not copy the pixel buffer"
        );

        // dispatch -> retransmit: the inflight table retains another
        // reference to the same buffer, not a deep copy. Exactly four
        // handles exist: `frame`, the wire tuple, `on_wire`, inflight.
        assert_eq!(
            frame.ref_count(),
            4,
            "frame + wire tuple + on_wire + inflight"
        );
        let retained = out.inflight.ack(SeqNo(0)).expect("tuple was retained");
        let in_table = retained.tuple.bytes_shared("frame").unwrap();
        assert!(in_table.shares_allocation_with(&frame));

        // ACK releases the table's reference; nothing leaked.
        drop(retained);
        drop(in_table);
        assert_eq!(frame.ref_count(), 3, "ACK released the inflight copy");
    }

    /// Dispatch timestamps come from the injected clock: under a
    /// virtual clock, stamp times are exactly the driven virtual time.
    #[test]
    fn virtual_clock_stamps_virtual_time() {
        use swing_core::clock::VirtualClock;

        let vclock = VirtualClock::shared();
        let cfg = NodeConfig {
            clock: vclock.clone(),
            ..config(100.0)
        };
        let mut out = Dispatcher::new(UnitId(0), &cfg);
        let (tx, rx) = channel();
        out.add_downstream(UnitId(1), tx.into());

        vclock.advance_to(5_000_000);
        out.dispatch(tuple(0));
        let sent = match rx.try_recv().unwrap() {
            Message::Data { tuple, .. } => tuple,
            _ => unreachable!(),
        };
        assert_eq!(sent.sent_at_us(), 5_000_000);
    }

    fn keyed_tuple(seq: u64, cell: i64) -> Tuple {
        let mut t = Tuple::new().with("cell", cell);
        t.set_seq(SeqNo(seq));
        t
    }

    fn drain_cells(rx: &Receiver<Message>) -> Vec<i64> {
        rx.try_iter()
            .map(|m| match m {
                Message::Data { tuple, .. } => tuple.i64("cell").expect("keyed field"),
                _ => unreachable!(),
            })
            .collect()
    }

    /// On a `KeyBy` edge every tuple of a key lands on one downstream,
    /// whichever replica the latency policy would otherwise prefer, and
    /// the keyed telemetry sees the keys.
    #[test]
    fn keyed_edge_pins_each_key_to_one_downstream() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        out.set_edge_kind(&EdgeKind::KeyBy("cell".into()));
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        out.add_downstream(UnitId(2), tx_b.into());

        for seq in 0..64 {
            out.dispatch(keyed_tuple(seq, i64::try_from(seq % 8).unwrap()));
        }
        assert_eq!(out.delivery().sent, 64);
        let cells_a = drain_cells(&rx_a);
        let cells_b = drain_cells(&rx_b);
        // Zero leakage: no cell value appears on both downstreams.
        for c in &cells_a {
            assert!(!cells_b.contains(c), "cell {c} leaked across owners");
        }
        // Rendezvous over two members splits eight keys non-trivially.
        assert!(!cells_a.is_empty() && !cells_b.is_empty());
        let (keys, rehomed_total, _) = out.keyed_stats().expect("keyed edge");
        assert_eq!(keys, 8);
        assert_eq!(rehomed_total, 0, "stable membership re-homes nothing");
    }

    /// Evicting a keyed downstream re-homes exactly the keys it owned:
    /// its in-flight tuples re-hash to survivors and the re-home
    /// counters record the move.
    #[test]
    fn keyed_eviction_rehomes_only_the_dead_owners_keys() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        out.set_edge_kind(&EdgeKind::KeyBy("cell".into()));
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        out.add_downstream(UnitId(2), tx_b.into());
        for seq in 0..32 {
            out.dispatch(keyed_tuple(seq, i64::try_from(seq % 16).unwrap()));
        }
        let before_a: std::collections::BTreeSet<i64> = drain_cells(&rx_a).into_iter().collect();
        let before_b: std::collections::BTreeSet<i64> = drain_cells(&rx_b).into_iter().collect();
        assert_eq!(before_a.len() + before_b.len(), 16);

        // Kill downstream 1. Its unACKed tuples must re-hash to 2, and
        // keys 2 already owned must not move.
        out.remove_downstream(UnitId(1));
        out.flush_pending();
        let resent: std::collections::BTreeSet<i64> = drain_cells(&rx_b).into_iter().collect();
        assert_eq!(resent, before_a, "exactly the dead owner's keys moved");
        let (keys, rehomed_total, rehomed_last) = out.keyed_stats().expect("keyed edge");
        assert_eq!(keys, 16);
        assert_eq!(rehomed_total, before_a.len() as u64);
        assert_eq!(rehomed_last, before_a.len() as u64);
    }

    /// A `Rebalance` edge sprays round-robin across connected
    /// downstreams, ignoring the seeded latency draw.
    #[test]
    fn rebalance_edge_alternates_downstreams() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        out.set_edge_kind(&EdgeKind::Rebalance);
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        out.add_downstream(UnitId(2), tx_b.into());
        for seq in 0..10 {
            out.dispatch(tuple(seq));
        }
        assert_eq!(rx_a.try_iter().count(), 5);
        assert_eq!(rx_b.try_iter().count(), 5);
        assert!(out.keyed_stats().is_none(), "rebalance tracks no keys");
    }

    /// Repeated `set_edge_kind` with the same kind (one Connect per
    /// replica) must not reset keyed ownership state.
    #[test]
    fn repeated_edge_kind_is_idempotent() {
        let mut out = Dispatcher::new(UnitId(0), &config(100.0));
        out.set_edge_kind(&EdgeKind::KeyBy("cell".into()));
        let (tx_a, _rx_a) = channel();
        out.add_downstream(UnitId(1), tx_a.into());
        out.dispatch(keyed_tuple(0, 7));
        assert_eq!(out.keyed_stats().expect("keyed").0, 1);
        out.set_edge_kind(&EdgeKind::KeyBy("cell".into()));
        assert_eq!(out.keyed_stats().expect("keyed").0, 1, "state survived");
        out.set_edge_kind(&EdgeKind::KeyBy("other".into()));
        assert_eq!(out.keyed_stats().expect("keyed").0, 0, "new field resets");
    }
}
