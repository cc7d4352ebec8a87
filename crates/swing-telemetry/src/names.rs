//! The swarm's metric naming scheme, shared by the live runtime and the
//! simulator so both report through one schema (documented in DESIGN.md
//! §Observability).
//!
//! Conventions: `swing_<layer>_<what>[_total]`, `_total` for monotone
//! counters, `_us`/`_ms` suffixes for time units. Label keys are
//! [`LABEL_WORKER`], [`LABEL_UNIT`], [`LABEL_DOWNSTREAM`],
//! [`LABEL_POLICY`], and [`LABEL_LINK`].

/// Worker (device) name hosting the emitting executor.
pub const LABEL_WORKER: &str = "worker";
/// Dataflow unit instance id (decimal).
pub const LABEL_UNIT: &str = "unit";
/// Downstream unit instance id (decimal) of a per-route metric.
pub const LABEL_DOWNSTREAM: &str = "downstream";
/// Routing policy in force (`rr|pr|lr|prs|lrs`).
pub const LABEL_POLICY: &str = "policy";
/// Link identifier (the simulated worker the link leads to).
pub const LABEL_LINK: &str = "link";

// --- executor dispatch edge (labels: worker, unit) ---

/// Distinct tuples dispatched (first transmissions).
pub const EXEC_SENT: &str = "swing_exec_sent_total";
/// Distinct tuples confirmed by an ACK.
pub const EXEC_ACKED: &str = "swing_exec_acked_total";
/// Retransmissions (expired ACK deadline or evicted downstream).
pub const EXEC_RETRIED: &str = "swing_exec_retried_total";
/// Incoming duplicates suppressed by the dedup window.
pub const EXEC_DUPLICATED: &str = "swing_exec_duplicated_total";
/// Tuples abandoned after the retry budget (or orphaned with retries
/// disabled).
pub const EXEC_LOST: &str = "swing_exec_lost_total";
/// Depth of the executor's inbox queue (gauge).
pub const EXEC_QUEUE_DEPTH: &str = "swing_exec_queue_depth";
/// ACK round-trip time histogram, microseconds.
pub const EXEC_ACK_RTT_US: &str = "swing_exec_ack_rtt_us";

// --- overload control (labels: worker, unit [, downstream]) ---

/// Tuples shed at capture time because no selected downstream had
/// credits left (source admission gate).
pub const SOURCE_SHED: &str = "swing_source_shed_total";
/// Source capture ticks skipped while paused by `OverloadPolicy::Block`
/// back-pressure (not part of the shed-accounting identity — a paused
/// source never sensed the frame).
pub const SOURCE_PAUSED: &str = "swing_source_paused_total";
/// Tuples evicted or rejected by a full operator mailbox.
pub const EXEC_SHED_IN_QUEUE: &str = "swing_exec_shed_in_queue_total";
/// Operator mailbox depth sampled per served tuple (histogram).
pub const EXEC_MAILBOX_DEPTH: &str = "swing_exec_mailbox_depth";
/// Credits still available toward a downstream (gauge; labels add
/// `downstream`).
pub const EXEC_CREDITS: &str = "swing_exec_credits";

// --- routing (labels: worker, unit [, downstream, policy]) ---

/// Live per-downstream latency estimate L_i, microseconds (gauge).
pub const EXEC_LATENCY_ESTIMATE_US: &str = "swing_exec_latency_estimate_us";
/// Normalized routing weight p_i of a downstream (gauge).
pub const ROUTE_WEIGHT: &str = "swing_route_weight";
/// 1 when Worker Selection keeps the downstream active, else 0 (gauge).
pub const ROUTE_SELECTED: &str = "swing_route_selected";
/// Size of the current selection set (gauge).
pub const EXEC_SELECTION_SIZE: &str = "swing_exec_selection_size";
/// Selection-set membership changes observed across rebalances.
pub const EXEC_SELECTION_CHANGES: &str = "swing_exec_selection_changes_total";
/// Probe-window activations (round-robin refresh of unselected units).
pub const EXEC_PROBE_WINDOWS: &str = "swing_exec_probe_windows_total";

// --- keyed (partitioned) out-edges (labels: worker, unit [, downstream]) ---

/// Distinct keys this dispatcher has routed on its `KeyBy` out-edge
/// (gauge).
pub const KEYED_KEYS: &str = "swing_keyed_keys";
/// Key skew of the `KeyBy` out-edge: max over mean keys owned per live
/// downstream, 1.0 = perfectly even (gauge).
pub const KEYED_SKEW_RATIO: &str = "swing_keyed_skew_ratio";
/// Keys whose rendezvous owner changed (membership churn re-homing).
pub const KEYED_REHOMED: &str = "swing_keyed_rehomed_total";
/// Keys re-homed by the most recent membership change alone (gauge).
pub const KEYED_REHOMED_LAST: &str = "swing_keyed_rehomed_last";
/// Tuples routed per downstream on a partitioned (`KeyBy`/`Rebalance`)
/// out-edge (labels add `downstream`).
pub const KEYED_ROUTED: &str = "swing_keyed_routed_total";

// --- in-flight table (labels: worker, unit) ---

/// Tuples currently awaiting an ACK (gauge).
pub const INFLIGHT_SIZE: &str = "swing_inflight_size";
/// ACK deadlines that expired.
pub const INFLIGHT_EXPIRED: &str = "swing_inflight_expired_total";
/// In-flight tuples reclaimed from an evicted downstream.
pub const INFLIGHT_RECLAIMED: &str = "swing_inflight_reclaimed_total";

// --- source / sink endpoints (labels: worker, unit) ---

/// Tuples captured at a source.
pub const SOURCE_SENSED: &str = "swing_source_sensed_total";
/// Tuples played back at a sink.
pub const SINK_PLAYED: &str = "swing_sink_played_total";
/// Sequence numbers a sink's reorder buffer gave up on.
pub const SINK_SKIPPED: &str = "swing_sink_skipped_total";
/// Tuples that reached a sink after playback had already passed their
/// sequence number and were dropped. Delivered but not played: this is
/// the counter that closes the shed-accounting identity
/// `sensed = (played + stale) + shed_at_source + shed_in_queue + lost`.
pub const SINK_STALE: &str = "swing_sink_stale_total";
/// End-to-end latency (sensing to playback) histogram, microseconds.
pub const SINK_E2E_LATENCY_US: &str = "swing_sink_e2e_latency_us";

// --- device layer (labels: worker [, policy]) ---

/// Mean total CPU utilization 0..=1 of a device (gauge).
pub const DEVICE_CPU_UTIL: &str = "swing_device_cpu_util";
/// Mean app-attributable CPU power, watts (gauge).
pub const DEVICE_CPU_POWER_W: &str = "swing_device_cpu_power_watts";
/// Mean Wi-Fi power, watts (gauge).
pub const DEVICE_WIFI_POWER_W: &str = "swing_device_wifi_power_watts";
/// Mean input data rate at a device, frames per second (gauge).
pub const DEVICE_INPUT_FPS: &str = "swing_device_input_fps";

// --- energy & lifetime (labels: worker [, unit, downstream]) ---

/// Remaining battery fraction 0..=1 of a worker (gauge). Published by
/// the device layer under `worker`, and mirrored per-route by upstream
/// dispatchers (labels add `unit`, `downstream`) so the selection
/// policy's view is scrapeable.
pub const BATTERY_FRAC: &str = "swing_battery_frac";
/// Recent battery drain of a worker, watts (gauge; same label scheme
/// as [`BATTERY_FRAC`]).
pub const DRAIN_W: &str = "swing_drain_w";
/// Re-selection rounds the dispatcher's selection policy has executed
/// (one per control-period rebalance).
pub const POLICY_RESELECTS: &str = "swing_policy_reselects_total";
/// Workers lost to a battery cliff (drained to empty mid-run).
pub const DEATHS: &str = "swing_deaths_total";
/// Workers that crossed below the low-power threshold and were
/// reported to the control plane (at most once per worker life).
pub const LOW_POWER: &str = "swing_low_power_total";

// --- self-healing control plane ---

/// Current deployment epoch of the control plane (gauge; bumped on
/// every topology-changing wave — eviction, join, re-placement).
pub const MASTER_EPOCH: &str = "swing_master_epoch";
/// Function units re-placed onto survivors after worker deaths.
pub const FAILOVER_REPLACED_UNITS: &str = "swing_failover_replaced_units_total";
/// Crash-to-re-placement latency histogram, microseconds (from the
/// worker's death to its units running again on survivors).
pub const FAILOVER_RECOVERY_US: &str = "swing_failover_recovery_us";

// --- federation tier (labels: swarm / link = "<from>-><to>") ---

/// Gateway tuples a swarm's gateway emitted toward peer swarms.
pub const GATEWAY_EGRESS: &str = "swing_gateway_egress_total";
/// Gateway tuples a swarm's gateway received from peer swarms.
pub const GATEWAY_INGRESS: &str = "swing_gateway_ingress_total";
/// One-way inter-swarm gateway hop latency histogram, microseconds.
pub const GATEWAY_HOP_US: &str = "swing_gateway_hop_us";

// --- simulated radio (labels: link, policy) ---

/// Payload bytes a simulated worker received over its link.
pub const NET_BYTES_RECEIVED: &str = "swing_net_bytes_received_total";

// --- reactor (no labels: one reactor per process/domain) ---

/// Returns from the reactor's readiness wait. Against
/// [`REACTOR_EVENTS`] and the frame counters this shows spurious
/// wake-ups and wake-ups per frame; an idle reactor adds none.
pub const REACTOR_WAKEUPS: &str = "swing_reactor_wakeups_total";
/// Events serviced by the reactor's readiness loop (accepted
/// connections, frames queued, written and read, connections closed).
/// Sampled per second this is the reactor's events/sec rate.
pub const REACTOR_EVENTS: &str = "swing_reactor_events_total";
/// Connections currently registered with the reactor (gauge).
pub const REACTOR_OPEN_CONNS: &str = "swing_reactor_open_conns";
/// Messages currently queued across all writer outboxes (gauge; the
/// back-pressure signal the credit gate keeps bounded).
pub const REACTOR_WRITER_QUEUE_DEPTH: &str = "swing_reactor_writer_queue_depth";
/// Frames fully written to sockets by the reactor.
pub const REACTOR_FRAMES_SENT: &str = "swing_reactor_frames_sent_total";
/// Frames fully reassembled from sockets by the reactor.
pub const REACTOR_FRAMES_RECEIVED: &str = "swing_reactor_frames_received_total";
/// Connections dropped on error, EOF or deregistration.
pub const REACTOR_CONNS_CLOSED: &str = "swing_reactor_conns_closed_total";

// --- registry service (no labels: one registry per swarm) ---

/// Live registrations currently in the registry (gauge).
pub const REGISTRY_SIZE: &str = "swing_registry_size";
/// Registrations accepted (first-time registers, not renewals).
pub const REGISTRY_REGISTERED: &str = "swing_registry_registered_total";
/// Lease renewals accepted via heartbeat.
pub const REGISTRY_HEARTBEATS: &str = "swing_registry_heartbeats_total";
/// Leases that lapsed without renewal and were tombstoned.
pub const REGISTRY_EXPIRED: &str = "swing_registry_expired_total";
/// Pattern lookups served.
pub const REGISTRY_LOOKUPS: &str = "swing_registry_lookups_total";
/// Client-observed lookup round-trip histogram, microseconds.
pub const REGISTRY_LOOKUP_US: &str = "swing_registry_lookup_us";
