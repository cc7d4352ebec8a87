//! Canonical timing constants shared by the runtime and the simulators.
//!
//! One definition each, so the simulated and live systems cannot drift
//! apart on a magic number. Each constant below documents its
//! provenance: either a figure from the paper (Fan, Salonidis, Lee —
//! *Swing: Swarm Computing for Mobile Sensing*, ICDCS 2018) or a
//! prototype-measured value this reproduction standardizes on.

use crate::{MILLISECOND_US, SECOND_US};

// ---------------------------------------------------------------------
// Control plane (paper §V-A).
// ---------------------------------------------------------------------

/// Period between routing rebalance rounds. The paper exchanges control
/// information "every 1 s in our implementation" (§V-A).
pub const CONTROL_PERIOD_US: u64 = SECOND_US;

/// Upstreams "switch periodically every few rounds to round robin mode
/// for a short time" (§V-B) to refresh latency estimates of unselected
/// downstreams; this reproduction probes every 5th rebalance round.
pub const PROBE_EVERY_ROUNDS: u32 = 5;

/// Tuples sent to *each* downstream during a probe window.
pub const PROBE_TUPLES_PER_UNIT: u32 = 1;

/// Optimistic latency assumed for downstreams with no samples yet
/// (100 ms). Keeps freshly joined devices attractive until the first
/// measurement arrives — mirroring the paper's fast integration of
/// joining devices (§VI-C).
pub const INITIAL_LATENCY_ESTIMATE_US: f64 = 100.0 * MILLISECOND_US as f64;

/// Tuples unacknowledged for this long count as lost to the estimator.
pub const LOSS_TIMEOUT_US: u64 = 5 * SECOND_US;

/// Latency/processing samples older than this stop influencing the
/// moving averages; links change on the timescale of user movement.
pub const SAMPLE_MAX_AGE_US: u64 = 10 * SECOND_US;

// ---------------------------------------------------------------------
// Delivery / retransmission layer (extends the paper's prototype, which
// loses in-flight tuples on departure — "13 frames are lost", §VI-C).
// ---------------------------------------------------------------------

/// Lower bound on the ACK deadline. Set well above a LAN round trip so
/// optimistically small latency estimates cannot trigger spurious
/// retransmission storms.
pub const ACK_DEADLINE_FLOOR_US: u64 = 150 * MILLISECOND_US;

/// Upper bound on the ACK deadline including backoff growth; bounds
/// how stale a retransmission decision can be.
pub const ACK_DEADLINE_CEILING_US: u64 = 2 * SECOND_US;

// ---------------------------------------------------------------------
// Link model (WiFi Direct / AP-mode measurements behind Fig. 7-9;
// shared by both simulators and the SimFabric transport).
// ---------------------------------------------------------------------

/// One-way latency of an uncongested local (same-device or same-hop)
/// handoff between pipeline stages. Prototype-measured scheduling gap.
pub const LOCAL_HOP_US: u64 = 200;

/// Transmission + scheduling delay of a small ACK frame over the local
/// wireless hop. ACKs are ~220 bytes on the wire (see [`ACK_BYTES`]);
/// at prototype WiFi rates that is ~3 ms including MAC contention.
pub const ACK_DELAY_US: u64 = 3 * MILLISECOND_US;

/// Per-tuple wire overhead (headers + field keys) in bytes, matching
/// the runtime codec's framing cost for a one-payload tuple.
pub const TUPLE_OVERHEAD_BYTES: u64 = 40;

/// Wire size of an ACK control frame in bytes.
pub const ACK_BYTES: u64 = 220;

// ---------------------------------------------------------------------
// Federation tier (swarm-of-swarms; reproduction-specific, motivated
// by the SwarMS multi-swarm scenario).
// ---------------------------------------------------------------------

/// Minimum one-way latency of an inter-swarm gateway link. Gateways
/// bridge co-located swarms over an uplink hop (AP-to-AP or cellular
/// backhaul), an order of magnitude slower than the intra-swarm hop.
/// This floor doubles as the conservative-synchronization *lookahead*
/// of the sharded simulator: a shard may safely advance past the global
/// lower-bound timestamp by exactly this much, because no cross-shard
/// tuple can arrive sooner.
pub const GATEWAY_MIN_LATENCY_US: u64 = 20 * MILLISECOND_US;

// ---------------------------------------------------------------------
// Executor cadence (reproduction-specific; PR3 telemetry design).
// ---------------------------------------------------------------------

/// Executors flush batched telemetry at least this often even when the
/// dispatch counter cadence has not been reached.
pub const TELEMETRY_PUBLISH_INTERVAL_US: u64 = 250 * MILLISECOND_US;

/// Executors flush batched telemetry every N dispatches, keeping the
/// per-tuple instrumentation cost to a plain integer add.
pub const TELEMETRY_PUBLISH_EVERY_DISPATCHES: u64 = 64;

/// How long a dispatcher with queued-but-unsendable tuples waits before
/// re-attempting a flush (e.g. a downstream dialed but not yet ready).
pub const PENDING_RETRY_TICK_US: u64 = 10 * MILLISECOND_US;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_stay_in_sane_ranges() {
        assert_eq!(CONTROL_PERIOD_US, SECOND_US); // §V-A: every 1 s
        const {
            assert!(ACK_DEADLINE_FLOOR_US < ACK_DEADLINE_CEILING_US);
            assert!(LOCAL_HOP_US < ACK_DELAY_US);
            // The federation lookahead must dominate the intra-swarm
            // hop, or cross-shard windows would degenerate to lockstep.
            assert!(GATEWAY_MIN_LATENCY_US > ACK_DELAY_US);
            assert!(TELEMETRY_PUBLISH_INTERVAL_US < CONTROL_PERIOD_US);
            assert!(PENDING_RETRY_TICK_US < ACK_DEADLINE_FLOOR_US);
        }
    }
}
