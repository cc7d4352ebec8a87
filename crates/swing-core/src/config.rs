//! Configuration for the resource-management layer.

use crate::error::{Error, Result};
use crate::routing::Policy;
use crate::{timing, SECOND_US};

/// Configuration of a [`Router`](crate::routing::Router) — one per
/// upstream function unit.
///
/// Defaults follow the paper: control information is exchanged "every 1 s
/// in our implementation" (§V-A), latency is a moving average (§V-B), and
/// upstreams "switch periodically every few rounds to round robin mode for
/// a short time" to refresh estimates of unselected downstreams.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Which routing policy to run (LRS, or one of the four baselines).
    pub policy: Policy,
    /// Period between rebalancing rounds, microseconds (default 1 s).
    pub control_period_us: u64,
    /// Enter probe (round-robin) mode every this many rebalancing rounds.
    pub probe_every_rounds: u32,
    /// During a probe, send this many tuples to *each* downstream.
    pub probe_tuples_per_unit: u32,
    /// Window length of the per-downstream latency moving average.
    pub latency_window: usize,
    /// Optimistic latency assumed for downstreams with no samples yet
    /// (microseconds). Keeps freshly joined devices attractive until the
    /// first measurements arrive.
    pub initial_latency_us: f64,
    /// Tuples unacknowledged for this long count as lost (microseconds).
    pub loss_timeout_us: u64,
    /// Multiplier on the measured input rate Λ when selecting workers;
    /// 1.0 reproduces the paper's `Σ μ_i ≥ Λ` constraint exactly, larger
    /// values keep spare capacity.
    pub headroom: f64,
    /// Latency/processing samples older than this no longer influence
    /// the moving averages (microseconds). Links change on the timescale
    /// of user movement; remembering a bad minute forever would keep a
    /// recovered device unattractive. Default 10 s.
    pub sample_max_age_us: u64,
    /// Floor each latency estimate by the age of the oldest
    /// unacknowledged in-flight tuple (an RTO-like freshness signal).
    /// On by default; turning it off reproduces a pure
    /// moving-average-of-ACKs estimator for ablation studies.
    pub pending_age_floor: bool,
}

impl RouterConfig {
    /// Paper-faithful defaults for the given policy.
    #[must_use]
    pub fn new(policy: Policy) -> Self {
        RouterConfig {
            policy,
            control_period_us: timing::CONTROL_PERIOD_US,
            probe_every_rounds: timing::PROBE_EVERY_ROUNDS,
            probe_tuples_per_unit: timing::PROBE_TUPLES_PER_UNIT,
            latency_window: 16,
            initial_latency_us: timing::INITIAL_LATENCY_ESTIMATE_US,
            loss_timeout_us: timing::LOSS_TIMEOUT_US,
            headroom: 1.0,
            sample_max_age_us: timing::SAMPLE_MAX_AGE_US,
            pending_age_floor: true,
        }
    }

    /// Validate ranges; call before handing the config to a router.
    pub fn validate(&self) -> Result<()> {
        if self.control_period_us == 0 {
            return Err(Error::InvalidConfig(
                "control period must be positive".into(),
            ));
        }
        if self.latency_window == 0 {
            return Err(Error::InvalidConfig(
                "latency window must be non-empty".into(),
            ));
        }
        // `!(x > 0.0)` rather than `x <= 0.0`: NaN must also be rejected.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.initial_latency_us > 0.0) {
            return Err(Error::InvalidConfig(
                "initial latency estimate must be positive".into(),
            ));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.headroom >= 1.0) {
            return Err(Error::InvalidConfig("headroom must be >= 1.0".into()));
        }
        if self.sample_max_age_us == 0 {
            return Err(Error::InvalidConfig(
                "sample_max_age_us must be positive".into(),
            ));
        }
        if self.probe_every_rounds == 0 {
            return Err(Error::InvalidConfig(
                "probe_every_rounds must be positive (use a large value to disable)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::new(Policy::Lrs)
    }
}

/// Configuration of the runtime's delivery/retransmission layer.
///
/// The paper's prototype loses the tuples that are in flight toward a
/// departing device ("13 frames are lost", §VI-C). This layer upgrades
/// dispatch to at-least-once delivery: every dispatched tuple is retained
/// until ACKed, with an ACK deadline derived from the router's live
/// latency estimate `L_i` for the chosen downstream —
/// `deadline = clamp(deadline_factor · L_i, floor, ceiling) · backoff_factor^attempt`.
/// On expiry the tuple is re-routed (bounded retries, exponential
/// backoff); receivers deduplicate by sequence number so each stage still
/// executes a tuple at most once.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Master switch. Disabled reproduces the paper prototype's
    /// fire-and-forget dispatch (in-flight tuples on broken links are
    /// counted lost, never re-sent).
    pub enabled: bool,
    /// ACK deadline as a multiple of the downstream's latency estimate.
    pub deadline_factor: f64,
    /// Lower bound on the ACK deadline (µs). Guards against spurious
    /// retransmissions when the latency estimate is optimistically small.
    pub deadline_floor_us: u64,
    /// Upper bound on the ACK deadline (µs), including backoff growth.
    pub deadline_ceiling_us: u64,
    /// Deadline multiplier applied per failed attempt (exponential
    /// backoff).
    pub backoff_factor: f64,
    /// Re-dispatch attempts before a tuple is declared lost.
    pub max_retries: u32,
    /// Per-upstream receiver-side dedup window: how many recently seen
    /// sequence numbers each executor remembers per upstream.
    pub dedup_window: usize,
}

impl RetryConfig {
    /// Paper-prototype behavior: no retention, no retransmission.
    #[must_use]
    pub fn disabled() -> Self {
        RetryConfig {
            enabled: false,
            ..RetryConfig::default()
        }
    }

    /// The ACK deadline (µs from dispatch) for a tuple on attempt
    /// `attempt` (0 = first transmission), given the downstream's current
    /// latency estimate.
    #[must_use]
    pub fn deadline_us(&self, latency_estimate_us: f64, attempt: u32) -> u64 {
        let base = (latency_estimate_us.max(0.0) * self.deadline_factor) as u64;
        let base = base.clamp(self.deadline_floor_us, self.deadline_ceiling_us);
        let scale = self.backoff_factor.powi(attempt.min(30) as i32);
        let scaled = (base as f64 * scale) as u64;
        scaled.clamp(self.deadline_floor_us, self.deadline_ceiling_us)
    }

    /// Validate ranges; call before handing the config to the runtime.
    pub fn validate(&self) -> Result<()> {
        // `!(x > 0.0)` rather than `x <= 0.0`: NaN must also be rejected.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.deadline_factor > 0.0) {
            return Err(Error::InvalidConfig(
                "deadline_factor must be positive".into(),
            ));
        }
        if self.deadline_floor_us == 0 {
            return Err(Error::InvalidConfig(
                "deadline floor must be positive".into(),
            ));
        }
        if self.deadline_ceiling_us < self.deadline_floor_us {
            return Err(Error::InvalidConfig(
                "deadline ceiling must be >= floor".into(),
            ));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.backoff_factor >= 1.0) {
            return Err(Error::InvalidConfig("backoff_factor must be >= 1.0".into()));
        }
        if self.dedup_window == 0 {
            return Err(Error::InvalidConfig(
                "dedup window must be non-empty".into(),
            ));
        }
        Ok(())
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            enabled: true,
            deadline_factor: 4.0,
            deadline_floor_us: timing::ACK_DEADLINE_FLOOR_US,
            deadline_ceiling_us: timing::ACK_DEADLINE_CEILING_US,
            backoff_factor: 2.0,
            max_retries: 8,
            dedup_window: 1024,
        }
    }
}

/// Configuration of the sink-side reordering service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderConfig {
    /// How long a tuple may wait for earlier-sequence stragglers before
    /// playback skips them. The paper sizes the buffer as a "timespan of
    /// 1 second" relative to the source data rate (§VI-B).
    pub span_us: u64,
}

impl ReorderConfig {
    /// The paper's 1-second buffer.
    #[must_use]
    pub fn one_second() -> Self {
        ReorderConfig { span_us: SECOND_US }
    }
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig::one_second()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RouterConfig::default();
        assert_eq!(c.policy, Policy::Lrs);
        assert_eq!(c.control_period_us, SECOND_US);
        c.validate().unwrap();
        assert_eq!(ReorderConfig::default().span_us, SECOND_US);
    }

    #[test]
    fn retry_defaults_validate_and_disable() {
        let c = RetryConfig::default();
        assert!(c.enabled);
        c.validate().unwrap();
        assert!(!RetryConfig::disabled().enabled);
    }

    #[test]
    fn retry_deadline_floors_ceils_and_backs_off() {
        let c = RetryConfig::default();
        // Tiny estimate: floored.
        assert_eq!(c.deadline_us(1_000.0, 0), 150_000);
        // 100 ms estimate × 4 = 400 ms.
        assert_eq!(c.deadline_us(100_000.0, 0), 400_000);
        // Backoff doubles per attempt but never exceeds the ceiling.
        assert_eq!(c.deadline_us(100_000.0, 1), 800_000);
        assert_eq!(c.deadline_us(100_000.0, 2), 1_600_000);
        assert_eq!(c.deadline_us(100_000.0, 3), 2_000_000);
        assert_eq!(c.deadline_us(100_000.0, 60), 2_000_000);
    }

    #[test]
    fn retry_validation_rejects_bad_ranges() {
        let bad = [
            RetryConfig {
                deadline_factor: 0.0,
                ..RetryConfig::default()
            },
            RetryConfig {
                deadline_floor_us: 0,
                ..RetryConfig::default()
            },
            RetryConfig {
                deadline_ceiling_us: RetryConfig::default().deadline_floor_us - 1,
                ..RetryConfig::default()
            },
            RetryConfig {
                backoff_factor: 0.9,
                ..RetryConfig::default()
            },
            RetryConfig {
                dedup_window: 0,
                ..RetryConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let bad = [
            RouterConfig {
                control_period_us: 0,
                ..RouterConfig::default()
            },
            RouterConfig {
                latency_window: 0,
                ..RouterConfig::default()
            },
            RouterConfig {
                initial_latency_us: 0.0,
                ..RouterConfig::default()
            },
            RouterConfig {
                headroom: 0.5,
                ..RouterConfig::default()
            },
            RouterConfig {
                probe_every_rounds: 0,
                ..RouterConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }
}
