//! Transport timing knobs.
//!
//! Every live-network timeout that used to be a hard-coded `Duration`
//! constant — the reactor's dial timeout, registry lease timing —
//! lives in one validated struct. `SwarmConfig` (swing-runtime) embeds
//! a [`NetTimeouts`] and threads it through the fabric, the reactor and
//! the registry client, so an experiment can tighten or relax network
//! timing without touching transport code.

use std::time::Duration;
use swing_core::{Error, Result};

/// Connect / heartbeat timing for the live transport.
///
/// Defaults match the constants the transport shipped with: a 5 s
/// dial timeout, and registry leases of 1.5 s renewed every 500 ms (the
/// 3× rule: a lease survives two dropped heartbeats before expiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTimeouts {
    /// How long a dial may take before it fails.
    pub connect: Duration,
    /// Cadence at which a registered service renews its registry lease.
    pub heartbeat_interval: Duration,
    /// Registry lease duration; a registration not renewed within this
    /// window expires and is tombstoned. Must be strictly greater than
    /// [`heartbeat_interval`](Self::heartbeat_interval).
    pub heartbeat_ttl: Duration,
}

impl Default for NetTimeouts {
    fn default() -> Self {
        NetTimeouts {
            connect: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_ttl: Duration::from_millis(1_500),
        }
    }
}

impl NetTimeouts {
    /// Check the knobs for consistency.
    ///
    /// Rejects zero durations (a zero connect timeout can never dial; a
    /// zero TTL expires every lease instantly) and a lease TTL at or
    /// below the heartbeat interval (the lease would lapse before its
    /// first renewal could arrive).
    pub fn validate(&self) -> Result<()> {
        if self.connect.is_zero() {
            return Err(Error::InvalidConfig(
                "net.connect timeout must be positive".into(),
            ));
        }
        if self.heartbeat_interval.is_zero() {
            return Err(Error::InvalidConfig(
                "net.heartbeat_interval must be positive".into(),
            ));
        }
        if self.heartbeat_ttl <= self.heartbeat_interval {
            return Err(Error::InvalidConfig(format!(
                "net.heartbeat_ttl ({:?}) must exceed net.heartbeat_interval ({:?}); \
                 a lease that lapses before its first renewal evicts every service",
                self.heartbeat_ttl, self.heartbeat_interval
            )));
        }
        Ok(())
    }

    /// The lease TTL in milliseconds, as carried on the wire by
    /// `RegisterService`.
    #[must_use]
    pub fn ttl_ms(&self) -> u64 {
        self.heartbeat_ttl.as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        NetTimeouts::default().validate().unwrap();
    }

    #[test]
    fn zero_durations_are_rejected() {
        let base = NetTimeouts::default();
        for bad in [
            NetTimeouts {
                connect: Duration::ZERO,
                ..base
            },
            NetTimeouts {
                heartbeat_interval: Duration::ZERO,
                ..base
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn ttl_must_exceed_heartbeat_interval() {
        let bad = NetTimeouts {
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_ttl: Duration::from_millis(500),
            ..NetTimeouts::default()
        };
        assert!(bad.validate().is_err());
        let ok = NetTimeouts {
            heartbeat_ttl: Duration::from_millis(501),
            ..bad
        };
        ok.validate().unwrap();
        assert_eq!(ok.ttl_ms(), 501);
    }
}
