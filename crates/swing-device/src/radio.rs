//! 802.11 rate adaptation: mapping signal strength to link quality.
//!
//! §III of the paper observes that "Wi-Fi signal strength primarily
//! affects network transmission delay" (Fig. 2), and §VI-B1 explains the
//! mechanism: "the TCP and Wi-Fi rate adaptation protocols require the
//! sender to lower network transmission rates for the devices in weak
//! signal locations, which directly reduces throughput and increases
//! latency". [`link_quality`] reproduces that mapping: goodput collapses
//! and per-frame overhead grows as RSSI drops, and the association breaks
//! entirely out of range.
//!
//! Goodputs are application-level (after MAC/TCP overhead) for a single
//! 802.11n 2.4 GHz spatial stream like the testbed's Linksys E1200. The
//! Poor band is tuned so a 24 FPS / 6 kB stream (144 kB/s) slightly
//! overloads the link — producing the seconds-scale sender-queue delays
//! of Fig. 2 without diverging.

use crate::mobility::SignalZone;

/// Link parameters derived from signal strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Application-level goodput, bytes per second.
    pub goodput_bps: f64,
    /// Fixed per-tuple overhead (MAC contention, TCP ACK clocking,
    /// retransmissions), microseconds.
    pub base_delay_us: u64,
    /// Relative jitter applied to transmission times (0.1 = ±10%).
    pub jitter: f64,
    /// Whether the device is associated at all.
    pub connected: bool,
}

impl LinkQuality {
    /// Time to push `bytes` through this link, excluding queueing and
    /// jitter, microseconds.
    #[must_use]
    pub fn transmission_us(&self, bytes: usize) -> u64 {
        if !self.connected {
            return u64::MAX;
        }
        self.base_delay_us + (bytes as f64 / self.goodput_bps * 1_000_000.0) as u64
    }
}

/// Map an RSSI reading to link quality via the zone bands.
#[must_use]
pub fn link_quality(rssi_dbm: f64) -> LinkQuality {
    match SignalZone::from_rssi(rssi_dbm) {
        SignalZone::Good => LinkQuality {
            goodput_bps: 2_500_000.0,
            base_delay_us: 3_000,
            jitter: 0.10,
            connected: true,
        },
        SignalZone::Fair => LinkQuality {
            goodput_bps: 800_000.0,
            base_delay_us: 10_000,
            jitter: 0.15,
            connected: true,
        },
        SignalZone::Weak => LinkQuality {
            goodput_bps: 120_000.0,
            base_delay_us: 30_000,
            jitter: 0.30,
            connected: true,
        },
        SignalZone::Poor => LinkQuality {
            goodput_bps: 7_000.0,
            base_delay_us: 80_000,
            jitter: 0.50,
            connected: true,
        },
        SignalZone::OutOfRange => LinkQuality {
            goodput_bps: 0.0,
            base_delay_us: u64::MAX,
            jitter: 0.0,
            connected: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_degrades_monotonically_with_signal() {
        let good = link_quality(SignalZone::Good.rssi_dbm());
        let fair = link_quality(SignalZone::Fair.rssi_dbm());
        let weak = link_quality(SignalZone::Weak.rssi_dbm());
        let poor = link_quality(SignalZone::Poor.rssi_dbm());
        assert!(good.goodput_bps > fair.goodput_bps);
        assert!(fair.goodput_bps > weak.goodput_bps);
        assert!(weak.goodput_bps > poor.goodput_bps);
        assert!(good.base_delay_us < poor.base_delay_us);
        assert!(good.jitter < poor.jitter);
    }

    #[test]
    fn good_link_carries_24fps_video_easily() {
        // 24 FPS x 6 kB = 144 kB/s offered load.
        let q = link_quality(-28.0);
        let per_frame = q.transmission_us(6_000);
        // Airtime per frame must be well under the 41.6 ms frame gap.
        assert!(per_frame < 10_000, "per-frame {per_frame} us");
    }

    #[test]
    fn poor_link_sustains_only_a_few_fps() {
        // §VI-B1: TCP/Wi-Fi rate adaptation collapses throughput toward
        // weak-signal devices. A poor-signal destination can take only
        // ~2-4 video frames per second — this is what lets a single
        // weak-signal device stall round-robin dispatch in Fig 4.
        let q = link_quality(-75.0);
        let per_frame_us = q.transmission_us(6_000) as f64;
        let fps = 1_000_000.0 / per_frame_us;
        assert!((0.7..2.0).contains(&fps), "poor-link capacity {fps} FPS");
    }

    #[test]
    fn voice_frames_strain_even_good_links() {
        // 24 FPS x 72 kB = 1.73 MB/s vs 2.5 MB/s goodput: voice nearly
        // saturates a good link, which is why no policy reaches 24 FPS
        // for the voice app in Fig 4.
        let q = link_quality(-28.0);
        let per_frame_us = q.transmission_us(72_000) as f64;
        let utilization = per_frame_us / (1_000_000.0 / 24.0);
        assert!(
            (0.6..1.2).contains(&utilization),
            "utilization {utilization}"
        );
    }

    #[test]
    fn out_of_range_disconnects() {
        let q = link_quality(-92.0);
        assert!(!q.connected);
        assert_eq!(q.transmission_us(1), u64::MAX);
    }

    #[test]
    fn transmission_scales_linearly_with_size() {
        let q = link_quality(-28.0);
        let small = q.transmission_us(6_000) - q.base_delay_us;
        let large = q.transmission_us(60_000) - q.base_delay_us;
        let ratio = large as f64 / small as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
    }
}
