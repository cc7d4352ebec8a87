//! CPU service-time and utilization model.
//!
//! The paper's §III dynamism study shows that a competing
//! compute-intensive task inflates per-frame processing delay (Fig. 2,
//! middle panel): the busier the processor, the longer each frame takes.
//! [`CpuModel`] reproduces that effect with a contention multiplier and
//! adds small multiplicative jitter so service times are noisy like real
//! measurements.

use crate::profile::{DeviceProfile, Workload};
use swing_core::rng::DetRng;

/// Strength of background contention: at 100% background load a frame
/// takes `1 / (1 - CONTENTION * 1.0)` ≈ 3.3× its unloaded time, matching
/// the growth observed in Fig. 2 (≈180 ms at 20% CPU to ≈550 ms at 100%).
const CONTENTION: f64 = 0.7;

/// Relative standard deviation of service-time jitter.
const JITTER: f64 = 0.08;

/// Utilization the Swing services themselves (serialization, OS work)
/// add on a device that participates in a swarm; the paper measures
/// ~14% per device.
pub const FRAMEWORK_OVERHEAD_UTIL: f64 = 0.14;

/// Per-device CPU model producing service times and utilization readings.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    base_ms: f64,
    /// Fraction of CPU consumed by other apps / OS background work, 0..=1.
    background_load: f64,
    /// Fixed framework overhead (Swing services, serialization, OS) added
    /// to utilization readings when the device participates in a swarm.
    /// The paper measures ~14% additional utilization per device.
    overhead_util: f64,
}

impl CpuModel {
    /// Build the model for one device and workload.
    #[must_use]
    pub fn new(profile: &DeviceProfile, workload: Workload) -> Self {
        CpuModel {
            base_ms: profile.service_ms(workload),
            background_load: 0.0,
            overhead_util: FRAMEWORK_OVERHEAD_UTIL,
        }
    }

    /// Build a model straight from a base service time in milliseconds.
    #[must_use]
    pub fn from_base_ms(base_ms: f64) -> Self {
        CpuModel {
            base_ms,
            background_load: 0.0,
            overhead_util: FRAMEWORK_OVERHEAD_UTIL,
        }
    }

    /// Set the background CPU load (0..=1), e.g. another benchmark app.
    pub fn set_background_load(&mut self, load: f64) {
        self.background_load = load.clamp(0.0, 1.0);
    }

    /// Current background load.
    #[must_use]
    pub fn background_load(&self) -> f64 {
        self.background_load
    }

    /// Override the framework overhead utilization (default 14%).
    pub fn set_overhead_util(&mut self, overhead: f64) {
        self.overhead_util = overhead.clamp(0.0, 1.0);
    }

    /// Unloaded per-frame service time, milliseconds.
    #[must_use]
    pub fn base_ms(&self) -> f64 {
        self.base_ms
    }

    /// Deterministic expected service time under the current background
    /// load, milliseconds.
    #[must_use]
    pub fn expected_service_ms(&self) -> f64 {
        self.base_ms / (1.0 - CONTENTION * self.background_load)
    }

    /// Draw one service time, microseconds (expected value with
    /// multiplicative Gaussian-ish jitter, never below 10% of base).
    pub fn sample_service_us(&self, rng: &mut DetRng) -> u64 {
        let expected = self.expected_service_ms();
        // Sum of uniforms approximates a normal; cheap and seedable.
        let noise: f64 = (0..4).map(|_| rng.random_range(-0.5..0.5)).sum::<f64>() / 2.0;
        let ms = expected * (1.0 + JITTER * 2.0 * noise);
        (ms.max(self.base_ms * 0.1) * 1_000.0) as u64
    }

    /// CPU utilization reading for a device processing `arrival_fps`
    /// frames per second, as the paper's `top`-based monitor would report:
    /// app compute share + framework overhead + background load, capped
    /// at 100%.
    #[must_use]
    pub fn utilization(&self, arrival_fps: f64) -> f64 {
        let compute = (arrival_fps * self.base_ms / 1_000.0).max(0.0);
        let overhead = if arrival_fps > 0.0 {
            self.overhead_util
        } else {
            0.0
        };
        (compute + overhead + self.background_load).min(1.0)
    }

    /// The app-attributable share of utilization (excludes background
    /// load), used by the power model to charge energy to Swing.
    #[must_use]
    pub fn app_utilization(&self, arrival_fps: f64) -> f64 {
        let compute = (arrival_fps * self.base_ms / 1_000.0).max(0.0);
        let overhead = if arrival_fps > 0.0 {
            self.overhead_util
        } else {
            0.0
        };
        (compute + overhead).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::testbed;
    use swing_core::rng::DetRng;

    fn model(name: &str) -> CpuModel {
        let tb = testbed();
        let p = tb.iter().find(|p| p.name == name).unwrap();
        CpuModel::new(p, Workload::FaceRecognition)
    }

    #[test]
    fn unloaded_service_equals_table_delay() {
        let m = model("B");
        assert!((m.expected_service_ms() - 92.9).abs() < 1e-9);
    }

    #[test]
    fn background_load_inflates_delay_like_fig2() {
        let mut m = model("D"); // 167.7 ms base, like Fig 2's ~180 ms
        m.set_background_load(0.2);
        let at20 = m.expected_service_ms();
        m.set_background_load(0.6);
        let at60 = m.expected_service_ms();
        m.set_background_load(1.0);
        let at100 = m.expected_service_ms();
        assert!(at20 < at60 && at60 < at100);
        // Fig 2 shape: ~1.2x at 20%, ~3x+ at 100%.
        assert!((at20 / 167.7 - 1.16).abs() < 0.1);
        assert!(at100 / 167.7 > 2.5);
    }

    #[test]
    fn jittered_samples_center_on_expectation() {
        let m = model("H");
        let mut rng = DetRng::seed_from_u64(11);
        let n = 2_000;
        let mean_us: f64 = (0..n)
            .map(|_| m.sample_service_us(&mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let expected_us = m.expected_service_ms() * 1_000.0;
        assert!(
            (mean_us - expected_us).abs() / expected_us < 0.03,
            "mean {mean_us} vs expected {expected_us}"
        );
    }

    #[test]
    fn samples_are_never_degenerate() {
        let m = model("E");
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let s = m.sample_service_us(&mut rng);
            assert!(s > 46_000, "sample {s} below 10% of base");
        }
    }

    #[test]
    fn utilization_grows_with_load_and_saturates() {
        let m = model("E"); // 463 ms per frame
        assert_eq!(m.utilization(0.0), 0.0);
        let u1 = m.utilization(1.0);
        assert!((u1 - (0.4634 + 0.14)).abs() < 1e-6);
        // 3 FPS on E needs 139% CPU -> pegged at 100%.
        assert_eq!(m.utilization(3.0), 1.0);
    }

    #[test]
    fn weak_devices_saturate_where_strong_ones_idle() {
        // Fig 5: under RR the same 3 FPS share pegs E but barely loads I.
        let weak = model("E");
        let strong = model("I");
        assert_eq!(weak.utilization(3.0), 1.0);
        assert!(strong.utilization(3.0) < 0.45);
    }

    #[test]
    fn app_utilization_excludes_background() {
        let mut m = model("B");
        m.set_background_load(0.5);
        let total = m.utilization(2.0);
        let app = m.app_utilization(2.0);
        assert!((total - app - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overhead_only_charged_when_active() {
        let m = model("H");
        assert_eq!(m.app_utilization(0.0), 0.0);
        assert!(m.app_utilization(0.1) > 0.14);
    }
}
