//! The paper's power-consumption model (§VI-B2).
//!
//! "Monitoring the actual real-time power consumption at app level [...]
//! is extremely challenging. We thus use power consumption modeling
//! approaches proposed by previous works": offline profiling measures
//! idle and peak power (CPU stressed to 100%; Wi-Fi saturated with
//! iperf), then run-time power is estimated "as a percentage of peak
//! based on the measured processor utilization" and data transmission
//! rate. [`PowerModel`] implements exactly that interpolation.

use crate::profile::DeviceProfile;

/// Utilization-interpolated power estimator for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// App-attributable CPU power at 100% utilization, watts.
    pub peak_cpu_w: f64,
    /// Wi-Fi power at peak transfer rate, watts.
    pub peak_wifi_w: f64,
    /// Idle baseline, watts (not charged to the app, used for battery
    /// lifetime estimates).
    pub idle_w: f64,
    /// Transfer rate that saturates the Wi-Fi radio, bytes per second.
    pub wifi_peak_rate_bps: f64,
}

impl PowerModel {
    /// Build the model from a device profile, with a 2.5 MB/s saturation
    /// rate typical of the paper's 802.11n 2.4 GHz setup.
    #[must_use]
    pub fn new(profile: &DeviceProfile) -> Self {
        PowerModel {
            peak_cpu_w: profile.peak_cpu_w,
            peak_wifi_w: profile.peak_wifi_w,
            idle_w: profile.idle_w,
            wifi_peak_rate_bps: 2_500_000.0,
        }
    }

    /// App-attributable CPU power at the given utilization (0..=1), watts.
    #[must_use]
    pub fn cpu_power_w(&self, app_utilization: f64) -> f64 {
        self.peak_cpu_w * app_utilization.clamp(0.0, 1.0)
    }

    /// Wi-Fi power at the given transfer rate (bytes/s, rx+tx), watts.
    #[must_use]
    pub fn wifi_power_w(&self, rate_bytes_per_sec: f64) -> f64 {
        let frac = (rate_bytes_per_sec / self.wifi_peak_rate_bps).clamp(0.0, 1.0);
        self.peak_wifi_w * frac
    }

    /// Combined app-attributable power (CPU + Wi-Fi), watts — the quantity
    /// plotted per device in the paper's Fig. 6.
    #[must_use]
    pub fn app_power_w(&self, app_utilization: f64, rate_bytes_per_sec: f64) -> f64 {
        self.cpu_power_w(app_utilization) + self.wifi_power_w(rate_bytes_per_sec)
    }

    /// Total device draw including the idle baseline, watts.
    #[must_use]
    pub fn total_power_w(&self, app_utilization: f64, rate_bytes_per_sec: f64) -> f64 {
        self.idle_w + self.app_power_w(app_utilization, rate_bytes_per_sec)
    }
}

/// Per-device energy ledger accumulated over an experiment, split into
/// the CPU and Wi-Fi components shown in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// CPU energy, joules.
    pub cpu_j: f64,
    /// Wi-Fi energy, joules.
    pub wifi_j: f64,
    /// Time accounted, seconds.
    pub elapsed_s: f64,
}

impl EnergyLedger {
    /// Charge `dt` seconds at the given utilization and transfer rate.
    pub fn charge(&mut self, model: &PowerModel, app_util: f64, rate_bps: f64, dt_s: f64) {
        self.cpu_j += model.cpu_power_w(app_util) * dt_s;
        self.wifi_j += model.wifi_power_w(rate_bps) * dt_s;
        self.elapsed_s += dt_s;
    }

    /// Mean CPU power over the accounted period, watts.
    #[must_use]
    pub fn mean_cpu_w(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.cpu_j / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Mean Wi-Fi power over the accounted period, watts.
    #[must_use]
    pub fn mean_wifi_w(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.wifi_j / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Mean total app power, watts.
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        self.mean_cpu_w() + self.mean_wifi_w()
    }

    /// Total energy, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.wifi_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::testbed;

    fn model(name: &str) -> PowerModel {
        let tb = testbed();
        PowerModel::new(tb.iter().find(|p| p.name == name).unwrap())
    }

    #[test]
    fn cpu_power_interpolates_linearly() {
        let m = model("H"); // peak 1.35 W
        assert_eq!(m.cpu_power_w(0.0), 0.0);
        assert!((m.cpu_power_w(0.5) - 0.675).abs() < 1e-9);
        assert!((m.cpu_power_w(1.0) - 1.35).abs() < 1e-9);
        assert!((m.cpu_power_w(7.0) - 1.35).abs() < 1e-9); // clamped
    }

    #[test]
    fn wifi_power_scales_with_rate_and_saturates() {
        let m = model("B"); // peak wifi 0.8 W at 2.5 MB/s
        assert_eq!(m.wifi_power_w(0.0), 0.0);
        let at_quarter = m.wifi_power_w(625_000.0);
        assert!((at_quarter - 0.2).abs() < 1e-9);
        assert!((m.wifi_power_w(10_000_000.0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cpu_dominates_wifi_for_face_workload() {
        // §VI-B2: "CPU power consumption dominates Wi-Fi power consumption".
        let m = model("G");
        // 3 FPS of 6 kB frames = 18 kB/s.
        let cpu = m.cpu_power_w(0.4);
        let wifi = m.wifi_power_w(18_000.0);
        assert!(cpu > 10.0 * wifi, "cpu {cpu} wifi {wifi}");
    }

    #[test]
    fn total_includes_idle_baseline() {
        let m = model("A");
        assert!((m.total_power_w(0.0, 0.0) - 0.35).abs() < 1e-9);
    }

    #[test]
    fn ledger_integrates_energy() {
        let m = model("I");
        let mut l = EnergyLedger::default();
        l.charge(&m, 0.5, 0.0, 10.0);
        l.charge(&m, 0.0, 2_500_000.0, 10.0);
        assert!((l.cpu_j - 0.5 * 1.4 * 10.0).abs() < 1e-9);
        assert!((l.wifi_j - 0.75 * 10.0).abs() < 1e-9);
        assert!((l.elapsed_s - 20.0).abs() < 1e-12);
        assert!((l.mean_power_w() - l.total_j() / 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_reports_zero_power() {
        let l = EnergyLedger::default();
        assert_eq!(l.mean_power_w(), 0.0);
        assert_eq!(l.total_j(), 0.0);
    }
}
