//! Device performance profiles calibrated to the paper's testbed.
//!
//! Table I of the paper characterizes nine devices running the face
//! recognition workload; [`testbed`] reproduces those numbers. Per-frame
//! voice-translation delays were not tabulated, so they are derived from
//! the face delays with a fixed workload ratio (speech recognition +
//! translation is roughly twice as heavy per frame as the face pipeline
//! in the open-source apps the paper uses).

/// The sensing workload a device executes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Workload {
    /// OpenCV-style face detection + recognition over 6.0 kB video frames.
    FaceRecognition,
    /// PocketSphinx + Apertium style voice translation over 72 kB audio
    /// frames.
    VoiceTranslation,
    /// A custom workload whose per-frame cost is given in milliseconds on
    /// the reference device (phone `H`, the fastest in the testbed); other
    /// devices scale it by their relative speed.
    Custom {
        /// Per-frame cost on the reference device, milliseconds.
        reference_ms: f64,
    },
}

impl Workload {
    /// Payload size per tuple in bytes (paper §VI-A: 6.0 kB video frames,
    /// 72.0 kB audio frames). Custom workloads default to the video size.
    #[must_use]
    pub fn frame_bytes(self) -> usize {
        match self {
            Workload::FaceRecognition => 6_000,
            Workload::VoiceTranslation => 72_000,
            Workload::Custom { .. } => 6_000,
        }
    }
}

/// How much heavier the voice pipeline is than the face pipeline per
/// frame, used to derive untabulated voice service times.
pub const VOICE_TO_FACE_RATIO: f64 = 2.2;

/// Reference face-recognition delay of the fastest testbed device (H),
/// used to scale custom workloads.
pub const REFERENCE_FACE_MS: f64 = 71.3;

/// Static performance and energy profile of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Testbed letter ("A".."I") or any short name.
    pub name: String,
    /// Device model string from Table I.
    pub model: String,
    /// Mean per-frame face-recognition processing delay, milliseconds
    /// (Table I row 2).
    pub face_ms: f64,
    /// Mean per-frame voice-translation processing delay, milliseconds.
    pub voice_ms: f64,
    /// CPU power at 100% utilization attributable to the app, watts
    /// (from the paper's offline stress profiling procedure).
    pub peak_cpu_w: f64,
    /// Wi-Fi power at peak transfer rate, watts (iperf profiling).
    pub peak_wifi_w: f64,
    /// Idle draw, watts (subtracted out by the paper's app-level model,
    /// kept for battery-life estimates).
    pub idle_w: f64,
    /// Battery capacity in joules.
    pub battery_j: f64,
}

impl DeviceProfile {
    /// Per-frame processing delay for `workload` on this device, in
    /// milliseconds.
    #[must_use]
    pub fn service_ms(&self, workload: Workload) -> f64 {
        match workload {
            Workload::FaceRecognition => self.face_ms,
            Workload::VoiceTranslation => self.voice_ms,
            Workload::Custom { reference_ms } => reference_ms * self.face_ms / REFERENCE_FACE_MS,
        }
    }

    /// Throughput capacity `1/W` in frames per second for `workload`.
    #[must_use]
    pub fn capacity_fps(&self, workload: Workload) -> f64 {
        1_000.0 / self.service_ms(workload)
    }

    /// Energy to process one frame at full utilization, joules.
    #[must_use]
    pub fn energy_per_frame_j(&self, workload: Workload) -> f64 {
        self.peak_cpu_w * self.service_ms(workload) / 1_000.0
    }

    /// Relative speed vs the reference device (H): `>1` is faster.
    #[must_use]
    pub fn speed_factor(&self) -> f64 {
        REFERENCE_FACE_MS / self.face_ms
    }
}

fn profile(
    name: &str,
    model: &str,
    face_ms: f64,
    peak_cpu_w: f64,
    peak_wifi_w: f64,
    battery_mah: f64,
) -> DeviceProfile {
    DeviceProfile {
        name: name.to_owned(),
        model: model.to_owned(),
        face_ms,
        voice_ms: face_ms * VOICE_TO_FACE_RATIO,
        peak_cpu_w,
        peak_wifi_w,
        idle_w: 0.35,
        // mAh at 3.7 V -> joules.
        battery_j: battery_mah * 3.7 * 3.6,
    }
}

/// A cloudlet node for the paper's "cloudlet mode" (§II: "Swing does
/// support cloudlet mode through Android virtual machines if a cloudlet
/// infrastructure is available"): a wall-powered server-class VM, ~6×
/// faster than the fastest phone. Power numbers reflect a small server
/// share; battery is effectively infinite.
#[must_use]
pub fn cloudlet() -> DeviceProfile {
    DeviceProfile {
        name: "CL".to_owned(),
        model: "Cloudlet VM".to_owned(),
        face_ms: 12.0,
        voice_ms: 12.0 * VOICE_TO_FACE_RATIO,
        peak_cpu_w: 9.0,
        peak_wifi_w: 1.0,
        idle_w: 0.0,
        battery_j: f64::INFINITY,
    }
}

/// The paper's nine-device testbed (§III): per-frame face delays from
/// Table I; power envelopes follow the device classes (older phones such
/// as the Galaxy S burn more energy per unit of work, which Fig. 6 relies
/// on: "slower devices tend to consume more power due to the inefficiency
/// of their processors").
///
/// Index 0 is device `A` (Galaxy S3) — the source/master in every
/// experiment, so Table I reports no processing delay for it; we give it
/// a mid-range profile.
#[must_use]
pub fn testbed() -> Vec<DeviceProfile> {
    vec![
        profile("A", "Galaxy S3", 85.0, 1.30, 0.75, 2_100.0),
        profile("B", "Galaxy Nexus", 92.9, 1.25, 0.80, 1_750.0),
        profile("C", "Insignia7", 121.6, 1.10, 0.70, 3_000.0),
        profile("D", "NeuTab7", 167.7, 1.05, 0.65, 2_800.0),
        profile("E", "Galaxy S", 463.4, 1.20, 0.85, 1_500.0),
        profile("F", "DragonTouch", 166.4, 1.00, 0.65, 2_800.0),
        profile("G", "Galaxy Nexus", 82.2, 1.25, 0.80, 1_750.0),
        profile("H", "LG Nexus4", 71.3, 1.35, 0.70, 2_100.0),
        profile("I", "Galaxy Note2", 78.0, 1.40, 0.75, 3_100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_table_i_delays() {
        let tb = testbed();
        assert_eq!(tb.len(), 9);
        let by_name = |n: &str| tb.iter().find(|p| p.name == n).unwrap();
        assert_eq!(by_name("B").face_ms, 92.9);
        assert_eq!(by_name("C").face_ms, 121.6);
        assert_eq!(by_name("D").face_ms, 167.7);
        assert_eq!(by_name("E").face_ms, 463.4);
        assert_eq!(by_name("F").face_ms, 166.4);
        assert_eq!(by_name("G").face_ms, 82.2);
        assert_eq!(by_name("H").face_ms, 71.3);
        assert_eq!(by_name("I").face_ms, 78.0);
    }

    #[test]
    fn throughputs_match_table_i_row_three() {
        // Table I row 3 rounds 1/W to whole FPS: H=13, E=2, etc.
        let tb = testbed();
        let fps = |n: &str| {
            tb.iter()
                .find(|p| p.name == n)
                .unwrap()
                .capacity_fps(Workload::FaceRecognition)
        };
        assert!((fps("H") - 14.0).abs() < 1.1); // 1000/71.3 = 14.02
        assert!((fps("E") - 2.2).abs() < 0.3);
        assert!((fps("B") - 10.8).abs() < 0.5);
    }

    #[test]
    fn heterogeneity_spread_is_about_six_x() {
        // "the fastest phone H reports throughput that is 6 times higher
        // than that of the slowest phone E" (§III).
        let tb = testbed();
        let h = tb.iter().find(|p| p.name == "H").unwrap();
        let e = tb.iter().find(|p| p.name == "E").unwrap();
        let ratio =
            h.capacity_fps(Workload::FaceRecognition) / e.capacity_fps(Workload::FaceRecognition);
        assert!((5.5..7.5).contains(&ratio), "spread {ratio}");
    }

    #[test]
    fn no_single_device_sustains_24_fps() {
        // The motivating observation of Fig. 1.
        for p in testbed() {
            assert!(
                p.capacity_fps(Workload::FaceRecognition) < 24.0,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn voice_is_heavier_than_face() {
        for p in testbed() {
            assert!(p.voice_ms > p.face_ms);
            assert!((p.voice_ms / p.face_ms - VOICE_TO_FACE_RATIO).abs() < 1e-9);
        }
    }

    #[test]
    fn custom_workload_scales_with_device_speed() {
        let tb = testbed();
        let h = tb.iter().find(|p| p.name == "H").unwrap();
        let e = tb.iter().find(|p| p.name == "E").unwrap();
        let w = Workload::Custom {
            reference_ms: 100.0,
        };
        assert!((h.service_ms(w) - 100.0).abs() < 1e-9);
        // E is ~6.5x slower than H.
        assert!(e.service_ms(w) > 600.0);
    }

    #[test]
    fn slow_devices_burn_more_energy_per_frame() {
        // Fig. 6's driver: E uses far more energy per frame than I.
        let tb = testbed();
        let e = tb.iter().find(|p| p.name == "E").unwrap();
        let i = tb.iter().find(|p| p.name == "I").unwrap();
        let w = Workload::FaceRecognition;
        assert!(e.energy_per_frame_j(w) > 3.0 * i.energy_per_frame_j(w));
    }

    #[test]
    fn frame_sizes_match_paper() {
        assert_eq!(Workload::FaceRecognition.frame_bytes(), 6_000);
        assert_eq!(Workload::VoiceTranslation.frame_bytes(), 72_000);
    }

    #[test]
    fn cloudlet_outclasses_every_phone() {
        let cl = cloudlet();
        for p in testbed() {
            assert!(
                cl.capacity_fps(Workload::FaceRecognition)
                    > 5.0 * p.capacity_fps(Workload::FaceRecognition)
            );
        }
        // A single cloudlet sustains the 24 FPS target alone.
        assert!(cl.capacity_fps(Workload::FaceRecognition) > 24.0);
    }

    #[test]
    fn speed_factor_is_relative_to_h() {
        let tb = testbed();
        let h = tb.iter().find(|p| p.name == "H").unwrap();
        assert!((h.speed_factor() - 1.0).abs() < 1e-9);
        let e = tb.iter().find(|p| p.name == "E").unwrap();
        assert!(e.speed_factor() < 0.2);
    }
}
