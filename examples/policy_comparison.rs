//! Compare every routing policy — the paper's five plus the three
//! energy-aware extensions — on the simulated nine-device testbed (the
//! paper's Fig. 4 setup) in a few seconds of wall time.
//!
//! ```sh
//! cargo run --release --example policy_comparison -- [face|voice] [seconds]
//! ```
//!
//! Set `SWING_TELEMETRY_OUT=<path>` to also write the LRS run's
//! telemetry snapshot as JSON: the engine's own registry, the same
//! schema a live swarm exports, so one dashboard reads both.

use swing::device::profile::Workload;
use swing::prelude::*;
use swing::sim::experiments::evaluation_run;

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = match args.next().as_deref() {
        Some("voice") => Workload::VoiceTranslation,
        _ => Workload::FaceRecognition,
    };
    let seconds: u64 = args
        .next()
        .map(|s| s.parse().expect("seconds"))
        .unwrap_or(60);

    println!(
        "policy comparison, {} workload, {seconds} simulated seconds, 24 FPS offered",
        match workload {
            Workload::VoiceTranslation => "voice-translation",
            _ => "face-recognition",
        }
    );
    println!(
        "{:<7} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "policy", "FPS", "lat mean ms", "lat max ms", "devices", "FPS/W"
    );
    let mut lrs_snapshot = None;
    let mut baseline_fps = None;
    let mut baseline_lat = None;
    for policy in Policy::EXTENDED {
        let r = evaluation_run(policy, workload, seconds, 1);
        if policy == Policy::Rr {
            baseline_fps = Some(r.throughput_fps);
            baseline_lat = Some(r.latency_ms.mean());
        }
        println!(
            "{:<7} {:>12.1} {:>12.0} {:>12.0} {:>10} {:>10.2}",
            policy.to_string(),
            r.throughput_fps,
            r.latency_ms.mean(),
            r.latency_ms.max(),
            r.active_workers(30),
            r.fps_per_watt()
        );
        if policy == Policy::Lrs {
            lrs_snapshot = Some(swing::telemetry::to_json(&r.telemetry));
            if let (Some(bf), Some(bl)) = (baseline_fps, baseline_lat) {
                println!(
                    "        -> LRS vs RR: {:.1}x throughput, {:.1}x lower mean latency (paper: 2.7x / 6.7x)",
                    r.throughput_fps / bf,
                    bl / r.latency_ms.mean()
                );
            }
        }
    }
    if let (Ok(path), Some(json)) = (std::env::var("SWING_TELEMETRY_OUT"), lrs_snapshot) {
        std::fs::write(&path, json).expect("write telemetry JSON");
        println!("telemetry snapshot (LRS run) written to {path}");
    }
}
