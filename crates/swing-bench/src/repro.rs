//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `fig*`/`table*` function runs the corresponding experiment on
//! the simulator and renders the series the paper plots. Absolute
//! numbers differ from the paper (our substrate is a calibrated
//! simulator, not the authors' phones); the *shapes* — who wins, by
//! roughly what factor, where crossovers fall — are asserted by the
//! integration tests in `tests/`.

use crate::fmt::{f0, f1, f2, Table};
use swing_core::routing::Policy;
use swing_device::mobility::SignalZone;
use swing_device::profile::Workload;
use swing_sim::experiments::{
    evaluation_run, fig2_condition, joining_run, leaving_run, mobility_run, single_device,
    Fig2Variable, WORKER_LETTERS,
};
use swing_sim::{FrameRecord, SwarmReport};

/// Seed shared by all reproduction runs.
pub const SEED: u64 = 1;
/// Simulated duration of the Fig. 4–8 policy-comparison runs, seconds.
/// (The paper runs 10 minutes; 120 simulated seconds reaches the same
/// steady state and keeps `cargo bench` fast.)
pub const EVAL_SECS: u64 = 120;

/// Figure 1: per-frame total delay over time on each single device at
/// 24 FPS offered load.
#[must_use]
pub fn fig1() -> String {
    let mut out = String::from(
        "Fig 1: Delay per frame when processed on different phones at 24 FPS load.\n\
         Rows: seconds since start; cells: mean end-to-end delay (ms) of frames\n\
         completed in that second. Delays build up on every device.\n\n",
    );
    let devices = ["B", "C", "D", "E", "F", "G", "H", "I"];
    let mut table = Table::new(
        std::iter::once("t(s)".to_owned()).chain(devices.iter().map(|d| (*d).to_owned())),
    );
    let reports: Vec<SwarmReport> = devices.iter().map(|d| single_device(d, 5, SEED)).collect();
    for sec in 0..5u64 {
        let mut cells = vec![format!("{}", sec + 1)];
        for r in &reports {
            let (mut sum, mut n) = (0.0, 0u64);
            for f in &r.frames {
                if let (Some(t), Some(e2e)) = (f.sink_us, f.e2e_us()) {
                    if t / 1_000_000 == sec {
                        sum += e2e as f64 / 1_000.0;
                        n += 1;
                    }
                }
            }
            cells.push(if n > 0 {
                f0(sum / n as f64)
            } else {
                "-".into()
            });
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out
}

/// Table I: per-device processing delay and throughput capacity.
#[must_use]
pub fn table1() -> String {
    let mut out = String::from(
        "Table I: Performance heterogeneity (measured on the simulated devices\n\
         at 24 FPS offered face-recognition load, 60 s).\n\n",
    );
    let mut table = Table::new([
        "Phone",
        "Model",
        "Processing delay (ms)",
        "Throughput (FPS)",
    ]);
    for letter in WORKER_LETTERS {
        let report = single_device(letter, 60, SEED);
        let proc = report.mean_component_ms(FrameRecord::processing_us);
        let profile = swing_sim::experiments::device(letter);
        table.row([
            letter.to_owned(),
            profile.model,
            f1(proc),
            f0(report.throughput_fps),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Figure 2: decomposition of delays in remote face-recognition
/// processing under varying signal strength, CPU usage and input rate.
#[must_use]
pub fn fig2() -> String {
    let mut out =
        String::from("Fig 2: Decomposition of delays in remote processing (A sends to B).\n\n");
    let dur = 60;

    let mut t = Table::new([
        "Signal",
        "Transmission (ms)",
        "Processing (ms)",
        "Queuing (ms)",
    ]);
    for (label, zone) in [
        ("Good", SignalZone::Good),
        ("Fair", SignalZone::Weak),
        ("Bad", SignalZone::Poor),
    ] {
        let r = fig2_condition(Fig2Variable::Signal(zone), dur, SEED);
        t.row([
            label.to_owned(),
            f0(r.transmission_ms),
            f0(r.processing_ms),
            f0(r.queuing_ms),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new([
        "CPU usage",
        "Transmission (ms)",
        "Processing (ms)",
        "Queuing (ms)",
    ]);
    for load in [0.2, 0.6, 1.0] {
        let r = fig2_condition(Fig2Variable::CpuLoad(load), dur, SEED);
        t.row([
            r.label.clone(),
            f0(r.transmission_ms),
            f0(r.processing_ms),
            f0(r.queuing_ms),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new([
        "Input rate",
        "Transmission (ms)",
        "Processing (ms)",
        "Queuing (ms)",
    ]);
    for fps in [5.0, 10.0, 20.0] {
        let r = fig2_condition(Fig2Variable::InputFps(fps), dur, SEED);
        t.row([
            r.label.clone(),
            f0(r.transmission_ms),
            f0(r.processing_ms),
            f0(r.queuing_ms),
        ]);
    }
    out.push_str(&t.render());
    out
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::FaceRecognition => "Face Recognition",
        Workload::VoiceTranslation => "Voice Translation",
        _ => "Custom",
    }
}

/// Figure 4: throughput and per-frame latency statistics per policy.
#[must_use]
pub fn fig4() -> String {
    let mut out = String::from(
        "Fig 4: Average system throughput and min/max/mean/stddev of per-frame\n\
         latency under each routing policy (9 devices, B/C/D at poor signal,\n\
         24 FPS offered).\n\n",
    );
    for workload in [Workload::FaceRecognition, Workload::VoiceTranslation] {
        out.push_str(workload_name(workload));
        out.push('\n');
        let mut t = Table::new([
            "Policy",
            "Throughput (FPS)",
            "Lat min (ms)",
            "Lat max (ms)",
            "Lat mean (ms)",
            "Lat stddev (ms)",
        ]);
        for policy in Policy::ALL {
            let r = evaluation_run(policy, workload, EVAL_SECS, SEED);
            t.row([
                policy.to_string(),
                f1(r.throughput_fps),
                f0(r.latency_ms.min()),
                f0(r.latency_ms.max()),
                f0(r.latency_ms.mean()),
                f0(r.latency_ms.std_dev()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 5: per-device CPU utilization and input data rate per policy.
#[must_use]
pub fn fig5() -> String {
    let mut out = String::from(
        "Fig 5: Resource usage (CPU %) and input data rate (FPS) of each device\n\
         under each policy.\n\n",
    );
    for workload in [Workload::FaceRecognition, Workload::VoiceTranslation] {
        out.push_str(workload_name(workload));
        out.push('\n');
        let mut cpu = Table::new(
            std::iter::once("Policy".to_owned())
                .chain(WORKER_LETTERS.iter().map(|d| format!("{d} cpu%"))),
        );
        let mut rate = Table::new(
            std::iter::once("Policy".to_owned())
                .chain(WORKER_LETTERS.iter().map(|d| format!("{d} fps"))),
        );
        for policy in Policy::ALL {
            let r = evaluation_run(policy, workload, EVAL_SECS, SEED);
            cpu.row(
                std::iter::once(policy.to_string())
                    .chain(r.workers.iter().map(|w| f0(w.cpu_util * 100.0))),
            );
            rate.row(
                std::iter::once(policy.to_string())
                    .chain(r.workers.iter().map(|w| f1(w.input_fps))),
            );
        }
        out.push_str(&cpu.render());
        out.push('\n');
        out.push_str(&rate.render());
        out.push('\n');
    }
    out
}

/// Figure 6: per-device CPU and Wi-Fi power, with per-policy aggregates.
#[must_use]
pub fn fig6() -> String {
    let mut out = String::from(
        "Fig 6: Estimated power consumption per device (CPU + WiFi components)\n\
         and aggregate across all devices (the number the paper prints above\n\
         each group).\n\n",
    );
    for workload in [Workload::FaceRecognition, Workload::VoiceTranslation] {
        out.push_str(workload_name(workload));
        out.push('\n');
        let mut t = Table::new(
            std::iter::once("Policy".to_owned())
                .chain(WORKER_LETTERS.iter().map(|d| format!("{d} (W)")))
                .chain(["TOTAL (W)".to_owned()]),
        );
        for policy in Policy::ALL {
            let r = evaluation_run(policy, workload, EVAL_SECS, SEED);
            t.row(
                std::iter::once(policy.to_string())
                    .chain(r.workers.iter().map(|w| f2(w.power_w())))
                    .chain([f2(r.aggregate_power_w())]),
            );
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 7: energy efficiency (FPS per Watt) per policy.
#[must_use]
pub fn fig7() -> String {
    let mut out = String::from("Fig 7: Efficiency of routing schemes (FPS per Watt).\n\n");
    let mut t = Table::new(["Policy", "Face (FPS/W)", "Voice (FPS/W)"]);
    for policy in Policy::ALL {
        let face = evaluation_run(policy, Workload::FaceRecognition, EVAL_SECS, SEED);
        let voice = evaluation_run(policy, Workload::VoiceTranslation, EVAL_SECS, SEED);
        t.row([
            policy.to_string(),
            f2(face.fps_per_watt()),
            f2(voice.fps_per_watt()),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Fraction of sink arrivals that are out of order, plus reorder stats.
fn ordering_stats(r: &SwarmReport) -> (f64, u64, f64) {
    let mut arrivals: Vec<(u64, u64)> = r
        .frames
        .iter()
        .filter_map(|f| f.sink_us.map(|t| (t, f.seq)))
        .collect();
    arrivals.sort_unstable();
    let mut inversions = 0u64;
    let mut max_seq = 0u64;
    for &(_, seq) in &arrivals {
        if seq < max_seq {
            inversions += 1;
        } else {
            max_seq = seq;
        }
    }
    let inv_frac = inversions as f64 / arrivals.len().max(1) as f64;
    // Mean extra delay the reorder buffer added before playback.
    let (mut wait, mut n) = (0.0f64, 0u64);
    for f in &r.frames {
        if let (Some(sink), Some(played)) = (f.sink_us, f.played_us) {
            wait += played.saturating_sub(sink) as f64 / 1_000.0;
            n += 1;
        }
    }
    let mean_wait = if n > 0 { wait / n as f64 } else { 0.0 };
    (inv_frac, r.reorder_skipped, mean_wait)
}

/// Figure 8: frame-ordering quality per policy (the paper plots arrival
/// scatter + reordered playback; we report the summary statistics of the
/// same traces).
#[must_use]
pub fn fig8() -> String {
    let mut out = String::from(
        "Fig 8: Ordering of frames at the sink (face recognition, 1 s reorder\n\
         buffer). Out-of-order = fraction of sink arrivals below the running\n\
         max sequence; skipped = frames playback gave up on; buffer wait =\n\
         mean extra delay added by reordering.\n\n",
    );
    let mut t = Table::new([
        "Policy",
        "Out-of-order (%)",
        "Skipped frames",
        "Buffer wait (ms)",
    ]);
    for policy in Policy::ALL {
        let r = evaluation_run(policy, Workload::FaceRecognition, EVAL_SECS, SEED);
        let (inv, skipped, wait) = ordering_stats(&r);
        t.row([
            policy.to_string(),
            f1(inv * 100.0),
            skipped.to_string(),
            f0(wait),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 9: throughput timeline while a device joins / leaves.
#[must_use]
pub fn fig9() -> String {
    let mut out = String::from(
        "Fig 9: Throughput changes when a device joins (B,D running; G joins at\n\
         t=10s) and leaves (B,G,H running; G killed at t=10s).\n\n",
    );
    let join = joining_run(10, 30, SEED);
    let leave = leaving_run(10, 30, SEED);
    let mut t = Table::new(["t(s)", "join FPS", "leave FPS"]);
    for i in 0..30 {
        t.row([
            format!("{}", i + 1),
            f1(join.timeline[i].total_fps),
            f1(leave.timeline[i].total_fps),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nframes lost during the leave transition: {}\n",
        leave.lost
    ));
    out
}

/// Figure 10: throughput and per-device load while G walks from good to
/// weak to poor signal.
#[must_use]
pub fn fig10() -> String {
    let dwell = 20;
    let r = mobility_run(dwell, SEED);
    let mut out = String::from(
        "Fig 10: Throughput and load changes when device G moves (B,G,H running\n\
         LRS; G dwells in Good, then Weak (-70..-60dBm), then Poor (-80..-70dBm)).\n\n",
    );
    let mut t = Table::new([
        "t(s)",
        "total FPS",
        "B FPS",
        "G FPS",
        "H FPS",
        "G RSSI (dBm)",
    ]);
    for p in &r.timeline {
        t.row([
            f0(p.t_s),
            f1(p.total_fps),
            f1(p.per_worker_fps[0]),
            f1(p.per_worker_fps[1]),
            f1(p.per_worker_fps[2]),
            f0(p.per_worker_rssi[1]),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Extension: cloudlet mode (§II). Compares the phone-only evaluation
/// swarm against the same swarm with one wall-powered cloudlet VM.
#[must_use]
pub fn cloudlet() -> String {
    use swing_sim::experiments::cloudlet_run;
    let mut out = String::from(
        "Extension: cloudlet mode (paper §II — \"Swing does support cloudlet\n\
         mode ... if a cloudlet infrastructure is available\").\n\
         Face recognition, 24 FPS offered, LRS.\n\n",
    );
    let mut t = Table::new([
        "Swarm",
        "FPS",
        "Lat mean (ms)",
        "Lat p95 (ms)",
        "Phone power (W)",
        "Cloudlet share",
    ]);
    let phones = evaluation_run(Policy::Lrs, Workload::FaceRecognition, EVAL_SECS, SEED);
    t.row([
        "phones only".to_owned(),
        f1(phones.throughput_fps),
        f0(phones.latency_ms.mean()),
        f0(phones.latency_percentile_ms(0.95)),
        f2(phones.aggregate_power_w()),
        "-".to_owned(),
    ]);
    let with_cl = cloudlet_run(Policy::Lrs, Workload::FaceRecognition, EVAL_SECS, SEED);
    let total: u64 = with_cl.workers.iter().map(|w| w.received).sum();
    let cl = with_cl.workers.iter().find(|w| w.name == "CL").unwrap();
    let phone_power: f64 = with_cl
        .workers
        .iter()
        .filter(|w| w.name != "CL")
        .map(|w| w.power_w())
        .sum();
    t.row([
        "phones + cloudlet".to_owned(),
        f1(with_cl.throughput_fps),
        f0(with_cl.latency_ms.mean()),
        f0(with_cl.latency_percentile_ms(0.95)),
        f2(phone_power),
        format!("{:.0}%", cl.received as f64 * 100.0 / total.max(1) as f64),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nThe cloudlet absorbs most of the stream, cutting latency and\n\
         sparing the phones' batteries — the offload preference emerges\n\
         from LRS's latency measurements alone, with no special casing.\n",
    );
    out
}

/// Extension: multi-stage pipeline placement study (the paper's full
/// programming model with LRS at every upstream instance).
#[must_use]
pub fn pipeline_study() -> String {
    use swing_core::routing::RouterConfig;
    use swing_sim::experiments::device;
    use swing_sim::{Scenario, WorkerSpec};

    // Per-stage cost on the reference device (H); other devices scale
    // by their speed. No TCP-window back-pressure: the study isolates
    // placement, so queues grow where a stage is the bottleneck.
    let stages = [
        ("detect", Workload::Custom { reference_ms: 60.0 }),
        ("recognize", Workload::Custom { reference_ms: 50.0 }),
    ];
    let mut scenario = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
    scenario.seed = SEED;
    scenario.dest_window_bytes = 64 * 1024 * 1024;
    let worker = |letter: &str| WorkerSpec::new(device(letter));

    let mut out = String::from(
        "Extension: multi-stage deployment of the four-unit face pipeline\n\
         (camera -> detect -> recognize -> display) with a distributed LRS\n\
         router at every upstream instance. 24 FPS offered, 60 s.\n\n",
    );
    let mut t = Table::new([
        "Placement",
        "FPS",
        "Lat mean (ms)",
        "detect ms",
        "recognize ms",
    ]);
    let placements = [
        // (a) Stage-per-device chain.
        (
            "chain (1 device/stage)",
            vec![
                (worker("H"), vec!["detect"]),
                (worker("I"), vec!["recognize"]),
            ],
        ),
        // (b) Replicated stages across four workers.
        (
            "replicated (2x2 workers)",
            vec![
                (worker("G"), vec!["detect"]),
                (worker("H"), vec!["detect"]),
                (worker("I"), vec!["recognize"]),
                (worker("B"), vec!["recognize"]),
            ],
        ),
        // (c) Fused stages, replicated on every worker.
        (
            "fused on each worker",
            ["G", "H", "I", "B"]
                .iter()
                .map(|l| (worker(l), vec!["detect", "recognize"]))
                .collect(),
        ),
    ];
    for (label, workers) in placements {
        let r = scenario.run_stages(&stages, workers);
        t.row([
            label.to_owned(),
            f1(r.throughput_fps),
            f0(r.latency_ms.mean()),
            f0(r.stage_ms[0].1),
            f0(r.stage_ms[1].1),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nSplitting a compute-heavy operation across devices is what lets the\n\
         swarm exceed one device's capacity; replication is what removes the\n\
         single-replica ceiling. Fusing stages saves the mid-pipeline radio\n\
         hop at the cost of per-device load.\n",
    );
    out
}

/// Ablation studies of the design choices DESIGN.md calls out: reorder
/// buffer sizing, worker-selection headroom, per-destination window
/// depth, the pending-age latency floor, and round-robin probing.
#[must_use]
pub fn ablations() -> String {
    use swing_sim::experiments::{
        probing_ablation_run, stale_floor_ablation_run, tuned_evaluation_run,
    };
    let mut out = String::from("Ablations of Swing's design choices.\n\n");

    // 1. Reorder-buffer sizing (the paper: "a large buffer ensures
    //    better ordering but delays the display of the results").
    out.push_str("1. Reorder-buffer span (RR, face; ordering vs added delay)\n");
    let mut t = Table::new(["Span (s)", "Skipped frames", "Buffer wait (ms)"]);
    for span_s in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let r = tuned_evaluation_run(
            Policy::Rr,
            (span_s * 1_000_000.0) as u64,
            1.0,
            26_000,
            60,
            SEED,
        );
        let (_, skipped, wait) = ordering_stats(&r);
        t.row([format!("{span_s}"), skipped.to_string(), f0(wait)]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // 2. Worker-selection headroom.
    out.push_str("2. Worker-selection headroom (LRS, face)\n");
    let mut t = Table::new([
        "Headroom",
        "FPS",
        "Lat mean (ms)",
        "Devices used",
        "Power (W)",
    ]);
    for headroom in [1.0, 1.3, 1.6] {
        let r = tuned_evaluation_run(Policy::Lrs, 1_000_000, headroom, 26_000, 60, SEED);
        t.row([
            format!("{headroom}"),
            f1(r.throughput_fps),
            f0(r.latency_ms.mean()),
            r.active_workers(30).to_string(),
            f2(r.aggregate_power_w()),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // 3. Per-destination window depth (the RR-collapse mechanism).
    out.push_str("3. Per-destination in-flight window (face)\n");
    let mut t = Table::new(["Window (frames)", "RR FPS", "LRS FPS"]);
    for frames in [1usize, 2, 4, 8, 16] {
        let bytes = frames * 6_500;
        let rr = tuned_evaluation_run(Policy::Rr, 1_000_000, 1.0, bytes, 60, SEED);
        let lrs = tuned_evaluation_run(Policy::Lrs, 1_000_000, 1.0, bytes, 60, SEED);
        t.row([
            frames.to_string(),
            f1(rr.throughput_fps),
            f1(lrs.throughput_fps),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // 4. Pending-age latency floor: depth of the Fig-10 dip.
    out.push_str(
        "4. Pending-age latency floor (Fig 10 walk; worst 3 s after G hits poor signal)\n",
    );
    let mut t = Table::new(["Floor", "Worst 3 s window (FPS)", "Mean FPS in poor phase"]);
    for floor in [true, false] {
        let r = stale_floor_ablation_run(15, floor, SEED);
        let dip = r.timeline[30..40]
            .windows(3)
            .map(|w| w.iter().map(|p| p.total_fps).sum::<f64>() / 3.0)
            .fold(f64::INFINITY, f64::min);
        let mean = r.timeline[30..].iter().map(|p| p.total_fps).sum::<f64>()
            / (r.timeline.len() - 30) as f64;
        t.row([
            if floor { "on" } else { "off" }.to_owned(),
            f1(dip),
            f1(mean),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // 5. Probing vs sample-aging rediscovery.
    out.push_str(
        "5. Rediscovery of a recovered worker (G walks Good->Poor->Good,\n\
         back in the good zone from t=40 s; first second G serves >=3 FPS)\n",
    );
    let mut t = Table::new(["Probing", "Rediscovered at (s)"]);
    for probing in [true, false] {
        let r = probing_ablation_run(20, probing, SEED);
        let at = r
            .timeline
            .iter()
            .enumerate()
            .skip(40)
            .find(|(_, p)| p.per_worker_fps[1] >= 3.0)
            .map(|(i, _)| i.to_string())
            .unwrap_or_else(|| "never".into());
        t.row([if probing { "on" } else { "off" }.to_owned(), at]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nFinding: with time-aged latency samples (10 s max age), explicit probing\n\
         and the optimistic fallback after samples age out are nearly redundant\n\
         rediscovery mechanisms.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Keep these cheap: render the fast figures and sanity-check the
    // output structure. The expensive policy sweeps are covered by the
    // bench targets and integration tests.

    #[test]
    fn fig1_renders_rows_for_five_seconds() {
        let s = fig1();
        assert!(s.contains("Fig 1"));
        // Header + separator + 5 data rows.
        assert!(s.lines().count() >= 10);
        assert!(s.contains(" B "));
    }

    #[test]
    fn fig9_reports_lost_frames() {
        let s = fig9();
        assert!(s.contains("frames lost"));
        assert!(s.contains("join FPS"));
        assert!(s.matches('\n').count() > 30);
    }

    #[test]
    fn fig10_tracks_rssi_walk() {
        let s = fig10();
        assert!(s.contains("-75"));
        assert!(s.contains("-28"));
    }
}
