//! Canned scenario builders for every figure and table in the paper's
//! evaluation (§III and §VI). The `swing-bench` harness formats the
//! resulting reports into the rows and series the paper plots; the
//! integration tests assert the *shapes* (who wins, by roughly what
//! factor) hold.

use crate::scenario::Scenario;
use crate::SwarmReport;
use swing_core::config::RouterConfig;
use swing_core::routing::Policy;
use swing_core::SECOND_US;
use swing_device::mobility::{MobilityTrace, SignalZone};
use swing_device::profile::{testbed, DeviceProfile, Workload};
use swing_runtime::sim::WorkerSpec;

/// Look up a testbed device by its letter.
///
/// # Panics
/// Panics if the letter is not `A`..`I`.
#[must_use]
pub fn device(letter: &str) -> DeviceProfile {
    testbed()
        .into_iter()
        .find(|p| p.name == letter)
        .unwrap_or_else(|| panic!("no testbed device named {letter}"))
}

/// The worker letters of the evaluation swarm (all devices but the
/// source/master `A`).
pub const WORKER_LETTERS: [&str; 8] = ["B", "C", "D", "E", "F", "G", "H", "I"];

/// Letters placed "at locations of poor Wi-Fi signals" in §VI-B.
pub const POOR_SIGNAL_LETTERS: [&str; 3] = ["B", "C", "D"];

/// Fig. 1 / Table I: a single device processing the 24 FPS face stream
/// alone. Delay builds up because no device sustains 24 FPS.
#[must_use]
pub fn single_device(letter: &str, duration_s: u64, seed: u64) -> SwarmReport {
    let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Rr));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    // Fig 1 measures unbounded queue growth over the first seconds; use
    // a generous window so the build-up is visible rather than clipped.
    config.dest_window_bytes = 64 * 1024 * 1024;
    config.run(vec![WorkerSpec::new(device(letter))])
}

/// The independent variable of one Fig. 2 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fig2Variable {
    /// Panel 1: Wi-Fi signal strength (Good / Fair / Bad).
    Signal(SignalZone),
    /// Panel 2: background CPU usage (0.2 / 0.6 / 1.0).
    CpuLoad(f64),
    /// Panel 3: input data rate in FPS (5 / 10 / 20).
    InputFps(f64),
}

/// One measured row of Fig. 2: the delay decomposition of remote
/// processing on device `B` under the given condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Human-readable condition label.
    pub label: String,
    /// Mean transmission delay, ms.
    pub transmission_ms: f64,
    /// Mean processing delay, ms.
    pub processing_ms: f64,
    /// Mean worker-queue delay, ms.
    pub queuing_ms: f64,
}

/// Fig. 2: device `A` sends frames to `B` under one varied condition.
#[must_use]
pub fn fig2_condition(var: Fig2Variable, duration_s: u64, seed: u64) -> Fig2Row {
    let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Rr));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    let mut worker = WorkerSpec::new(device("B"));
    let label;
    match var {
        Fig2Variable::Signal(zone) => {
            // The paper streams 24 FPS and varies placement; the
            // in-flight window bounds the measured transmission delay.
            worker = worker.in_zone(zone);
            label = format!("{zone:?}");
        }
        Fig2Variable::CpuLoad(load) => {
            config.input_fps = 2.0; // isolate processing delay
            worker = worker.with_background(load);
            label = format!("{:.0}%", load * 100.0);
        }
        Fig2Variable::InputFps(fps) => {
            config.input_fps = fps;
            // A single uncontended stream with a full-size TCP buffer:
            // worker-side queue build-up is what this panel isolates.
            config.dest_window_bytes = 256 * 1024;
            label = format!("{fps:.0} FPS");
        }
    }
    let report = config.run(vec![worker]);
    Fig2Row {
        label,
        transmission_ms: report.mean_component_ms(crate::FrameRecord::transmission_us),
        processing_ms: report.mean_component_ms(crate::FrameRecord::processing_us),
        queuing_ms: report.mean_component_ms(crate::FrameRecord::queuing_us),
    }
}

/// The §VI-B evaluation swarm: source/master on `A`, workers `B`..`I`,
/// with `B`, `C`, `D` placed at poor-signal locations.
#[must_use]
pub fn evaluation_workers() -> Vec<WorkerSpec> {
    WORKER_LETTERS
        .iter()
        .map(|&l| {
            let spec = WorkerSpec::new(device(l));
            if POOR_SIGNAL_LETTERS.contains(&l) {
                spec.in_zone(SignalZone::Poor)
            } else {
                spec.in_zone(SignalZone::Good)
            }
        })
        .collect()
}

/// Run the Fig. 4–8 evaluation for one policy and workload.
#[must_use]
pub fn evaluation_run(
    policy: Policy,
    workload: Workload,
    duration_s: u64,
    seed: u64,
) -> SwarmReport {
    let mut config = Scenario::new(workload, RouterConfig::new(policy));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    config.run(evaluation_workers())
}

/// Fig. 9 (left): `B`, `D` computing, `G` joins at `join_at_s`.
#[must_use]
pub fn joining_run(join_at_s: u64, duration_s: u64, seed: u64) -> SwarmReport {
    let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    let workers = vec![
        WorkerSpec::new(device("B")),
        WorkerSpec::new(device("D")),
        WorkerSpec::new(device("G")).joining_at(join_at_s * SECOND_US),
    ];
    config.run(workers)
}

/// Fig. 9 (right): `B`, `G`, `H` computing, `G` leaves at `leave_at_s`.
#[must_use]
pub fn leaving_run(leave_at_s: u64, duration_s: u64, seed: u64) -> SwarmReport {
    let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    let workers = vec![
        WorkerSpec::new(device("B")),
        WorkerSpec::new(device("G")).leaving_at(leave_at_s * SECOND_US),
        WorkerSpec::new(device("H")),
    ];
    config.run(workers)
}

/// Cloudlet mode (§II): the evaluation swarm plus a wall-powered
/// cloudlet VM on a good link. LRS should discover it is by far the
/// fastest worker and concentrate load there.
#[must_use]
pub fn cloudlet_run(policy: Policy, workload: Workload, duration_s: u64, seed: u64) -> SwarmReport {
    let mut config = Scenario::new(workload, RouterConfig::new(policy));
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    let mut workers = evaluation_workers();
    workers.push(WorkerSpec::new(swing_device::profile::cloudlet()));
    config.run(workers)
}

/// Fig. 10: `B`, `G`, `H` computing while `G` walks from good to weak to
/// poor signal, dwelling `dwell_s` in each zone.
#[must_use]
pub fn mobility_run(dwell_s: u64, seed: u64) -> SwarmReport {
    let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
    config.duration_us = 3 * dwell_s * SECOND_US;
    config.seed = seed;
    let workers = vec![
        WorkerSpec::new(device("B")),
        WorkerSpec::new(device("G")).with_mobility(MobilityTrace::fig10_walk(dwell_s * SECOND_US)),
        WorkerSpec::new(device("H")),
    ];
    config.run(workers)
}

/// Ablation scenario: `B`, `G`, `H` under LRS while `G` walks
/// Good → Poor → Good (dwelling `dwell_s` in each phase), with the
/// router's periodic round-robin probing enabled or disabled.
///
/// Probing (paper §V-B) refreshes estimates of unselected workers so
/// LRS can *re-discover* G once its link recovers. Our estimator also
/// ages samples out ([`TimedAvg`](swing_core::stats::TimedAvg)) and
/// falls back to an optimistic default, which turns the next rebalance
/// into an implicit probe — the ablation quantifies how much explicit
/// probing adds on top (finding: with sample aging the two mechanisms
/// are nearly redundant).
#[must_use]
pub fn probing_ablation_run(dwell_s: u64, probing: bool, seed: u64) -> SwarmReport {
    let mut router = RouterConfig::new(Policy::Lrs);
    if !probing {
        router.probe_every_rounds = u32::MAX; // effectively never
    }
    let mut config = Scenario::new(Workload::FaceRecognition, router);
    config.duration_us = 3 * dwell_s * SECOND_US;
    config.seed = seed;
    // 16 FPS: B+H alone can cover the demand, so worker selection really
    // deselects G while it sits in the poor zone — the case probing is
    // for ("In order to estimate Li of the function units that were not
    // selected in previous rounds", §V-B).
    config.input_fps = 16.0;
    let out_and_back = MobilityTrace::from_steps(vec![
        (0, SignalZone::Good.rssi_dbm()),
        (dwell_s * SECOND_US, SignalZone::Poor.rssi_dbm()),
        (2 * dwell_s * SECOND_US, SignalZone::Good.rssi_dbm()),
    ]);
    let workers = vec![
        WorkerSpec::new(device("B")),
        WorkerSpec::new(device("G")).with_mobility(out_and_back),
        WorkerSpec::new(device("H")),
    ];
    config.run(workers)
}

/// Ablation scenario: the Fig. 10 walk with the estimator's
/// pending-age latency floor enabled or disabled. Without the floor the
/// upstream only learns about a collapsed link from the ACKs that still
/// trickle through, reacting many rounds later.
#[must_use]
pub fn stale_floor_ablation_run(dwell_s: u64, floor: bool, seed: u64) -> SwarmReport {
    let mut router = RouterConfig::new(Policy::Lrs);
    router.pending_age_floor = floor;
    let mut config = Scenario::new(Workload::FaceRecognition, router);
    config.duration_us = 3 * dwell_s * SECOND_US;
    config.seed = seed;
    let workers = vec![
        WorkerSpec::new(device("B")),
        WorkerSpec::new(device("G")).with_mobility(MobilityTrace::fig10_walk(dwell_s * SECOND_US)),
        WorkerSpec::new(device("H")),
    ];
    config.run(workers)
}

/// Ablation scenario: the Fig. 4 face evaluation with a custom reorder
/// span, worker-selection headroom, and per-destination window.
#[must_use]
pub fn tuned_evaluation_run(
    policy: Policy,
    reorder_span_us: u64,
    headroom: f64,
    dest_window_bytes: usize,
    duration_s: u64,
    seed: u64,
) -> SwarmReport {
    let mut router = RouterConfig::new(policy);
    router.headroom = headroom;
    let mut config = Scenario::new(Workload::FaceRecognition, router);
    config.duration_us = duration_s * SECOND_US;
    config.seed = seed;
    config.reorder = swing_core::config::ReorderConfig {
        span_us: reorder_span_us,
    };
    config.dest_window_bytes = dest_window_bytes;
    config.run(evaluation_workers())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: u64 = 30;

    #[test]
    fn fig1_delays_build_up_on_every_single_device() {
        for letter in ["B", "E", "H"] {
            let report = single_device(letter, 6, 7);
            // Per-frame delay, in completion order, grows steeply: the
            // last completions wait behind an ever-deeper queue (Fig 1).
            let mut delays: Vec<(u64, f64)> = report
                .frames
                .iter()
                .filter_map(|f| f.sink_us.map(|t| (t, f.e2e_us().unwrap() as f64 / 1_000.0)))
                .collect();
            delays.sort_by_key(|&(t, _)| t);
            assert!(delays.len() >= 6, "{letter}: too few completions");
            let third = delays.len() / 3;
            let early: f64 = delays[..third].iter().map(|&(_, d)| d).sum::<f64>() / third as f64;
            let late: f64 = delays[delays.len() - third..]
                .iter()
                .map(|&(_, d)| d)
                .sum::<f64>()
                / third as f64;
            assert!(
                late > 2.0 * early,
                "{letter}: early {early:.0} ms late {late:.0} ms"
            );
        }
    }

    #[test]
    fn table1_processing_delays_match_profiles() {
        // The simulated mean processing delay reproduces Table I within
        // jitter tolerance.
        for (letter, expected_ms) in [("B", 92.9), ("E", 463.4), ("H", 71.3)] {
            let report = single_device(letter, 20, 3);
            let proc = report.mean_component_ms(crate::FrameRecord::processing_us);
            assert!(
                (proc - expected_ms).abs() / expected_ms < 0.05,
                "{letter}: measured {proc:.1} vs Table I {expected_ms}"
            );
        }
    }

    #[test]
    fn fig2_signal_strength_drives_transmission_delay() {
        let good = fig2_condition(Fig2Variable::Signal(SignalZone::Good), DUR, 5);
        let fair = fig2_condition(Fig2Variable::Signal(SignalZone::Weak), DUR, 5);
        let bad = fig2_condition(Fig2Variable::Signal(SignalZone::Poor), DUR, 5);
        assert!(good.transmission_ms < fair.transmission_ms);
        assert!(fair.transmission_ms < bad.transmission_ms);
        // Processing stays roughly constant across zones.
        assert!((good.processing_ms - bad.processing_ms).abs() < 20.0);
        // Bad signal produces order-of-magnitude larger transmission
        // delays (paper: ~tens of ms -> seconds).
        assert!(
            bad.transmission_ms > 10.0 * good.transmission_ms,
            "good {:.1} bad {:.1}",
            good.transmission_ms,
            bad.transmission_ms
        );
    }

    #[test]
    fn fig2_cpu_load_drives_processing_delay() {
        let low = fig2_condition(Fig2Variable::CpuLoad(0.2), DUR, 5);
        let mid = fig2_condition(Fig2Variable::CpuLoad(0.6), DUR, 5);
        let high = fig2_condition(Fig2Variable::CpuLoad(1.0), DUR, 5);
        assert!(low.processing_ms < mid.processing_ms);
        assert!(mid.processing_ms < high.processing_ms);
        assert!(high.processing_ms > 2.0 * low.processing_ms);
    }

    #[test]
    fn fig2_input_rate_drives_queuing_delay() {
        let r5 = fig2_condition(Fig2Variable::InputFps(5.0), DUR, 5);
        let r10 = fig2_condition(Fig2Variable::InputFps(10.0), DUR, 5);
        let r20 = fig2_condition(Fig2Variable::InputFps(20.0), DUR, 5);
        assert!(r5.queuing_ms < r10.queuing_ms);
        assert!(r10.queuing_ms < r20.queuing_ms);
        // 20 FPS exceeds B's ~10.8 FPS capacity: queueing dominates.
        assert!(r20.queuing_ms > r20.processing_ms);
        assert!(r20.queuing_ms > 500.0, "queuing {:.0}", r20.queuing_ms);
    }

    #[test]
    fn fig4_lrs_dominates_throughput_and_latency() {
        let rr = evaluation_run(Policy::Rr, Workload::FaceRecognition, DUR, 1);
        let lrs = evaluation_run(Policy::Lrs, Workload::FaceRecognition, DUR, 1);
        // Headline: 2.7x throughput, 6.7x latency in the paper.
        assert!(
            lrs.throughput_fps >= 2.0 * rr.throughput_fps,
            "lrs {:.1} rr {:.1}",
            lrs.throughput_fps,
            rr.throughput_fps
        );
        assert!(
            rr.latency_ms.mean() >= 3.0 * lrs.latency_ms.mean(),
            "rr {:.0} ms lrs {:.0} ms",
            rr.latency_ms.mean(),
            lrs.latency_ms.mean()
        );
        // LRS approaches the 24 FPS real-time target.
        assert!(lrs.throughput_fps > 20.0, "lrs {:.1}", lrs.throughput_fps);
    }

    #[test]
    fn fig4_processing_based_policies_misroute_to_weak_signals() {
        let pr = evaluation_run(Policy::Pr, Workload::FaceRecognition, DUR, 1);
        let lr = evaluation_run(Policy::Lr, Workload::FaceRecognition, DUR, 1);
        // PR routes by compute speed only, so B (fast CPU, poor link)
        // receives a large share; LR avoids it.
        let share = |r: &SwarmReport, name: &str| {
            let w = r.workers.iter().find(|w| w.name == name).unwrap();
            w.received as f64 / r.workers.iter().map(|w| w.received).sum::<u64>() as f64
        };
        assert!(
            share(&pr, "B") > 1.5 * share(&lr, "B"),
            "PR share {:.2} LR share {:.2}",
            share(&pr, "B"),
            share(&lr, "B")
        );
        // And that misrouting costs throughput.
        assert!(lr.throughput_fps > pr.throughput_fps);
    }

    #[test]
    fn fig5_worker_selection_concentrates_load() {
        let lr = evaluation_run(Policy::Lr, Workload::FaceRecognition, DUR, 1);
        let lrs = evaluation_run(Policy::Lrs, Workload::FaceRecognition, DUR, 1);
        // *S uses fewer devices for real work.
        assert!(
            lrs.active_workers(30) < lr.active_workers(30),
            "lrs {} lr {}",
            lrs.active_workers(30),
            lr.active_workers(30)
        );
    }

    #[test]
    fn fig5_rr_spreads_evenly_and_pegs_weak_cpus() {
        let rr = evaluation_run(Policy::Rr, Workload::FaceRecognition, DUR, 1);
        let received: Vec<u64> = rr.workers.iter().map(|w| w.received).collect();
        let max = *received.iter().max().unwrap() as f64;
        let min = *received.iter().min().unwrap() as f64;
        assert!(min > 0.6 * max, "RR shares uneven: {received:?}");
        // Fig 5 left: the *same* arrival rate consumes a much larger
        // share of processor time on the weak E than on the strong I.
        let util = |n: &str| rr.workers.iter().find(|w| w.name == n).unwrap().cpu_util;
        assert!(
            util("E") > 2.0 * util("I"),
            "E util {:.2} vs I util {:.2}",
            util("E"),
            util("I")
        );
    }

    #[test]
    fn fig6_prs_consumes_least_power() {
        let face = Workload::FaceRecognition;
        let prs = evaluation_run(Policy::Prs, face, DUR, 1);
        let lrs = evaluation_run(Policy::Lrs, face, DUR, 1);
        let lr = evaluation_run(Policy::Lr, face, DUR, 1);
        // PRS uses the fastest, most efficient devices only.
        assert!(prs.aggregate_power_w() < lr.aggregate_power_w());
        assert!(prs.aggregate_power_w() < lrs.aggregate_power_w());
    }

    #[test]
    fn fig7_selection_improves_energy_efficiency() {
        let face = Workload::FaceRecognition;
        let lr = evaluation_run(Policy::Lr, face, DUR, 1);
        let lrs = evaluation_run(Policy::Lrs, face, DUR, 1);
        let rr = evaluation_run(Policy::Rr, face, DUR, 1);
        assert!(
            lrs.fps_per_watt() > lr.fps_per_watt(),
            "lrs {:.2} lr {:.2}",
            lrs.fps_per_watt(),
            lr.fps_per_watt()
        );
        assert!(lrs.fps_per_watt() > rr.fps_per_watt());
    }

    #[test]
    fn fig8_lrs_orders_frames_better_than_rr() {
        let rr = evaluation_run(Policy::Rr, Workload::FaceRecognition, DUR, 1);
        let lrs = evaluation_run(Policy::Lrs, Workload::FaceRecognition, DUR, 1);
        // Count inversions in sink-arrival order among completed frames.
        let inversions = |r: &SwarmReport| {
            let mut arrivals: Vec<(u64, u64)> = r
                .frames
                .iter()
                .filter_map(|f| f.sink_us.map(|t| (t, f.seq)))
                .collect();
            arrivals.sort();
            let mut inv = 0u64;
            let mut max_seq = 0;
            for &(_, seq) in &arrivals {
                if seq < max_seq {
                    inv += 1;
                } else {
                    max_seq = seq;
                }
            }
            inv as f64 / arrivals.len().max(1) as f64
        };
        assert!(
            inversions(&lrs) < inversions(&rr),
            "lrs {:.3} rr {:.3}",
            inversions(&lrs),
            inversions(&rr)
        );
        // And the reorder buffer skips fewer frames under LRS.
        assert!(lrs.reorder_skipped <= rr.reorder_skipped);
    }

    #[test]
    fn fig9_join_recovers_quickly() {
        let report = joining_run(10, 30, 2);
        // Mean throughput in the 3 s after the join vs the 3 s before.
        let mean = |range: std::ops::Range<usize>| {
            report.timeline[range.clone()]
                .iter()
                .map(|p| p.total_fps)
                .sum::<f64>()
                / range.len() as f64
        };
        let before = mean(6..9);
        let after = mean(12..15);
        assert!(after > before + 4.0, "before {before:.1} after {after:.1}");
    }

    #[test]
    fn fig9_leave_loses_a_handful_of_frames() {
        // The exact count depends on how many frames sit on the departed
        // device at that instant (the paper's run lost 13); across seeds
        // the shape is "a few, not zero, not a flood".
        let mut total = 0;
        for seed in 1..=6 {
            let report = leaving_run(10, 30, seed);
            assert!(report.lost <= 30, "seed {seed} lost {}", report.lost);
            total += report.lost;
        }
        assert!(total >= 2, "leaves never lose frames (total {total})");
    }

    #[test]
    fn probing_speeds_up_rediscovery_of_a_recovered_worker() {
        // G walks Good -> Poor -> Good (20 s dwell; back in the good
        // zone from t = 40 s). Two rediscovery mechanisms exist: probe
        // tuples (paper §V-B) and sample aging with an optimistic
        // fallback. Probing must make rediscovery at least as fast, and
        // rediscovery must happen either way.
        let rediscovery_s = |probing: bool, seed: u64| -> usize {
            let r = probing_ablation_run(20, probing, seed);
            r.timeline
                .iter()
                .enumerate()
                .skip(40)
                .find(|(_, p)| p.per_worker_fps[1] >= 3.0)
                .map(|(i, _)| i)
                .unwrap_or(120)
        };
        let mean = |probing: bool| -> f64 {
            let seeds = [3u64, 6, 11];
            seeds
                .iter()
                .map(|&s| rediscovery_s(probing, s))
                .sum::<usize>() as f64
                / seeds.len() as f64
        };
        let with = mean(true);
        let without = mean(false);
        assert!(with < 60.0, "never rediscovered with probing ({with:.0}s)");
        assert!(
            without < 60.0,
            "never rediscovered without probing ({without:.0}s; aging broken)"
        );
        // Ablation finding: with time-aged samples the two freshness
        // mechanisms are nearly redundant — both rediscover within a few
        // control rounds of the link recovering.
        assert!(
            (with - without).abs() <= 5.0,
            "mechanisms diverged unexpectedly: {with:.0}s vs {without:.0}s"
        );
    }

    #[test]
    fn pending_age_floor_speeds_up_mobility_reaction() {
        // Depth of the throughput dip right after G hits the poor zone.
        let dip = |floor: bool| {
            let r = stale_floor_ablation_run(15, floor, 6);
            // Poor phase starts at t=30 s; take the worst 3 s window of
            // the following 10 s.
            r.timeline[30..40]
                .windows(3)
                .map(|w| w.iter().map(|p| p.total_fps).sum::<f64>() / 3.0)
                .fold(f64::INFINITY, f64::min)
        };
        let with = dip(true);
        let without = dip(false);
        assert!(
            with > without + 2.0,
            "floor should soften the dip: with {with:.1} FPS vs without {without:.1} FPS"
        );
    }

    #[test]
    fn larger_reorder_span_skips_fewer_frames_but_waits_longer() {
        let run = |span_us: u64| tuned_evaluation_run(Policy::Rr, span_us, 1.0, 26_000, DUR, 2);
        let short = run(250_000);
        let long = run(4_000_000);
        assert!(
            long.reorder_skipped < short.reorder_skipped,
            "short {} vs long {}",
            short.reorder_skipped,
            long.reorder_skipped
        );
        // And the long buffer holds frames longer before playback.
        let wait = |r: &SwarmReport| {
            let (mut sum, mut n) = (0.0, 0u64);
            for f in &r.frames {
                if let (Some(s), Some(p)) = (f.sink_us, f.played_us) {
                    sum += p.saturating_sub(s) as f64;
                    n += 1;
                }
            }
            sum / n.max(1) as f64
        };
        assert!(wait(&long) > wait(&short));
    }

    #[test]
    fn headroom_keeps_more_devices_selected() {
        let tight = tuned_evaluation_run(Policy::Lrs, SECOND_US, 1.0, 26_000, DUR, 2);
        let loose = tuned_evaluation_run(Policy::Lrs, SECOND_US, 1.6, 26_000, DUR, 2);
        assert!(
            loose.active_workers(30) >= tight.active_workers(30),
            "tight {} loose {}",
            tight.active_workers(30),
            loose.active_workers(30)
        );
        // Throughput stays at target either way.
        assert!(loose.throughput_fps > 22.0 && tight.throughput_fps > 22.0);
    }

    #[test]
    fn cloudlet_takes_most_of_the_load_under_lrs() {
        let r = cloudlet_run(Policy::Lrs, Workload::FaceRecognition, DUR, 3);
        let total: u64 = r.workers.iter().map(|w| w.received).sum();
        let cl = r.workers.iter().find(|w| w.name == "CL").unwrap();
        assert!(
            cl.received as f64 > 0.5 * total as f64,
            "cloudlet got {}/{total}",
            cl.received
        );
        assert!(r.throughput_fps > 22.0);
        // Offloading to the cloudlet beats the phone-only swarm on
        // latency (its service time is ~12 ms vs ~75 ms).
        let phones = evaluation_run(Policy::Lrs, Workload::FaceRecognition, DUR, 3);
        assert!(
            r.latency_ms.mean() < phones.latency_ms.mean(),
            "cloudlet {:.0} ms vs phones {:.0} ms",
            r.latency_ms.mean(),
            phones.latency_ms.mean()
        );
    }

    #[test]
    fn resend_orphans_eliminates_leave_losses() {
        let mk = |resend: bool, seed: u64| {
            let mut config =
                Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
            config.duration_us = 30 * SECOND_US;
            config.seed = seed;
            config.resend_orphans = resend;
            let workers = vec![
                WorkerSpec::new(device("B")),
                WorkerSpec::new(device("G")).leaving_at(10 * SECOND_US),
                WorkerSpec::new(device("H")),
            ];
            config.run(workers)
        };
        // Whether the leave catches in-flight frames depends on the RNG
        // draw sequence; scan for a seed where the lossy baseline does
        // lose something, then compare resend against that same seed.
        let (seed, lossy) = (1..=16)
            .map(|s| (s, mk(false, s)))
            .find(|(_, r)| r.lost > 0)
            .expect("no seed in 1..=16 lost frames on leave");
        let reliable = mk(true, seed);
        assert!(
            reliable.lost <= lossy.lost,
            "resend lost more ({} > {})",
            reliable.lost,
            lossy.lost
        );
        assert_eq!(reliable.lost, 0, "resend still lost {}", reliable.lost);
        // The re-sent frames actually completed (possibly after retry).
        let retried = reliable.frames.iter().filter(|f| f.retries > 0).count();
        assert!(retried > 0, "nothing was retried");
        assert!(reliable
            .frames
            .iter()
            .filter(|f| f.retries > 0)
            .all(|f| f.completed()));
    }

    #[test]
    fn rate_schedule_changes_offered_load_mid_run() {
        let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
        config.duration_us = 30 * SECOND_US;
        config.seed = 4;
        config.input_fps = 6.0;
        config.rate_schedule = vec![(15 * SECOND_US, 20.0)];
        let workers = vec![WorkerSpec::new(device("G")), WorkerSpec::new(device("H"))];
        let r = config.run(workers);
        let early: f64 = r.timeline[3..12].iter().map(|p| p.total_fps).sum::<f64>() / 9.0;
        let late: f64 = r.timeline[20..29].iter().map(|p| p.total_fps).sum::<f64>() / 9.0;
        assert!((early - 6.0).abs() < 1.5, "early {early:.1}");
        assert!((late - 20.0).abs() < 3.0, "late {late:.1}");
    }

    #[test]
    fn fig10_system_throughput_survives_the_walk() {
        // A probe window toward the poor-signal G stalls dispatch for a
        // second or two wherever it lands, and in about one seed in five
        // that is inside the last five seconds: measure over five seeds.
        let reports: Vec<SwarmReport> = (1..=5).map(|seed| mobility_run(15, seed)).collect();
        let mean_fps = |report: &SwarmReport, range: std::ops::Range<usize>| {
            report.timeline[range]
                .iter()
                .map(|p| p.total_fps)
                .sum::<f64>()
                / 5.0
        };
        let n = reports[0].timeline.len();
        let kept: f64 = reports
            .iter()
            .map(|r| mean_fps(r, n - 5..n) / mean_fps(r, 5..10))
            .sum::<f64>()
            / reports.len() as f64;
        // Re-routing keeps most of the throughput despite G's poor link.
        assert!(kept > 0.6, "late / early throughput {kept:.2}");
        let report = &reports[1];
        // RSSI trace in the timeline reflects the walk.
        let first_rssi = report.timeline[2].per_worker_rssi[1];
        let last_rssi = report.timeline[n - 2].per_worker_rssi[1];
        assert!(first_rssi > -40.0 && last_rssi < -70.0);
    }
}
