//! Failure-injection property tests: the engine's device and radio
//! path must stay sound — no panics, balanced frame accounting, sane
//! statistics — under arbitrary storms of churn, mobility, background
//! load and policy choices.

use proptest::prelude::*;
use swing_core::config::RouterConfig;
use swing_core::routing::Policy;
use swing_core::SECOND_US;
use swing_device::mobility::MobilityTrace;
use swing_device::profile::{testbed, Workload};
use swing_sim::{Scenario, WorkerSpec};

#[derive(Debug, Clone)]
struct WorkerPlan {
    device: usize,
    join_s: u64,
    leave_s: Option<u64>,
    background: f64,
    rssi_steps: Vec<(u64, f64)>,
}

fn arb_worker() -> impl Strategy<Value = WorkerPlan> {
    (
        0usize..9,
        0u64..20,
        proptest::option::of(1u64..25),
        0.0f64..1.0,
        proptest::collection::vec((0u64..25_000_000, -85.0f64..-25.0), 0..4),
    )
        .prop_map(
            |(device, join_s, leave_s, background, rssi_steps)| WorkerPlan {
                device,
                join_s,
                leave_s,
                background,
                rssi_steps,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any churn storm: every generated frame ends up in exactly one
    /// terminal state, and the report's counters agree with the
    /// per-frame records.
    #[test]
    fn frame_accounting_balances_under_churn(
        plans in proptest::collection::vec(arb_worker(), 1..6),
        policy_idx in 0usize..5,
        fps in 4.0f64..30.0,
        resend in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let tb = testbed();
        let mut config = Scenario::new(
            Workload::FaceRecognition,
            RouterConfig::new(Policy::ALL[policy_idx]),
        );
        config.duration_us = 25 * SECOND_US;
        config.input_fps = fps;
        config.seed = seed;
        config.resend_orphans = resend;
        let workers: Vec<WorkerSpec> = plans
            .iter()
            .map(|p| {
                let mut spec = WorkerSpec::new(tb[p.device].clone())
                    .with_background(p.background)
                    .joining_at(p.join_s * SECOND_US);
                if let Some(leave) = p.leave_s {
                    // Leaves may precede joins; the sim must cope.
                    spec = spec.leaving_at(leave * SECOND_US);
                }
                if !p.rssi_steps.is_empty() {
                    spec = spec.with_mobility(MobilityTrace::from_steps(p.rssi_steps.clone()));
                }
                spec
            })
            .collect();
        let report = config.run(workers);

        // Counter / record agreement.
        let rec_completed = report.frames.iter().filter(|f| f.completed()).count() as u64;
        let rec_dropped = report.frames.iter().filter(|f| f.dropped).count() as u64;
        let rec_lost = report.frames.iter().filter(|f| f.lost).count() as u64;
        prop_assert_eq!(rec_completed, report.completed);
        prop_assert_eq!(rec_dropped, report.dropped_at_source);
        prop_assert_eq!(rec_lost, report.lost);

        // Every frame is in exactly one state (or still in flight).
        let in_flight = report
            .frames
            .iter()
            .filter(|f| !f.completed() && !f.dropped && !f.lost)
            .count() as u64;
        prop_assert_eq!(
            report.generated,
            report.completed + report.dropped_at_source + report.lost + in_flight
        );
        for f in &report.frames {
            let states =
                u32::from(f.completed()) + u32::from(f.dropped) + u32::from(f.lost);
            prop_assert!(states <= 1, "frame {} in {} states", f.seq, states);
        }

        // Per-frame timestamps are causally ordered.
        for f in &report.frames {
            if let (Some(d), Some(a)) = (f.dispatched_us, f.arrived_us) {
                prop_assert!(d >= f.created_us && a >= d);
            }
            if let (Some(s), Some(e)) = (f.started_us, f.finished_us) {
                prop_assert!(e >= s);
            }
            if let (Some(e), Some(k)) = (f.finished_us, f.sink_us) {
                prop_assert!(k >= e);
            }
        }

        // Statistics are sane.
        prop_assert!(report.throughput_fps >= 0.0);
        prop_assert!(report.latency_ms.min() >= 0.0);
        prop_assert!(report.latency_ms.count() == report.completed);
        for w in &report.workers {
            prop_assert!((0.0..=1.0).contains(&w.cpu_util));
            prop_assert!(w.power_w() >= 0.0);
            prop_assert!(w.completed <= w.received);
        }
    }

    /// With the reliability extension on and at least one worker staying
    /// for the whole run, a leave never loses frames.
    #[test]
    fn resend_mode_never_loses_frames_while_a_worker_survives(
        leave_s in 5u64..15,
        survivor in 0usize..9,
        leaver in 0usize..9,
        seed in 0u64..500,
    ) {
        let tb = testbed();
        let mut config = Scenario::new(
            Workload::FaceRecognition,
            RouterConfig::new(Policy::Lrs),
        );
        config.duration_us = 20 * SECOND_US;
        config.input_fps = 8.0;
        config.seed = seed;
        config.resend_orphans = true;
        let workers = vec![
            WorkerSpec::new(tb[survivor].clone()),
            WorkerSpec::new(tb[leaver].clone()).leaving_at(leave_s * SECOND_US),
        ];
        let report = config.run(workers);
        prop_assert_eq!(report.lost, 0, "lost {} frames despite resend", report.lost);
    }
}
