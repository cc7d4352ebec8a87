//! Failure-injection property tests: the engine's device and radio
//! path must stay sound — no panics, balanced frame accounting, sane
//! statistics — under arbitrary storms of churn, mobility, background
//! load and policy choices. Each property runs on 48 seeded cases (see
//! [`for_each_case`] for replaying one); three storms that once broke
//! the accounting are kept as named tests.

use swing_core::config::RouterConfig;
use swing_core::rng::{for_each_case, DetRng};
use swing_core::routing::Policy;
use swing_core::SECOND_US;
use swing_device::mobility::MobilityTrace;
use swing_device::profile::{testbed, Workload};
use swing_sim::{Scenario, WorkerSpec};

const CASES: u32 = 48;

#[derive(Debug, Clone)]
struct WorkerPlan {
    device: usize,
    join_s: u64,
    leave_s: Option<u64>,
    background: f64,
    rssi_steps: Vec<(u64, f64)>,
}

fn worker_plan(rng: &mut DetRng) -> WorkerPlan {
    WorkerPlan {
        device: rng.random_range(0..9),
        join_s: rng.random_range(0..20),
        leave_s: rng.random_bool(0.5).then(|| rng.random_range(1..25)),
        background: rng.random_range(0.0..1.0),
        rssi_steps: (0..rng.random_range(0..4))
            .map(|_| {
                (
                    rng.random_range(0..25_000_000),
                    rng.random_range(-85.0..-25.0),
                )
            })
            .collect(),
    }
}

/// Run one churn storm and check that every generated frame ends up in
/// exactly one terminal state, and that the report's counters agree
/// with the per-frame records.
fn check_frame_accounting(
    plans: &[WorkerPlan],
    policy_idx: usize,
    fps: f64,
    resend: bool,
    seed: u64,
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
    assert_eq!(rec_completed, report.completed);
    assert_eq!(rec_dropped, report.dropped_at_source);
    assert_eq!(rec_lost, report.lost);

    // Every frame is in exactly one state (or still in flight).
    let in_flight = report
        .frames
        .iter()
        .filter(|f| !f.completed() && !f.dropped && !f.lost)
        .count() as u64;
    assert_eq!(
        report.generated,
        report.completed + report.dropped_at_source + report.lost + in_flight
    );
    for f in &report.frames {
        let states = u32::from(f.completed()) + u32::from(f.dropped) + u32::from(f.lost);
        assert!(states <= 1, "frame {} in {} states", f.seq, states);
    }

    // Per-frame timestamps are causally ordered.
    for f in &report.frames {
        if let (Some(d), Some(a)) = (f.dispatched_us, f.arrived_us) {
            assert!(d >= f.created_us && a >= d);
        }
        if let (Some(s), Some(e)) = (f.started_us, f.finished_us) {
            assert!(e >= s);
        }
        if let (Some(e), Some(k)) = (f.finished_us, f.sink_us) {
            assert!(k >= e);
        }
    }

    // Statistics are sane.
    assert!(report.throughput_fps >= 0.0);
    assert!(report.latency_ms.min() >= 0.0);
    assert!(report.latency_ms.count() == report.completed);
    for w in &report.workers {
        assert!((0.0..=1.0).contains(&w.cpu_util));
        assert!(w.power_w() >= 0.0);
        assert!(w.completed <= w.received);
    }
}

/// Any churn storm balances its frame accounting.
#[test]
fn frame_accounting_balances_under_churn() {
    for_each_case(0xC4_01, CASES, |rng| {
        let plans: Vec<WorkerPlan> = (0..rng.random_range(1..6))
            .map(|_| worker_plan(rng))
            .collect();
        let policy_idx = rng.random_range(0..5);
        let fps = rng.random_range(4.0..30.0);
        let resend = rng.random_bool(0.5);
        let seed = rng.random_range(0..1_000);
        check_frame_accounting(&plans, policy_idx, fps, resend, seed);
    });
}

/// A leaver, a late joiner, and a third worker whose RSSI trace steps
/// twice (once at t = 0), under LR with orphans re-sent.
#[test]
fn accounting_balances_when_a_mobile_worker_joins_between_leaves() {
    let plans = [
        WorkerPlan {
            device: 0,
            join_s: 17,
            leave_s: Some(24),
            background: 0.3225784433306225,
            rssi_steps: vec![],
        },
        WorkerPlan {
            device: 6,
            join_s: 11,
            leave_s: None,
            background: 0.884360432647304,
            rssi_steps: vec![],
        },
        WorkerPlan {
            device: 3,
            join_s: 6,
            leave_s: None,
            background: 0.6990004064783782,
            rssi_steps: vec![(14_257_232, -25.0), (0, -75.81646446099963)],
        },
    ];
    check_frame_accounting(&plans, 1, 13.140883009732391, true, 721);
}

/// The only worker joins at 3 s on a weak link and leaves a second
/// later, with nobody to take its frames and no re-send.
#[test]
fn accounting_balances_when_the_only_worker_leaves_at_once() {
    let plans = [WorkerPlan {
        device: 5,
        join_s: 3,
        leave_s: Some(4),
        background: 0.22122785125183872,
        rssi_steps: vec![(0, -79.10015327799802)],
    }];
    check_frame_accounting(&plans, 0, 11.518071097959501, false, 474);
}

/// Four workers, two joining in the same second, one of them leaving
/// with its link already near the edge of range; orphans re-sent.
#[test]
fn accounting_balances_when_a_far_worker_leaves_a_crowd() {
    let plans = [
        WorkerPlan {
            device: 4,
            join_s: 10,
            leave_s: Some(17),
            background: 0.6231322463832274,
            rssi_steps: vec![(10_193_448, -83.62951767423608)],
        },
        WorkerPlan {
            device: 8,
            join_s: 1,
            leave_s: None,
            background: 0.650629703082715,
            rssi_steps: vec![],
        },
        WorkerPlan {
            device: 2,
            join_s: 10,
            leave_s: None,
            background: 0.0,
            rssi_steps: vec![],
        },
        WorkerPlan {
            device: 5,
            join_s: 8,
            leave_s: None,
            background: 0.7663226865580597,
            rssi_steps: vec![],
        },
    ];
    check_frame_accounting(&plans, 3, 8.510279918452351, true, 844);
}

/// With the reliability extension on and at least one worker staying
/// for the whole run, a leave never loses frames.
#[test]
fn resend_mode_never_loses_frames_while_a_worker_survives() {
    for_each_case(0xC4_02, CASES, |rng| {
        let leave_s = rng.random_range(5u64..15);
        let survivor = rng.random_range(0..9);
        let leaver = rng.random_range(0..9);
        let seed = rng.random_range(0..500);
        let tb = testbed();
        let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
        config.duration_us = 20 * SECOND_US;
        config.input_fps = 8.0;
        config.seed = seed;
        config.resend_orphans = true;
        let workers = vec![
            WorkerSpec::new(tb[survivor].clone()),
            WorkerSpec::new(tb[leaver].clone()).leaving_at(leave_s * SECOND_US),
        ];
        let report = config.run(workers);
        assert_eq!(report.lost, 0, "lost {} frames despite resend", report.lost);
    });
}
