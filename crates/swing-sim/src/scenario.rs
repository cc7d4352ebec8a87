//! The paper's evaluation topology as a scenario on the one engine:
//! source and sink on the master device `A`, operator replicas on the
//! described worker devices, every tuple moved by
//! [`SimSwarm`]'s production dispatchers over
//! [`SimFabric`](swing_runtime::sim::SimFabric)'s radio links.
//!
//! A [`Scenario`] only *composes*: it builds the [`AppGraph`], the unit
//! registries and the [`SimSwarmConfig`], runs the swarm to the horizon,
//! and fills a [`SwarmReport`] from what the engine recorded — the
//! telemetry registry, the tuple-lifecycle event ring and the worker
//! death log. The physics (RSSI-banded airtime, in-flight byte windows,
//! Table I service times, battery drain) live with the engine in
//! `swing_runtime::sim`.

use crate::metrics::{FrameRecord, SwarmReport, TimelinePoint, WorkerStats};
use swing_core::config::{ReorderConfig, RetryConfig, RouterConfig};
use swing_core::graph::AppGraph;
use swing_core::payload::SharedBytes;
use swing_core::stats::{Reservoir, Summary};
use swing_core::unit::{closure_sink, closure_source, closure_unit, Context, PassThrough};
use swing_core::{timing, Tuple, UnitId, SECOND_US};
use swing_device::profile::Workload;
use swing_runtime::executor::CREATED_US_FIELD;
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimEnergyConfig, SimSwarm, SimSwarmConfig, WorkerSpec};
use swing_telemetry::{names as tn, Stage, Telemetry};

/// Name of the master device hosting the source and the sink.
pub const MASTER: &str = "A";

/// ACK deadline used when `resend_orphans` is on: pushed past any
/// plausible run length so departure reclaim is the *only*
/// retransmission trigger — the reliability extension re-dispatches
/// orphans of departed devices, it does not add timer-based
/// retransmission on top of the paper's prototype.
const ORPHAN_RECLAIM_DEADLINE_US: u64 = 3_600 * SECOND_US;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The sensing workload: the frame size on the air, and what the
    /// operator stage of [`run`](Scenario::run) costs on each device.
    pub workload: Workload,
    /// Router configuration, including the policy under test.
    pub router: RouterConfig,
    /// Source sensing rate, frames per second (the paper uses 24).
    pub input_fps: f64,
    /// Run length in microseconds.
    pub duration_us: u64,
    /// RNG seed; equal seeds give bit-identical reports.
    pub seed: u64,
    /// Sink reorder-buffer configuration.
    pub reorder: ReorderConfig,
    /// Per-destination in-flight window in bytes (TCP socket buffering).
    pub dest_window_bytes: usize,
    /// Re-dispatch frames orphaned by a departing device instead of
    /// losing them — the reliability extension MobiStreams explores (the
    /// paper's prototype loses them: "13 frames are lost"). Maps onto
    /// the dispatcher's retry machinery with the ACK deadline pushed
    /// past the run length, so eviction reclaim is the only resend path.
    pub resend_orphans: bool,
    /// Input-rate schedule: at each `(time_us, fps)` step the source
    /// changes its sensing rate. Applied on top of `input_fps`.
    pub rate_schedule: Vec<(u64, f64)>,
}

impl Scenario {
    /// Paper-style defaults for the given workload and router config:
    /// 24 FPS input, 60 s run, 1 s reorder span, a four-frame window.
    #[must_use]
    pub fn new(workload: Workload, router: RouterConfig) -> Self {
        Scenario {
            workload,
            router,
            input_fps: 24.0,
            duration_us: 60 * SECOND_US,
            seed: 42,
            reorder: ReorderConfig::one_second(),
            dest_window_bytes: 26_000,
            resend_orphans: false,
            rate_schedule: Vec::new(),
        }
    }

    /// Run the single-stage swarm the paper evaluates: every worker
    /// hosts one replica of the operator, which costs the scenario's
    /// workload.
    ///
    /// # Panics
    /// As [`run_stages`](Scenario::run_stages).
    #[must_use]
    pub fn run(&self, workers: Vec<WorkerSpec>) -> SwarmReport {
        let stage = ("work", self.workload);
        self.run_stages(
            &[stage],
            workers.into_iter().map(|w| (w, vec![stage.0])).collect(),
        )
    }

    /// Run a chain `source → stages… → sink`: each worker hosts the
    /// stages listed next to it (co-located stages hand tuples over in
    /// memory; stages on different devices talk over the radio). Every
    /// stage but the last forwards the frame; the last emits the small
    /// result the sink displays.
    ///
    /// A worker is named after its device model; a second `G` (or a
    /// worker of the master's model) is `G.2`, and so on.
    ///
    /// # Panics
    /// Panics if `workers` is empty or the router config is invalid.
    #[must_use]
    pub fn run_stages(
        &self,
        stages: &[(&str, Workload)],
        workers: Vec<(WorkerSpec, Vec<&str>)>,
    ) -> SwarmReport {
        assert!(!workers.is_empty(), "a swarm needs at least one worker");
        let mut names = vec![MASTER.to_string()];
        for (w, _) in &workers {
            let model = &w.profile.name;
            let name = (1..)
                .map(|n| match n {
                    1 => model.clone(),
                    n => format!("{model}.{n}"),
                })
                .find(|name| !names.contains(name))
                .expect("an unused name exists");
            names.push(name);
        }
        let names = &names[1..];

        let mut graph = AppGraph::new("scenario");
        let mut prev = graph.add_source("camera");
        for (name, _) in stages {
            let op = graph.add_operator(*name);
            graph.connect(prev, op).expect("chain edge");
            prev = op;
        }
        let display = graph.add_sink("display");
        graph.connect(prev, display).expect("chain edge");

        // The frame on the air is exactly the workload's payload plus
        // the tuple overhead, whatever fields carry it.
        let on_air = self.workload.frame_bytes() + timing::TUPLE_OVERHEAD_BYTES as usize;
        let empty = Tuple::new()
            .with(CREATED_US_FIELD, 0i64)
            .with("frame", SharedBytes::new());
        let frame = empty.clone().with(
            "frame",
            SharedBytes::from_vec(vec![0; on_air - empty.size_bytes()]),
        );

        let mut master = UnitRegistry::new();
        master.register_source("camera", move || {
            let frame = frame.clone();
            closure_source(move |now| Some(frame.clone().with(CREATED_US_FIELD, now as i64)))
        });
        master.register_sink("display", || closure_sink(|_, _| ()));
        let last_stage = stages.last().map(|(name, _)| *name);
        let mut roster = vec![(MASTER.to_string(), master, None)];
        for ((spec, hosted), name) in workers.iter().zip(names) {
            let mut r = UnitRegistry::new();
            for &stage in hosted {
                if Some(stage) == last_stage {
                    r.register_operator(stage, || {
                        closure_unit(|_frame: Tuple, ctx: &mut Context<'_>| {
                            ctx.send(Tuple::new().with("result", 1i64));
                        })
                    });
                } else {
                    r.register_operator(stage, || PassThrough);
                }
            }
            roster.push((name.clone(), r, Some(spec.clone())));
        }

        // Room in the lifecycle ring for every station of every frame.
        let peak_fps = self
            .rate_schedule
            .iter()
            .map(|&(_, fps)| fps)
            .fold(self.input_fps, f64::max);
        let frames = (self.duration_us as f64 / 1e6 * peak_fps) as usize + 64;
        let telemetry = Telemetry::with_event_capacity(frames * (8 + 6 * stages.len()));
        telemetry.enable_tracing();

        let mut config = SimSwarmConfig {
            seed: self.seed,
            radio_window_bytes: Some(self.dest_window_bytes),
            energy: Some(SimEnergyConfig::default()),
            stage_workloads: stages
                .iter()
                .map(|&(name, w)| (name.to_string(), w))
                .collect(),
            ..SimSwarmConfig::default()
        };
        config.node.router = self.router.clone();
        config.node.input_fps = self.input_fps;
        config.node.reorder = self.reorder;
        config.node.telemetry = telemetry.clone();
        config.node.retry = if self.resend_orphans {
            RetryConfig {
                deadline_floor_us: ORPHAN_RECLAIM_DEADLINE_US,
                deadline_ceiling_us: ORPHAN_RECLAIM_DEADLINE_US,
                ..RetryConfig::default()
            }
        } else {
            // Paper-prototype behavior: fire and forget; orphans of a
            // departed device are counted lost.
            RetryConfig::disabled()
        };

        let mut swarm =
            SimSwarm::start_described(graph, roster, config).expect("scenario swarm starts");
        for &(at, fps) in &self.rate_schedule {
            swarm.set_source_rate_at(at, fps);
        }
        swarm.run_until(self.duration_us);

        let specs: Vec<(&str, WorkerSpec)> = names
            .iter()
            .map(String::as_str)
            .zip(workers.into_iter().map(|(w, _)| w))
            .collect();
        let stages: Vec<&str> = stages.iter().map(|&(name, _)| name).collect();
        self.report(&mut swarm, &telemetry, &stages, &specs)
    }

    /// Fill the report from the engine's own records.
    fn report(
        &self,
        swarm: &mut SimSwarm,
        telemetry: &Telemetry,
        stages: &[&str],
        specs: &[(&str, WorkerSpec)],
    ) -> SwarmReport {
        assert_eq!(
            telemetry.events().shed(),
            0,
            "lifecycle ring overflowed: per-frame records would have holes"
        );
        let duration_s = self.duration_us as f64 / SECOND_US as f64;
        let seconds = duration_s as usize;
        // Unit → (index of its operator stage, if it is one; index of the
        // hosting worker in `specs`).
        let hosts: Vec<(UnitId, Option<usize>, Option<usize>)> = swarm
            .placements()
            .into_iter()
            .map(|(unit, stage, worker)| {
                (
                    unit,
                    stages.iter().position(|s| *s == stage),
                    specs.iter().position(|(name, _)| *name == worker),
                )
            })
            .collect();
        let host = |unit: u32| {
            hosts
                .iter()
                .find(|(u, ..)| u.0 == unit)
                .map_or((None, None), |&(_, op, w)| (op, w))
        };

        let mut frames: Vec<FrameRecord> = Vec::new();
        // Per stage: summed mailbox wait + service, and how many tuples.
        let mut stage_ms = vec![(0.0, 0u64); stages.len()];
        let mut received = vec![0u64; specs.len()];
        let mut completed = vec![0u64; specs.len()];
        let mut timeline: Vec<TimelinePoint> = (1..=seconds)
            .map(|t| TimelinePoint {
                t_s: t as f64,
                total_fps: 0.0,
                per_worker_fps: vec![0.0; specs.len()],
                per_worker_rssi: specs
                    .iter()
                    .map(|(_, s)| s.mobility.rssi_at(t as u64 * SECOND_US))
                    .collect(),
            })
            .collect();
        // The one-second window an instant falls into (windows close at
        // whole seconds, like a per-second sampler's tick).
        let window = |at_us: u64| (at_us.saturating_sub(1) / SECOND_US) as usize;
        let mut latency_ms = Summary::new();
        let mut latency_dist = Reservoir::default();

        for ev in telemetry.events().events() {
            let (operator, worker) = host(ev.unit);
            if ev.stage == Stage::Sensed {
                frames.push(FrameRecord {
                    seq: ev.seq,
                    created_us: ev.at_us,
                    ..FrameRecord::default()
                });
                continue;
            }
            let Some(fr) = frames.get_mut(ev.seq as usize) else {
                continue;
            };
            // Once the result is at the sink the frame's record is final:
            // a reclaim can still re-send a frame whose result was on the
            // air when its worker left, and that copy's journey is not
            // the frame's.
            let settled = fr.sink_us.is_some();
            match (ev.stage, operator.is_some()) {
                (Stage::Shed, _) => fr.dropped = true,
                (Stage::Dispatched, false) => fr.dispatched_us = Some(ev.at_us),
                (Stage::Retransmitted, false) if !settled => {
                    // A re-dispatch after its previous worker departed.
                    fr.retries += 1;
                    fr.dispatched_us = Some(ev.at_us);
                    fr.arrived_us = None;
                    fr.started_us = None;
                    fr.finished_us = None;
                }
                (Stage::Arrived, true) => {
                    if let Some(w) = worker {
                        received[w] += 1;
                    }
                    if !settled {
                        fr.worker = worker;
                        fr.arrived_us = Some(ev.at_us);
                    }
                }
                (Stage::Started, true) if !settled => fr.started_us = Some(ev.at_us),
                (Stage::Processed, true) => {
                    if let (false, Some(s), Some(arrived)) = (settled, operator, fr.arrived_us) {
                        fr.finished_us = Some(ev.at_us);
                        stage_ms[s].0 += (ev.at_us - arrived) as f64 / 1_000.0;
                        stage_ms[s].1 += 1;
                    }
                    if let Some(w) = worker {
                        completed[w] += 1;
                        if let Some(p) = timeline.get_mut(window(ev.at_us)) {
                            p.per_worker_fps[w] += 1.0;
                        }
                    }
                }
                // The first arrival at the sink completes the frame; a
                // resent copy whose original was already on the air is
                // a duplicate.
                (Stage::Arrived, false) if fr.sink_us.is_none() => {
                    fr.sink_us = Some(ev.at_us);
                    let ms = (ev.at_us - fr.created_us) as f64 / 1_000.0;
                    latency_ms.update(ms);
                    latency_dist.update(ms);
                    if let Some(p) = timeline.get_mut(window(ev.at_us)) {
                        p.total_fps += 1.0;
                    }
                }
                (Stage::Played, false) => {
                    fr.played_us.get_or_insert(ev.at_us);
                }
                _ => {}
            }
        }
        // Written off by a dispatcher (its worker left, or nowhere to
        // route) and never seen at the sink.
        for seq in swarm.lost_seqs() {
            if let Some(fr) = frames.get_mut(seq.0 as usize) {
                fr.lost = fr.sink_us.is_none();
            }
        }

        let _ = swarm.delivery_stats(); // publish the dispatchers' counters
        let snap = telemetry.snapshot();
        let workers = specs
            .iter()
            .enumerate()
            .map(|(w, &(name, _))| {
                let gauge = |metric| {
                    snap.gauge(metric, &[(tn::LABEL_WORKER, name)])
                        .unwrap_or(0.0)
                };
                WorkerStats {
                    name: name.to_string(),
                    received: received[w],
                    completed: completed[w],
                    input_fps: gauge(tn::DEVICE_INPUT_FPS),
                    cpu_util: gauge(tn::DEVICE_CPU_UTIL),
                    cpu_power_w: gauge(tn::DEVICE_CPU_POWER_W),
                    wifi_power_w: gauge(tn::DEVICE_WIFI_POWER_W),
                    bytes_rx: snap.counter(tn::NET_BYTES_RECEIVED, &[(tn::LABEL_LINK, name)]),
                    battery_frac: gauge(tn::BATTERY_FRAC),
                }
            })
            .collect();
        let to_s = |events: &[(u64, String)]| {
            events
                .iter()
                .map(|(t, n)| (*t as f64 / SECOND_US as f64, n.clone()))
                .collect()
        };
        let count = |f: fn(&FrameRecord) -> bool| frames.iter().filter(|fr| f(fr)).count() as u64;
        let completed = count(FrameRecord::completed);
        SwarmReport {
            duration_s,
            generated: snap.counter_total(tn::SOURCE_SENSED),
            dropped_at_source: snap.counter_total(tn::SOURCE_SHED),
            lost: count(|fr| fr.lost),
            completed,
            throughput_fps: completed as f64 / duration_s,
            latency_ms,
            latency_dist,
            workers,
            timeline,
            reorder_skipped: snap.counter_total(tn::SINK_SKIPPED),
            battery_deaths: to_s(swarm.battery_deaths()),
            low_power_events: to_s(swarm.low_power_events()),
            departures: to_s(swarm.departures()),
            stage_ms: stages
                .iter()
                .zip(stage_ms)
                .map(|(stage, (sum, n))| (stage.to_string(), sum / n.max(1) as f64))
                .collect(),
            frames,
            telemetry: snap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swing_core::routing::Policy;
    use swing_device::mobility::{MobilityTrace, SignalZone};
    use swing_device::profile::DeviceProfile;
    use swing_device::testbed;

    fn profile(name: &str) -> DeviceProfile {
        testbed().into_iter().find(|p| p.name == name).unwrap()
    }

    fn short_config(policy: Policy) -> Scenario {
        let mut c = Scenario::new(Workload::FaceRecognition, RouterConfig::new(policy));
        c.duration_us = 20 * SECOND_US;
        c
    }

    #[test]
    fn single_fast_worker_handles_low_rate() {
        let mut c = short_config(Policy::Rr);
        c.input_fps = 5.0; // H can do ~14 FPS
        let report = c.run(vec![WorkerSpec::new(profile("H"))]);
        assert_eq!(report.dropped_at_source, 0);
        assert!(report.lost == 0, "lost {}", report.lost);
        assert!(
            (report.throughput_fps - 5.0).abs() < 0.5,
            "throughput {}",
            report.throughput_fps
        );
        // Latency ~ tx + service: well under 200 ms.
        assert!(
            report.latency_ms.mean() < 200.0,
            "{}",
            report.latency_ms.mean()
        );
    }

    #[test]
    fn single_slow_worker_saturates_at_capacity() {
        // Fig 1: a single device cannot keep pace with 24 FPS.
        let c = short_config(Policy::Rr);
        let report = c.run(vec![WorkerSpec::new(profile("E"))]);
        // E processes ~2.2 FPS.
        assert!(report.throughput_fps < 3.5, "{}", report.throughput_fps);
        assert!(report.dropped_at_source > 0);
        // Delays build to seconds (bounded by buffers, not unbounded).
        assert!(report.latency_ms.mean() > 1_000.0);
    }

    #[test]
    fn swarm_of_fast_workers_reaches_real_time() {
        let c = short_config(Policy::Lrs);
        let workers = ["G", "H", "I"]
            .iter()
            .map(|n| WorkerSpec::new(profile(n)))
            .collect();
        let report = c.run(workers);
        assert!(
            report.throughput_fps > 20.0,
            "throughput {}",
            report.throughput_fps
        );
        assert!(
            report.latency_ms.mean() < 1_000.0,
            "{}",
            report.latency_ms.mean()
        );
    }

    #[test]
    fn two_phones_of_one_model_are_two_workers() {
        // H alone does ~14 FPS; a second H (and a worker of the master's
        // own model) share the load as workers in their own right.
        let c = short_config(Policy::Rr);
        let alone = c.run(vec![WorkerSpec::new(profile("H"))]);
        let pair = c.run(vec![
            WorkerSpec::new(profile("H")),
            WorkerSpec::new(profile("H")),
            WorkerSpec::new(profile("A")),
        ]);
        let names: Vec<&str> = pair.workers.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["H", "H.2", "A.2"]);
        assert!(pair.workers.iter().all(|w| w.completed > 100));
        assert!(alone.throughput_fps < 16.0 && pair.throughput_fps > 22.0);
    }

    #[test]
    fn lrs_beats_rr_with_straggler_and_bad_links() {
        let workers = || -> Vec<WorkerSpec> {
            vec![
                WorkerSpec::new(profile("B")).in_zone(SignalZone::Poor),
                WorkerSpec::new(profile("E")), // compute straggler
                WorkerSpec::new(profile("G")),
                WorkerSpec::new(profile("H")),
                WorkerSpec::new(profile("I")),
            ]
        };
        let rr = short_config(Policy::Rr).run(workers());
        let lrs = short_config(Policy::Lrs).run(workers());
        assert!(
            lrs.throughput_fps > 1.5 * rr.throughput_fps,
            "lrs {} vs rr {}",
            lrs.throughput_fps,
            rr.throughput_fps
        );
        assert!(
            lrs.latency_ms.mean() < rr.latency_ms.mean() / 2.0,
            "lrs {} vs rr {}",
            lrs.latency_ms.mean(),
            rr.latency_ms.mean()
        );
    }

    #[test]
    fn joining_worker_raises_throughput() {
        // Fig 9 (left): B, D computing; G joins at t=10 s.
        let mut c = short_config(Policy::Lrs);
        c.duration_us = 30 * SECOND_US;
        let workers = vec![
            WorkerSpec::new(profile("B")),
            WorkerSpec::new(profile("D")),
            WorkerSpec::new(profile("G")).joining_at(10 * SECOND_US),
        ];
        let report = c.run(workers);
        let before: f64 = report.timeline[..9]
            .iter()
            .map(|p| p.total_fps)
            .sum::<f64>()
            / 9.0;
        let after: f64 = report.timeline[15..]
            .iter()
            .map(|p| p.total_fps)
            .sum::<f64>()
            / (report.timeline.len() - 15) as f64;
        assert!(after > before + 3.0, "before {before:.1} after {after:.1}");
    }

    #[test]
    fn leaving_worker_drops_then_recovers() {
        // Fig 9 (right): B, G, H computing; G leaves at t=10 s. Whether
        // any frame is in flight on G at that instant depends on the RNG
        // draw sequence, so scan a few seeds for a run that catches some
        // ("13 frames are lost" in the paper's run) instead of pinning
        // one seed's behaviour.
        let run = |seed: u64| {
            let mut c = short_config(Policy::Lrs);
            c.duration_us = 30 * SECOND_US;
            c.seed = seed;
            let workers = vec![
                WorkerSpec::new(profile("B")),
                WorkerSpec::new(profile("G")).leaving_at(10 * SECOND_US),
                WorkerSpec::new(profile("H")),
            ];
            c.run(workers)
        };
        let report = (1..=16)
            .map(run)
            .find(|r| r.lost > 0)
            .expect("no seed in 1..=16 lost frames on leave");
        // Only a handful of in-flight frames are lost at departure.
        assert!(report.lost < 60, "too many frames lost: {}", report.lost);
        // Every generated frame is accounted for — lost, not wedged.
        assert!(
            report.generated >= report.completed + report.lost + report.dropped_at_source,
            "frame accounting leak: generated {} completed {} lost {} dropped {}",
            report.generated,
            report.completed,
            report.lost,
            report.dropped_at_source
        );
        // Throughput afterwards is what B+H can sustain, well above zero.
        let tail: f64 = report.timeline[20..]
            .iter()
            .map(|p| p.total_fps)
            .sum::<f64>()
            / (report.timeline.len() - 20) as f64;
        assert!(tail > 10.0, "tail throughput {tail}");
    }

    #[test]
    fn all_workers_leaving_loses_everything_gracefully() {
        let mut c = short_config(Policy::Lrs);
        c.duration_us = 10 * SECOND_US;
        let workers = vec![WorkerSpec::new(profile("H")).leaving_at(3 * SECOND_US)];
        let report = c.run(workers);
        assert!(report.completed > 0);
        assert!(report.lost > 0);
        // After the only worker leaves, frames are lost, not wedged.
        assert_eq!(
            report.generated,
            report.completed
                + report.lost
                + report.dropped_at_source
                + report
                    .frames
                    .iter()
                    .filter(|f| !f.completed() && !f.lost && !f.dropped)
                    .count() as u64
        );
    }

    #[test]
    fn mobility_to_poor_zone_shifts_load_away() {
        // Fig 10: G walks good -> weak -> poor; LRS re-routes to B, H.
        let mut c = short_config(Policy::Lrs);
        c.duration_us = 45 * SECOND_US;
        let walk = MobilityTrace::fig10_walk(15 * SECOND_US);
        let workers = vec![
            WorkerSpec::new(profile("B")),
            WorkerSpec::new(profile("G")).with_mobility(walk),
            WorkerSpec::new(profile("H")),
        ];
        let report = c.run(workers);
        // G's share in the first 10 s vs the last 10 s.
        let early: f64 = report.timeline[..10]
            .iter()
            .map(|p| p.per_worker_fps[1])
            .sum();
        let late: f64 = report.timeline[report.timeline.len() - 10..]
            .iter()
            .map(|p| p.per_worker_fps[1])
            .sum();
        assert!(
            late < early * 0.7,
            "G's load should fall after moving: early {early:.0} late {late:.0}"
        );
        // System keeps most of its throughput.
        let tail: f64 = report.timeline[report.timeline.len() - 5..]
            .iter()
            .map(|p| p.total_fps)
            .sum::<f64>()
            / 5.0;
        assert!(tail > 10.0, "tail {tail}");
    }

    #[test]
    fn background_load_reduces_worker_capacity() {
        let mut c = short_config(Policy::Rr);
        c.input_fps = 10.0;
        let unloaded = c.run(vec![WorkerSpec::new(profile("B"))]);
        let loaded = c.run(vec![WorkerSpec::new(profile("B")).with_background(1.0)]);
        assert!(loaded.throughput_fps < unloaded.throughput_fps);
        let unloaded_proc = unloaded.mean_component_ms(FrameRecord::processing_us);
        let loaded_proc = loaded.mean_component_ms(FrameRecord::processing_us);
        assert!(
            loaded_proc > 2.0 * unloaded_proc,
            "processing {unloaded_proc:.0} -> {loaded_proc:.0}"
        );
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let mk = || {
            let workers = vec![
                WorkerSpec::new(profile("B")).in_zone(SignalZone::Weak),
                WorkerSpec::new(profile("H")),
            ];
            short_config(Policy::Lrs).run(workers)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn frame_accounting_balances() {
        let c = short_config(Policy::Lrs);
        let workers = vec![WorkerSpec::new(profile("E")), WorkerSpec::new(profile("H"))];
        let report = c.run(workers);
        // Every generated frame is either completed, dropped, lost, or
        // still in flight at the end of the run.
        let in_flight = report
            .frames
            .iter()
            .filter(|f| !f.completed() && !f.dropped && !f.lost)
            .count() as u64;
        assert_eq!(
            report.generated,
            report.completed + report.dropped_at_source + report.lost + in_flight
        );
    }

    #[test]
    fn resent_orphans_survive_a_departure() {
        // The reliability extension: frames stranded on a departing
        // device are reclaimed by the shared dispatcher's eviction path
        // and re-routed to the survivors instead of being lost.
        let mut c = short_config(Policy::Lrs);
        c.duration_us = 30 * SECOND_US;
        c.resend_orphans = true;
        let workers = vec![
            WorkerSpec::new(profile("B")),
            WorkerSpec::new(profile("G")).leaving_at(10 * SECOND_US),
            WorkerSpec::new(profile("H")),
        ];
        let report = c.run(workers);
        assert_eq!(report.lost, 0, "orphans must be re-dispatched, not lost");
        assert!(
            report.frames.iter().any(|f| f.retries > 0),
            "some frames were in flight on G and must show re-dispatches"
        );
    }

    // -- multi-stage chains: LRS at every upstream instance ----------

    /// The paper's four-stage face app: camera -> detect -> recognize ->
    /// display, with per-stage costs on the reference device (`H`).
    fn face_stages(detect_ms: f64, recognize_ms: f64) -> [(&'static str, Workload); 2] {
        [
            (
                "detect",
                Workload::Custom {
                    reference_ms: detect_ms,
                },
            ),
            (
                "recognize",
                Workload::Custom {
                    reference_ms: recognize_ms,
                },
            ),
        ]
    }

    /// A chain scenario with no TCP-window back-pressure, so a stage's
    /// queue shows where the bottleneck is.
    fn chain_config() -> Scenario {
        let mut c = Scenario::new(Workload::FaceRecognition, RouterConfig::new(Policy::Lrs));
        c.duration_us = 30 * SECOND_US;
        c.seed = 7;
        c.dest_window_bytes = 64 * 1024 * 1024;
        c
    }

    fn hosting(letter: &str, stages: &[&'static str]) -> (WorkerSpec, Vec<&'static str>) {
        (WorkerSpec::new(profile(letter)), stages.to_vec())
    }

    fn stage_ms(report: &SwarmReport, stage: &str) -> f64 {
        report.stage_ms.iter().find(|(s, _)| s == stage).unwrap().1
    }

    #[test]
    fn four_stage_pipeline_sustains_target_rate() {
        // A: camera+display; G,H: detect; I,B: recognize. Detect ~40 ms,
        // recognize ~31 ms on the reference device: two replicas of each
        // cover 24 FPS.
        let report = chain_config().run_stages(
            &face_stages(40.0, 31.0),
            vec![
                hosting("G", &["detect"]),
                hosting("H", &["detect"]),
                hosting("I", &["recognize"]),
                hosting("B", &["recognize"]),
            ],
        );
        assert!(
            report.throughput_fps > 21.0,
            "throughput {:.1}",
            report.throughput_fps
        );
        // End-to-end ≈ hops + detect + recognize, well under a second.
        assert!(
            report.latency_ms.mean() < 400.0,
            "latency {:.0} ms",
            report.latency_ms.mean()
        );
        // Both stages did real work.
        assert!(stage_ms(&report, "detect") > 20.0);
        assert!(stage_ms(&report, "recognize") > 15.0);
    }

    #[test]
    fn each_upstream_routes_around_its_own_slow_downstream() {
        // Distributed routing: the detect instances each discover that
        // one recognize replica runs on the slow E and shift their
        // traffic to the fast replica — with no central coordinator.
        let report = chain_config().run_stages(
            &face_stages(30.0, 40.0),
            vec![
                hosting("G", &["detect"]),
                hosting("H", &["detect"]),
                hosting("I", &["recognize"]),
                hosting("E", &["recognize"]), // 6.5x slower
            ],
        );
        let (fast, slow) = (report.workers[2].received, report.workers[3].received);
        assert!(
            fast > 2 * slow,
            "fast recognize got {fast}, slow got {slow}"
        );
        assert!(report.throughput_fps > 18.0, "{:.1}", report.throughput_fps);
    }

    #[test]
    fn fusing_stages_on_one_device_cuts_transmission_latency() {
        let stages = face_stages(20.0, 15.0);
        let mut c = chain_config();
        c.input_fps = 10.0;
        // Split: every stage on its own device (3 radio hops).
        let split = c.run_stages(
            &stages,
            vec![hosting("H", &["detect"]), hosting("I", &["recognize"])],
        );
        // Fused: detect+recognize co-located on H (1 radio hop there,
        // in-memory hand-off, 1 hop back).
        let fused = c.run_stages(&stages, vec![hosting("H", &["detect", "recognize"])]);
        assert!(
            fused.latency_ms.mean() < split.latency_ms.mean(),
            "fused {:.1} ms vs split {:.1} ms",
            fused.latency_ms.mean(),
            split.latency_ms.mean()
        );
        assert!((fused.throughput_fps - 10.0).abs() < 1.0);
    }

    #[test]
    fn pipeline_runs_are_deterministic() {
        let mk = || {
            chain_config().run_stages(
                &face_stages(25.0, 25.0),
                vec![hosting("G", &["detect"]), hosting("H", &["recognize"])],
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn overloaded_stage_becomes_the_bottleneck() {
        // recognize takes 100 ms on H-class hardware: ~10 FPS ceiling.
        let report = chain_config().run_stages(
            &face_stages(10.0, 100.0),
            vec![hosting("H", &["detect"]), hosting("I", &["recognize"])],
        );
        assert!(
            report.throughput_fps < 13.0,
            "throughput {:.1} should be capped by recognize",
            report.throughput_fps
        );
        // The bottleneck stage accumulates queueing.
        assert!(stage_ms(&report, "recognize") > stage_ms(&report, "detect"));
    }
}
