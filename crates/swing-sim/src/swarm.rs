//! The swarm simulator: a deterministic discrete-event model of the
//! paper's evaluation topology — one source/master device (`A`) streaming
//! sensed frames to worker devices over a shared Wi-Fi AP, workers
//! computing and returning results to a sink co-located with the source.
//!
//! The dispatch layer is *not* simulated: the simulator embeds the real
//! [`Dispatcher`] from `swing-runtime` — the same routing / pending-queue
//! / orphan-reclaim state machine the live executors run — driving it
//! under a [`VirtualClock`] with simulated ACKs, so the exact production
//! LRS/RR/PR/LR/PRS code paths are measured. The simulator contributes
//! only what the runtime cannot know: the physics (radio link queues,
//! CPU service times, mobility, energy) and the per-frame lifecycle
//! records behind the paper's figures.
//!
//! ## Transport model
//!
//! Two mechanisms dominate the paper's measurements and are modeled
//! explicitly:
//!
//! 1. **Per-destination link queues** ([`SenderRadio`]): Wi-Fi
//!    interleaves packets across flows, so each destination has an
//!    independent queue whose rate collapses with weak signal (§VI-B1's
//!    TCP/Wi-Fi rate-adaptation effect). A poor-signal destination can
//!    absorb only ~1 video frame per second.
//! 2. **Per-destination byte windows** with head-of-line blocking: like a
//!    TCP socket buffer, each destination accepts a bounded number of
//!    in-flight bytes; when the chosen destination's window is full the
//!    dispatcher *waits* (this is what lets stragglers stall round
//!    robin — "stragglers can slow down the entire computation", §III —
//!    and collapses RR throughput to roughly `n × min_i rate_i`).
//!    The source's sensing buffer is bounded, so a stalled dispatcher
//!    drops frames exactly like a camera missing frames.
//!
//! The windows map onto the dispatcher's link gates
//! ([`Dispatcher::set_link_up`]) in *paced* mode: the simulator
//! transmits one tuple per [`Dispatcher::flush_one`] call and refreshes
//! the gates between sends, so the shared state machine observes the
//! same flow control a TCP socket buffer would impose.

use crate::metrics::{FrameRecord, SwarmReport, TimelinePoint, WorkerStats};
use crossbeam::channel::{unbounded, Receiver};
use std::collections::VecDeque;
use std::sync::Arc;
use swing_core::clock::VirtualClock;
use swing_core::config::{ReorderConfig, RetryConfig, RouterConfig};
use swing_core::event::EventQueue;
use swing_core::rate::Pacer;
use swing_core::reorder::ReorderBuffer;
use swing_core::rng::DetRng;
use swing_core::stats::{Reservoir, Summary};
use swing_core::{timing, SeqNo, Tuple, UnitId, SECOND_US};
use swing_device::cpu::CpuModel;
use swing_device::mobility::{MobilityTrace, SignalZone};
use swing_device::power::{EnergyLedger, PowerModel};
use swing_device::profile::{DeviceProfile, Workload};
use swing_device::radio::{link_quality, LinkQuality};
use swing_device::Battery;
use swing_net::link::SenderRadio;
use swing_net::Message;
use swing_runtime::{Dispatcher, NodeConfig};

/// ACK deadline used when `resend_orphans` is on: pushed past any
/// plausible run length so departure reclaim is the *only*
/// retransmission trigger — the reliability extension re-dispatches
/// orphans of departed devices, it does not add timer-based
/// retransmission on top of the paper's prototype.
const ORPHAN_RECLAIM_DEADLINE_US: u64 = 3_600 * SECOND_US;

/// Static description of one worker device in a scenario.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Hardware profile (usually one of [`swing_device::testbed`]).
    pub profile: DeviceProfile,
    /// Signal-strength trace (mobility).
    pub mobility: MobilityTrace,
    /// Background CPU-load schedule: `(time_us, load)` steps.
    pub background: Vec<(u64, f64)>,
    /// When the device joins the swarm (0 = present from the start).
    pub join_at_us: u64,
    /// When the device abruptly leaves, if ever.
    pub leave_at_us: Option<u64>,
    /// Battery capacity override in joules (`None` uses the profile's
    /// full pack). Tournament traces use small packs so battery cliffs
    /// land inside a one-minute run.
    pub battery_j: Option<f64>,
}

impl WorkerSpec {
    /// A stationary, unloaded worker present for the whole run.
    #[must_use]
    pub fn new(profile: DeviceProfile) -> Self {
        WorkerSpec {
            profile,
            mobility: MobilityTrace::in_zone(SignalZone::Good),
            background: Vec::new(),
            join_at_us: 0,
            leave_at_us: None,
            battery_j: None,
        }
    }

    /// Place the worker in a fixed signal zone.
    #[must_use]
    pub fn in_zone(mut self, zone: SignalZone) -> Self {
        self.mobility = MobilityTrace::in_zone(zone);
        self
    }

    /// Use an arbitrary mobility trace.
    #[must_use]
    pub fn with_mobility(mut self, trace: MobilityTrace) -> Self {
        self.mobility = trace;
        self
    }

    /// Run a constant background CPU load for the whole run.
    #[must_use]
    pub fn with_background(mut self, load: f64) -> Self {
        self.background = vec![(0, load)];
        self
    }

    /// Join the swarm mid-run.
    #[must_use]
    pub fn joining_at(mut self, t_us: u64) -> Self {
        self.join_at_us = t_us;
        self
    }

    /// Leave the swarm abruptly mid-run.
    #[must_use]
    pub fn leaving_at(mut self, t_us: u64) -> Self {
        self.leave_at_us = Some(t_us);
        self
    }

    /// Start the run with a partially-sized battery pack (joules)
    /// instead of the profile's full pack, so battery cliffs are
    /// reachable within a short simulated run.
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive.
    #[must_use]
    pub fn with_battery_j(mut self, capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        self.battery_j = Some(capacity_j);
        self
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// The sensing workload (sets frame size and per-device service times).
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
    /// Source sensing-buffer capacity in frames; when full, new frames
    /// are dropped (a camera missing frames).
    pub source_buffer_frames: usize,
    /// Per-destination in-flight window in bytes (TCP socket buffering).
    pub dest_window_bytes: usize,
    /// Advertise the input rate to the router as a demand floor.
    pub demand_hint: bool,
    /// Keep per-frame records in the report (cheap; on by default).
    pub record_frames: bool,
    /// A single transmission taking longer than this is treated as a
    /// broken link: the frame is lost and the destination is removed
    /// from the swarm — the paper's "when a network link is broken, due
    /// to poor wireless signal [...], the affected upstream units
    /// automatically remove the corresponding downstream" (§IV-C).
    /// Matters for large frames on collapsed links (a 72 kB voice frame
    /// on a poor link takes ~10 s; any real TCP stack times out).
    pub link_break_us: u64,
    /// Re-dispatch frames orphaned by a departing device instead of
    /// losing them — the reliability extension MobiStreams explores (the
    /// paper's prototype loses them: "13 frames are lost"). Maps onto
    /// the dispatcher's retry machinery with the ACK deadline pushed
    /// past the run length, so eviction reclaim is the only resend path.
    pub resend_orphans: bool,
    /// Input-rate schedule: at each `(time_us, fps)` step the source
    /// changes its sensing rate. Applied on top of `input_fps`.
    pub rate_schedule: Vec<(u64, f64)>,
    /// Battery fraction below which a worker reports a low-power event
    /// (once per run). Matches the CROWDio "dying" threshold by default.
    pub low_power_frac: f64,
}

impl SwarmConfig {
    /// Paper-style defaults for the given workload and router config:
    /// 24 FPS input, 60 s run, 1 s reorder span.
    #[must_use]
    pub fn new(workload: Workload, router: RouterConfig) -> Self {
        SwarmConfig {
            workload,
            router,
            input_fps: 24.0,
            duration_us: 60 * SECOND_US,
            seed: 42,
            reorder: ReorderConfig::one_second(),
            source_buffer_frames: 24,
            dest_window_bytes: 26_000,
            demand_hint: false,
            record_frames: true,
            link_break_us: 8 * SECOND_US,
            resend_orphans: false,
            rate_schedule: Vec::new(),
            low_power_frac: 0.15,
        }
    }
}

/// Events driving the simulation.
#[derive(Debug, Clone)]
enum Ev {
    /// The source senses its next frame.
    Generate,
    /// Frame `seq` fully arrived at worker `w`.
    Arrive { w: usize, seq: u64 },
    /// Worker `w` finished processing frame `seq`.
    EndService { w: usize, seq: u64 },
    /// ACK for `seq` (processing delay attached) reached the source.
    AckArrive { seq: u64, processing_us: u64 },
    /// The result of `seq` reached the sink.
    ResultArrive { seq: u64 },
    /// Worker `w` joins the swarm.
    Join { w: usize },
    /// Worker `w` leaves abruptly.
    Leave { w: usize },
    /// Worker `w`'s background load becomes `load`.
    Background { w: usize, load: f64 },
    /// Re-evaluate worker `w`'s connectivity after a mobility step.
    MobilityCheck { w: usize },
    /// The source's sensing rate changes (rate schedule step).
    RateChange { fps: f64 },
    /// Per-second metrics sampling.
    MetricsTick,
}

struct WorkerState {
    spec: WorkerSpec,
    cpu: CpuModel,
    power: PowerModel,
    active: bool,
    /// The receiving end of the dispatcher's link toward this worker:
    /// tuples the shared dispatch state machine put "on the wire",
    /// awaiting the radio physics.
    wire: Option<Receiver<Message>>,
    /// Frames waiting for the CPU (seq numbers).
    queue: VecDeque<u64>,
    busy: bool,
    /// Sender-side in-flight bytes toward this worker.
    window_bytes: usize,
    /// Downlink queue from the AP toward this worker. Wi-Fi interleaves
    /// packets across flows, so per-destination queues are independent —
    /// a collapsed link to one device does not stall frames to others
    /// (the dispatcher's bounded windows are what couple destinations).
    downlink: SenderRadio,
    /// Radio used for ACK/result uplink.
    radio: SenderRadio,
    // Per-run counters.
    received: u64,
    completed: u64,
    bytes_rx: u64,
    // Per-tick window counters.
    busy_us_window: u64,
    bytes_window: u64,
    completed_window: u64,
    // Accumulated averages.
    util_sum: f64,
    util_ticks: u64,
    energy: EnergyLedger,
    /// The device's energy store, drained each metrics tick by exactly
    /// the joules the ledger charged — the live counterpart of Fig. 6's
    /// post-hoc accounting.
    battery: Battery,
    /// Ledger total at the previous tick (drain-rate estimation).
    last_total_j: f64,
    /// App power draw over the last tick, watts.
    drain_w: f64,
    /// The one-shot low-power report has fired.
    low_power_reported: bool,
}

impl WorkerState {
    fn new(spec: WorkerSpec, workload: Workload) -> Self {
        let cpu = CpuModel::new(&spec.profile, workload);
        let power = PowerModel::new(&spec.profile);
        let battery = Battery::new(spec.battery_j.unwrap_or(spec.profile.battery_j));
        let active = spec.join_at_us == 0;
        WorkerState {
            spec,
            cpu,
            power,
            active,
            wire: None,
            queue: VecDeque::new(),
            busy: false,
            window_bytes: 0,
            downlink: SenderRadio::new(),
            radio: SenderRadio::new(),
            received: 0,
            completed: 0,
            bytes_rx: 0,
            busy_us_window: 0,
            bytes_window: 0,
            completed_window: 0,
            util_sum: 0.0,
            util_ticks: 0,
            energy: EnergyLedger::default(),
            battery,
            last_total_j: 0.0,
            drain_w: 0.0,
            low_power_reported: false,
        }
    }

    fn quality_at(&self, t_us: u64) -> LinkQuality {
        link_quality(self.spec.mobility.rssi_at(t_us))
    }

    /// Remaining charge fraction; infinite packs (cloudlet-class
    /// profiles) always read full.
    fn battery_frac(&self) -> f64 {
        if self.battery.capacity_j().is_infinite() {
            1.0
        } else {
            self.battery.level().clamp(0.0, 1.0)
        }
    }
}

/// The swarm simulator. Build with a config and worker specs, then call
/// [`run`](Swarm::run).
pub struct Swarm {
    config: SwarmConfig,
    workers: Vec<WorkerState>,
    /// The production dispatch state machine (routing, pending queue,
    /// committed destinations, orphan reclaim), driven in paced mode
    /// under the simulator's virtual clock.
    disp: Dispatcher,
    clock: Arc<VirtualClock>,
    queue: EventQueue<Ev>,
    rng: DetRng,
    pacer: Pacer,
    reorder: ReorderBuffer<u64>,
    frames: Vec<FrameRecord>,
    frame_bytes: usize,
    // Counters.
    generated: u64,
    dropped: u64,
    lost: u64,
    completed: u64,
    completed_window: u64,
    latency_ms: Summary,
    latency_dist: Reservoir,
    timeline: Vec<TimelinePoint>,
    /// Workers whose battery hit empty mid-run, in death order.
    battery_deaths: Vec<(u64, String)>,
    /// One-shot low-power crossings, in report order.
    low_power_events: Vec<(u64, String)>,
    /// Every permanent removal (battery cliff, scripted leave, mobility
    /// disconnect, broken link), in removal order.
    departures: Vec<(u64, String)>,
}

impl std::fmt::Debug for Swarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("workers", &self.workers.len())
            .field("now_us", &self.queue.now_us())
            .finish_non_exhaustive()
    }
}

impl Swarm {
    /// Create a simulator for the given scenario.
    ///
    /// # Panics
    /// Panics if `workers` is empty or the router config is invalid.
    #[must_use]
    pub fn new(config: SwarmConfig, workers: Vec<WorkerSpec>) -> Self {
        assert!(!workers.is_empty(), "a swarm needs at least one worker");
        let clock = VirtualClock::shared();
        let retry = if config.resend_orphans {
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
        let node = NodeConfig {
            router: config.router.clone(),
            input_fps: config.input_fps,
            reorder: config.reorder,
            retry,
            worker_label: "sim-source".to_string(),
            clock: clock.clone(),
            ..NodeConfig::default()
        };
        // The source's dispatcher: unit 0; workers are units 1..=N.
        let mut disp = Dispatcher::new(UnitId(0), &node);
        disp.set_paced(true);
        disp.enable_loss_log();
        if config.demand_hint {
            disp.router_mut().set_demand_hint(Some(config.input_fps));
        }
        let mut queue = EventQueue::new();
        let workload = config.workload;
        let mut states: Vec<WorkerState> = workers
            .into_iter()
            .map(|spec| WorkerState::new(spec, workload))
            .collect();
        // Register initially-present workers; schedule joins/leaves and
        // background/mobility steps.
        for (w, st) in states.iter_mut().enumerate() {
            if st.active {
                let (tx, rx) = unbounded();
                st.wire = Some(rx);
                disp.add_downstream(unit_of(w), tx.into());
            } else {
                queue.schedule(st.spec.join_at_us, Ev::Join { w });
            }
            if let Some(t) = st.spec.leave_at_us {
                queue.schedule(t, Ev::Leave { w });
            }
            for &(t, load) in &st.spec.background {
                queue.schedule(t, Ev::Background { w, load });
            }
            for t in st.spec.mobility.transition_times() {
                queue.schedule(t, Ev::MobilityCheck { w });
            }
        }
        for &(t, fps) in &config.rate_schedule {
            queue.schedule(t, Ev::RateChange { fps });
        }
        queue.schedule(0, Ev::Generate);
        queue.schedule(SECOND_US, Ev::MetricsTick);
        let frame_bytes = workload.frame_bytes() + timing::TUPLE_OVERHEAD_BYTES as usize;
        Swarm {
            pacer: Pacer::new(config.input_fps, 0),
            rng: DetRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            reorder: ReorderBuffer::new(config.reorder),
            disp,
            clock,
            queue,
            workers: states,
            frames: Vec::new(),
            frame_bytes,
            generated: 0,
            dropped: 0,
            lost: 0,
            completed: 0,
            completed_window: 0,
            latency_ms: Summary::new(),
            latency_dist: Reservoir::default(),
            timeline: Vec::new(),
            battery_deaths: Vec::new(),
            low_power_events: Vec::new(),
            departures: Vec::new(),
            config,
        }
    }

    /// Run to completion and produce the measurement report.
    #[must_use]
    pub fn run(mut self) -> SwarmReport {
        let end = self.config.duration_us;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event exists");
            self.handle(now, ev);
        }
        self.finish()
    }

    fn handle(&mut self, now: u64, ev: Ev) {
        // The dispatcher reads time through its injected clock; keep it
        // in lockstep with the event loop.
        self.clock.advance_to(now);
        match ev {
            Ev::Generate => self.on_generate(now),
            Ev::Arrive { w, seq } => self.on_arrive(now, w, seq),
            Ev::EndService { w, seq } => self.on_end_service(now, w, seq),
            Ev::AckArrive { seq, processing_us } => {
                self.disp.on_ack(SeqNo(seq), processing_us);
            }
            Ev::ResultArrive { seq } => self.on_result(now, seq),
            Ev::Join { w } => self.on_join(w),
            Ev::Leave { w } => self.on_leave(now, w),
            Ev::Background { w, load } => self.workers[w].cpu.set_background_load(load),
            Ev::MobilityCheck { w } => {
                if self.workers[w].active && !self.workers[w].quality_at(now).connected {
                    self.on_leave(now, w);
                }
            }
            Ev::RateChange { fps } => self.pacer.set_rate(fps),
            Ev::MetricsTick => self.on_metrics_tick(now),
        }
        self.pump(now);
    }

    fn on_generate(&mut self, now: u64) {
        let seq = self.generated;
        self.generated += 1;
        // The offered load Λ is what the sensor produces, independent of
        // whether the network can currently absorb it.
        self.disp.router_mut().note_arrival(now);
        self.frames.push(FrameRecord {
            seq,
            created_us: now,
            ..FrameRecord::default()
        });
        // The dispatcher's pending queue *is* the sensing buffer: every
        // queued tuple is a sensed frame the network has not absorbed.
        if self.disp.pending_len() >= self.config.source_buffer_frames {
            // Sensing buffer full: the camera drops this frame.
            self.frames[seq as usize].dropped = true;
            self.dropped += 1;
        } else {
            let mut tuple = Tuple::new();
            tuple.set_seq(SeqNo(seq));
            self.disp.dispatch(tuple);
        }
        let next = self.pacer.consume_next().max(now + 1);
        self.queue.schedule(next, Ev::Generate);
    }

    /// Push the dispatcher's output onto the simulated air until it
    /// blocks (full window, no route) or runs dry: one tuple per flush,
    /// radio physics applied on observation, byte-window gates refreshed
    /// between consecutive sends.
    fn pump(&mut self, now: u64) {
        loop {
            self.drain_wire(now);
            self.settle_losses();
            if !self.disp.flush_one() {
                break;
            }
        }
    }

    /// Observe every tuple the dispatcher transmitted and run the radio
    /// physics for it.
    fn drain_wire(&mut self, now: u64) {
        for w in 0..self.workers.len() {
            let Some(rx) = self.workers[w].wire.clone() else {
                continue;
            };
            while let Ok(msg) = rx.try_recv() {
                if let Message::Data { tuple, .. } = msg {
                    self.on_wire_data(now, w, tuple.seq().0);
                }
            }
        }
    }

    /// Settle per-frame records for tuples the dispatcher wrote off
    /// (no downstream left, or orphaned with retries disabled).
    fn settle_losses(&mut self) {
        for seq in self.disp.take_lost_seqs() {
            self.mark_lost(seq.0);
        }
    }

    /// Mirror worker `w`'s in-flight byte window onto the dispatcher's
    /// link gate. An empty window always admits a frame, so frames
    /// larger than the window (72 kB voice frames vs a 32 kB window)
    /// still flow — one at a time, exactly like TCP with a small socket
    /// buffer.
    fn sync_gate(&mut self, w: usize) {
        if !self.workers[w].active {
            return; // eviction dropped the gate along with the route
        }
        let used = self.workers[w].window_bytes;
        let admits = used == 0 || used + self.frame_bytes <= self.config.dest_window_bytes;
        self.disp.set_link_up(unit_of(w), admits);
    }

    /// The dispatcher put frame `seq` on the wire toward worker `w`:
    /// model the transmission.
    fn on_wire_data(&mut self, now: u64, w: usize, seq: u64) {
        if !self.workers[w].active {
            // Stale: the eviction that killed the worker already
            // reclaimed (or wrote off) this tuple.
            return;
        }
        if self.frames[seq as usize].completed() {
            // A reclaim re-sent a frame whose result was already on the
            // air when its worker left; the receiver would dedup it.
            return;
        }
        let quality = self.workers[w].quality_at(now);
        let frame_bytes = self.frame_bytes;
        let Some(tx) = self.workers[w]
            .downlink
            .enqueue(now, frame_bytes, quality, &mut self.rng)
        else {
            // Link broke between routing and transmission: drop the
            // worker; the eviction reclaims (or writes off) everything
            // unACKed toward it, this frame included.
            self.on_leave(now, w);
            return;
        };
        if tx.end_us - tx.start_us > self.config.link_break_us {
            // The transfer would out-live any TCP timeout: declare the
            // link broken and drop the worker.
            self.on_leave(now, w);
            return;
        }
        let fr = &mut self.frames[seq as usize];
        if fr.dispatched_us.is_some() {
            // A re-dispatch after its previous worker departed.
            fr.retries += 1;
            fr.arrived_us = None;
            fr.started_us = None;
            fr.finished_us = None;
        }
        fr.worker = Some(w);
        fr.dispatched_us = Some(now);
        self.workers[w].window_bytes += frame_bytes;
        self.sync_gate(w);
        self.queue.schedule(tx.end_us, Ev::Arrive { w, seq });
    }

    fn on_arrive(&mut self, now: u64, w: usize, seq: u64) {
        if !self.workers[w].active || self.frames[seq as usize].worker != Some(w) {
            // The destination died while the frame was on the air (its
            // eviction settled the frame), or the frame was re-assigned.
            return;
        }
        if !self.frames[seq as usize].completed() {
            self.frames[seq as usize].arrived_us = Some(now);
        }
        let st = &mut self.workers[w];
        st.received += 1;
        st.bytes_rx += self.frame_bytes as u64;
        st.bytes_window += self.frame_bytes as u64;
        st.queue.push_back(seq);
        if !st.busy {
            self.start_service(now, w);
        }
    }

    fn start_service(&mut self, now: u64, w: usize) {
        let Some(seq) = self.workers[w].queue.pop_front() else {
            self.workers[w].busy = false;
            return;
        };
        self.workers[w].busy = true;
        // The worker read the frame out of its socket buffer: the
        // sender-side window space is released (the gate reopens and
        // the pump pushes the pending queue after this event).
        self.workers[w].window_bytes = self.workers[w]
            .window_bytes
            .saturating_sub(self.frame_bytes);
        self.sync_gate(w);
        let service = self.workers[w].cpu.sample_service_us(&mut self.rng);
        self.workers[w].busy_us_window += service;
        if !self.frames[seq as usize].completed() {
            self.frames[seq as usize].started_us = Some(now);
        }
        self.queue
            .schedule(now + service, Ev::EndService { w, seq });
    }

    fn on_end_service(&mut self, now: u64, w: usize, seq: u64) {
        if !self.workers[w].active || self.frames[seq as usize].worker != Some(w) {
            // Stale event: the worker left mid-service (its eviction
            // settled the frame) or the frame was re-assigned elsewhere.
            return;
        }
        if !self.frames[seq as usize].completed() {
            self.frames[seq as usize].finished_us = Some(now);
        }
        let processing_us = now - self.frames[seq as usize].started_us.unwrap_or(now);
        // Send the result to the sink and the ACK to the upstream over
        // the worker's own radio (small payloads).
        let quality = self.workers[w].quality_at(now);
        if let Some(tx) =
            self.workers[w]
                .radio
                .enqueue(now, timing::ACK_BYTES as usize, quality, &mut self.rng)
        {
            self.workers[w].completed += 1;
            self.workers[w].completed_window += 1;
            self.workers[w].bytes_window += timing::ACK_BYTES;
            self.queue
                .schedule(tx.end_us, Ev::AckArrive { seq, processing_us });
            self.queue.schedule(tx.end_us, Ev::ResultArrive { seq });
            self.start_service(now, w);
        } else {
            // The uplink broke: drop the worker; its eviction reclaims
            // (or writes off) every unACKed frame, this one included.
            self.on_leave(now, w);
        }
    }

    fn on_result(&mut self, now: u64, seq: u64) {
        if self.frames[seq as usize].sink_us.is_some() {
            // Duplicate: in resend mode the original's result can still
            // be on the air while the re-sent copy also completes.
            return;
        }
        if self.frames[seq as usize].lost {
            // The frame was conservatively written off (its worker left
            // before the ACK arrived) but the result was already on the
            // air. The arrival proves it survived.
            self.frames[seq as usize].lost = false;
            self.lost -= 1;
        }
        self.frames[seq as usize].sink_us = Some(now);
        self.completed += 1;
        self.completed_window += 1;
        if let Some(e2e) = self.frames[seq as usize].e2e_us() {
            let ms = e2e as f64 / 1_000.0;
            self.latency_ms.update(ms);
            self.latency_dist.update(ms);
        }
        for played in self.reorder.push(SeqNo(seq), seq, now) {
            self.frames[played.item as usize].played_us = Some(played.played_us);
        }
    }

    fn on_join(&mut self, w: usize) {
        if self.workers[w].active {
            return;
        }
        self.workers[w].active = true;
        let (tx, rx) = unbounded();
        self.workers[w].wire = Some(rx);
        self.disp.add_downstream(unit_of(w), tx.into());
        self.sync_gate(w);
    }

    fn on_leave(&mut self, now: u64, w: usize) {
        if !self.workers[w].active {
            return;
        }
        self.departures
            .push((now, self.workers[w].spec.profile.name.clone()));
        self.workers[w].active = false;
        self.workers[w].busy = false;
        self.workers[w].window_bytes = 0;
        // Frames queued on the device die with it; none of them (nor
        // the frames still on the air) have been ACKed, so the
        // dispatcher's eviction reclaims them all: re-queued for
        // re-dispatch with `resend_orphans` (reliability extension),
        // counted lost without — the paper's prototype loses them
        // ("13 frames are lost", §VI-C).
        self.workers[w].queue.clear();
        self.workers[w].wire = None;
        let _ = self.disp.remove_downstream(unit_of(w));
    }

    fn mark_lost(&mut self, seq: u64) {
        let fr = &mut self.frames[seq as usize];
        if fr.sink_us.is_none() && !fr.lost {
            fr.lost = true;
            self.lost += 1;
        }
    }

    fn on_metrics_tick(&mut self, now: u64) {
        let period_s = 1.0;
        let mut point = TimelinePoint {
            t_s: now as f64 / SECOND_US as f64,
            total_fps: self.completed_window as f64 / period_s,
            per_worker_fps: Vec::with_capacity(self.workers.len()),
            per_worker_rssi: Vec::with_capacity(self.workers.len()),
        };
        self.completed_window = 0;
        // Vitals snapshot and battery events, settled after the borrow
        // on `workers` ends (deaths re-enter the dispatcher).
        let mut vitals: Vec<(usize, f64, f64, f64)> = Vec::new();
        let mut newly_low: Vec<usize> = Vec::new();
        let mut newly_dead: Vec<usize> = Vec::new();
        let low_power_frac = self.config.low_power_frac;
        for (w, st) in self.workers.iter_mut().enumerate() {
            let busy_frac = (st.busy_us_window as f64 / SECOND_US as f64).min(1.0);
            let overhead = if st.active { 0.14 } else { 0.0 };
            let total_util = (busy_frac + overhead + st.cpu.background_load()).min(1.0);
            let app_util = (busy_frac + overhead).min(1.0);
            let rate_bps = st.bytes_window as f64 / period_s;
            st.energy.charge(&st.power, app_util, rate_bps, period_s);
            // Drain the battery by exactly what the ledger charged this
            // tick, so the live store and the post-hoc accounting agree.
            let tick_j = st.energy.total_j() - st.last_total_j;
            st.last_total_j = st.energy.total_j();
            st.drain_w = tick_j / period_s;
            st.battery.drain(st.drain_w, period_s);
            if st.active {
                if !st.low_power_reported && st.battery_frac() <= low_power_frac {
                    st.low_power_reported = true;
                    newly_low.push(w);
                }
                if st.battery.is_empty() {
                    newly_dead.push(w);
                } else {
                    vitals.push((
                        w,
                        st.battery_frac(),
                        st.drain_w,
                        st.spec.mobility.rssi_at(now),
                    ));
                }
            }
            st.util_sum += total_util;
            st.util_ticks += 1;
            point
                .per_worker_fps
                .push(st.completed_window as f64 / period_s);
            point.per_worker_rssi.push(st.spec.mobility.rssi_at(now));
            st.busy_us_window = 0;
            st.bytes_window = 0;
            st.completed_window = 0;
        }
        self.timeline.push(point);
        // Feed the dispatcher's router the energy vitals the
        // lifetime-aware policies (ELRS / RSS / CROWDIO) select on.
        for &(w, frac, drain, rssi) in &vitals {
            self.disp.note_worker_vitals(unit_of(w), frac, drain, rssi);
        }
        for &w in &newly_low {
            self.low_power_events
                .push((now, self.workers[w].spec.profile.name.clone()));
        }
        for &w in &newly_dead {
            // The battery cliff: the device dies mid-swarm exactly like
            // an abrupt departure — the upstream evicts it and reclaims
            // (or writes off) its in-flight frames.
            self.battery_deaths
                .push((now, self.workers[w].spec.profile.name.clone()));
            self.on_leave(now, w);
        }
        // Let reorder gaps time out even in quiet periods.
        for played in self.reorder.poll(now) {
            self.frames[played.item as usize].played_us = Some(played.played_us);
        }
        self.queue.schedule(now + SECOND_US, Ev::MetricsTick);
    }

    fn finish(self) -> SwarmReport {
        let duration_s = self.config.duration_us as f64 / SECOND_US as f64;
        let workers = self
            .workers
            .iter()
            .map(|st| WorkerStats {
                name: st.spec.profile.name.clone(),
                received: st.received,
                completed: st.completed,
                input_fps: st.received as f64 / duration_s,
                cpu_util: if st.util_ticks > 0 {
                    st.util_sum / st.util_ticks as f64
                } else {
                    0.0
                },
                cpu_power_w: st.energy.mean_cpu_w(),
                wifi_power_w: st.energy.mean_wifi_w(),
                bytes_rx: st.bytes_rx,
                energy: st.energy,
                battery_frac: st.battery_frac(),
            })
            .collect();
        let to_s = |events: &[(u64, String)]| {
            events
                .iter()
                .map(|(t, n)| (*t as f64 / SECOND_US as f64, n.clone()))
                .collect()
        };
        SwarmReport {
            duration_s,
            generated: self.generated,
            dropped_at_source: self.dropped,
            lost: self.lost,
            completed: self.completed,
            throughput_fps: self.completed as f64 / duration_s,
            latency_ms: self.latency_ms,
            latency_dist: self.latency_dist,
            workers,
            timeline: self.timeline,
            frames: if self.config.record_frames {
                self.frames
            } else {
                Vec::new()
            },
            reorder_skipped: self.reorder.skipped(),
            battery_deaths: to_s(&self.battery_deaths),
            low_power_events: to_s(&self.low_power_events),
            departures: to_s(&self.departures),
        }
    }
}

/// Unit id of worker index `w` (the source unit is id 0).
#[must_use]
pub fn unit_of(w: usize) -> UnitId {
    UnitId(w as u32 + 1)
}

/// Worker index of a unit id.
#[must_use]
pub fn worker_of(unit: UnitId) -> usize {
    (unit.0 - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use swing_core::routing::Policy;
    use swing_device::testbed;

    fn profile(name: &str) -> DeviceProfile {
        testbed().into_iter().find(|p| p.name == name).unwrap()
    }

    fn short_config(policy: Policy) -> SwarmConfig {
        let mut c = SwarmConfig::new(Workload::FaceRecognition, RouterConfig::new(policy));
        c.duration_us = 20 * SECOND_US;
        c
    }

    #[test]
    fn single_fast_worker_handles_low_rate() {
        let mut c = short_config(Policy::Rr);
        c.input_fps = 5.0; // H can do ~14 FPS
        let report = Swarm::new(c, vec![WorkerSpec::new(profile("H"))]).run();
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
        let report = Swarm::new(c, vec![WorkerSpec::new(profile("E"))]).run();
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
        let report = Swarm::new(c, workers).run();
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
    fn lrs_beats_rr_with_straggler_and_bad_links() {
        let workers = |_p: Policy| -> Vec<WorkerSpec> {
            vec![
                WorkerSpec::new(profile("B")).in_zone(SignalZone::Poor),
                WorkerSpec::new(profile("E")), // compute straggler
                WorkerSpec::new(profile("G")),
                WorkerSpec::new(profile("H")),
                WorkerSpec::new(profile("I")),
            ]
        };
        let rr = Swarm::new(short_config(Policy::Rr), workers(Policy::Rr)).run();
        let lrs = Swarm::new(short_config(Policy::Lrs), workers(Policy::Lrs)).run();
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
        let report = Swarm::new(c, workers).run();
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
            Swarm::new(c, workers).run()
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
        let report = Swarm::new(c, workers).run();
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
        let report = Swarm::new(c, workers).run();
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
        let unloaded = Swarm::new(c.clone(), vec![WorkerSpec::new(profile("B"))]).run();
        let loaded = Swarm::new(c, vec![WorkerSpec::new(profile("B")).with_background(1.0)]).run();
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
            Swarm::new(short_config(Policy::Lrs), workers).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.frames.len(), b.frames.len());
        for (x, y) in a.frames.iter().zip(&b.frames) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn frame_accounting_balances() {
        let c = short_config(Policy::Lrs);
        let workers = vec![WorkerSpec::new(profile("E")), WorkerSpec::new(profile("H"))];
        let report = Swarm::new(c, workers).run();
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
        let report = Swarm::new(c, workers).run();
        assert_eq!(report.lost, 0, "orphans must be re-dispatched, not lost");
        assert!(
            report.frames.iter().any(|f| f.retries > 0),
            "some frames were in flight on G and must show re-dispatches"
        );
    }

    #[test]
    fn unit_ids_map_to_worker_indices() {
        assert_eq!(worker_of(unit_of(0)), 0);
        assert_eq!(worker_of(unit_of(7)), 7);
        assert_eq!(unit_of(2), UnitId(3));
    }
}
