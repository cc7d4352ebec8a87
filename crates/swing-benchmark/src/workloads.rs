//! The five workloads (four the driver runs, `relay_saturate` by hand:
//! `metrics::BY_HAND`). Each says why it exists; README.md has the long
//! form and the table of which layer metric should move which of these.

use crate::live::{self, App, LiveSpec, OpInstaller, RunOpts};
use crate::metrics::{Outcome, SIM_FEDERATION};
use crate::procstat;
use crate::stats;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swing_apps::{face, voice};
use swing_core::rng::DetRng;
use swing_core::routing::Policy;
use swing_core::unit::{Context, FunctionUnit, PassThrough};
use swing_core::{SharedBytes, Tuple};
use swing_sim::federation::{Federation, FederationConfig};
use swing_telemetry::{names as tn, Snapshot};

/// A live workload's spec and its app, seeded.
fn live_workload(name: &str, seed: u64) -> Option<(&'static LiveSpec, Arc<dyn App>)> {
    Some(match name {
        "face_testbed" => (&FACE_TESTBED, Arc::new(FaceApp::new(seed))),
        "relay_idle" => (&RELAY_IDLE, Arc::new(RelayApp::new(seed))),
        "relay_saturate" => (&RELAY_SATURATE, Arc::new(RelayApp::new(seed))),
        "voice_saturate" => (&VOICE_SATURATE, Arc::new(VoiceApp::new(seed))),
        _ => return None,
    })
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload {name:?}; known: {}",
        crate::metrics::every_workload()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Run the named workload.
pub fn run(name: &str, opts: RunOpts) -> Result<Outcome, String> {
    match live_workload(name, opts.seed) {
        Some((spec, app)) => live::run(spec, app, opts),
        None if name == SIM_FEDERATION => sim_federation(opts),
        None => Err(unknown(name)),
    }
}

/// Median cold start of the named live workload's swarm, in seconds.
pub fn cold_starts(name: &str, seed: u64) -> Result<f64, String> {
    let (spec, app) = live_workload(name, seed).ok_or_else(|| unknown(name))?;
    live::cold_starts(spec, &app)
}

/// Routing policy of the relay and voice workloads. Round-robin keeps
/// both replicas loaded: routing is `face_testbed`'s subject, and under
/// LRS the selection step switching between one and two equal replicas
/// moved `relay_saturate`'s throughput by ±12% from run to run.
const POLICY_RELAY: Policy = Policy::Rr;

/// Paper headline (Fig. 4): 6 kB face frames, open loop at 24 FPS over
/// the nine-device testbed under LRS. Each stage sleeps to half of its
/// device's Table I delay, so service time and queueing dominate and
/// routing (estimation, selection, weights) plus the ACK path decide
/// the result; transport does little.
pub const FACE_TESTBED: LiveSpec = LiveSpec {
    name: "face_testbed",
    workers: &["A", "B", "C", "D", "E", "F", "G", "H", "I"],
    fps: 24.0,
    closed_loop: false,
    warmup: Duration::from_secs(5),
    policy: Policy::Lrs,
    trace_stride: 1,
    cold_starts: live::COLD_STARTS,
};

/// 64 B tuples, open loop at 200/s through `PassThrough` on B and C.
/// No compute, no bytes, and the reactor goes idle between tuples, so
/// outbox wake-up, idle-sweep back-off and channel hand-offs are nearly
/// all of the latency.
pub const RELAY_IDLE: LiveSpec = LiveSpec {
    name: "relay_idle",
    workers: &["A", "B", "C"],
    fps: 200.0,
    closed_loop: false,
    warmup: Duration::from_secs(2),
    policy: POLICY_RELAY,
    trace_stride: 1,
    cold_starts: live::COLD_STARTS_SMALL_SWARM,
};

/// Same topology and tuple, closed loop: 64 tuples between source and
/// sink, 32 credits per downstream. The reactor never idles;
/// per-message CPU (dispatch, router, in-flight table, codec headers,
/// telemetry flush, ACK return) sets throughput. A back-off change must
/// show nothing here.
pub const RELAY_SATURATE: LiveSpec = LiveSpec {
    name: "relay_saturate",
    workers: &["A", "B", "C"],
    fps: 1_000_000.0,
    closed_loop: true,
    warmup: Duration::from_secs(2),
    policy: POLICY_RELAY,
    trace_stride: 16,
    cold_starts: live::COLD_STARTS_SMALL_SWARM,
};

/// 72 kB audio tuples through the real recognize→translate units,
/// closed loop. Few large frames: per-byte work (segment encode, socket
/// copies, frame reassembly) and the voice kernel dominate, per-message
/// cost is small — the reverse of the relay pair.
pub const VOICE_SATURATE: LiveSpec = LiveSpec {
    name: "voice_saturate",
    workers: &["A", "B", "C"],
    fps: 100_000.0,
    closed_loop: true,
    warmup: Duration::from_secs(2),
    policy: POLICY_RELAY,
    trace_stride: 1,
    cold_starts: live::COLD_STARTS_SMALL_SWARM,
};

// ---------------------------------------------------------------- relay

const RELAY_PAYLOAD_BYTES: usize = 64;
const RELAY_POOL: usize = 256;
const RELAY_FIELD: &str = "p";

struct RelayApp {
    pool: Vec<SharedBytes>,
}

impl RelayApp {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let pool = (0..RELAY_POOL)
            .map(|_| {
                let bytes: Vec<u8> = (0..RELAY_PAYLOAD_BYTES)
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                SharedBytes::from_vec(bytes)
            })
            .collect();
        RelayApp { pool }
    }
}

impl App for RelayApp {
    fn op_stages(&self) -> &'static [&'static str] {
        &["relay"]
    }

    fn input(&self, i: u64) -> Tuple {
        Tuple::new().with(RELAY_FIELD, self.pool[i as usize % RELAY_POOL].clone())
    }

    fn install(&self, ops: &mut OpInstaller<'_>) {
        ops.register(0, "relay", || PassThrough);
    }

    fn output_ok(&self, seq: u64, out: &Tuple) -> bool {
        out.bytes(RELAY_FIELD)
            .is_ok_and(|b| b == self.pool[seq as usize % RELAY_POOL].as_slice())
    }
}

// ----------------------------------------------------------------- face

/// Distinct seeded frames the face source cycles through.
const FACE_POOL: usize = 48;

/// Runs the inner unit, then sleeps until `target` has passed since the
/// call began: the stand-in for a slower device's CPU. A sleep, not the
/// spin of `swing_core::unit::Slowed`, so eight emulated devices fit on
/// two cores.
struct SleepTo<U> {
    inner: U,
    target: Duration,
}

impl<U: FunctionUnit> FunctionUnit for SleepTo<U> {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let t0 = Instant::now();
        self.inner.process_data(data, ctx);
        if let Some(rest) = self.target.checked_sub(t0.elapsed()) {
            std::thread::sleep(rest);
        }
    }

    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn on_stop(&mut self) {
        self.inner.on_stop();
    }
}

/// Push one tuple through a unit outside any swarm.
pub fn apply(unit: &mut dyn FunctionUnit, input: Tuple) -> Vec<Tuple> {
    let mut out = Vec::new();
    unit.process_data(input, &mut Context::new(0, &mut out));
    out
}

struct FaceApp {
    config: Arc<face::FaceAppConfig>,
    frames: Vec<SharedBytes>,
    /// What a single-thread run of the same kernels says of each frame.
    reference: Vec<String>,
}

impl FaceApp {
    fn new(seed: u64) -> Self {
        let config = Arc::new(face::FaceAppConfig {
            seed,
            ..face::FaceAppConfig::default()
        });
        let mut gen = face::FrameGenerator::new(config.gallery.clone(), seed);
        let frames: Vec<SharedBytes> = (0..FACE_POOL)
            .map(|_| SharedBytes::from_vec(gen.next_scene().pixels))
            .collect();
        let mut detect = face::DetectUnit::new(&config);
        let mut recognize = face::RecognizeUnit::new(&config);
        let reference = frames
            .iter()
            .map(|f| {
                let mid = apply(&mut detect, Tuple::new().with("frame", f.clone()));
                let out = apply(
                    &mut recognize,
                    mid.into_iter().next().expect("detect emits"),
                );
                out[0].str("result").expect("recognize labels").to_owned()
            })
            .collect();
        FaceApp {
            config,
            frames,
            reference,
        }
    }
}

impl App for FaceApp {
    fn op_stages(&self) -> &'static [&'static str] {
        &["detect", "recognize"]
    }

    fn input(&self, i: u64) -> Tuple {
        Tuple::new().with("frame", self.frames[i as usize % FACE_POOL].clone())
    }

    fn install(&self, ops: &mut OpInstaller<'_>) {
        // Table I gives one delay per device for the whole pipeline;
        // each of the two stages gets half.
        let face_ms = swing_device::profile::testbed()
            .into_iter()
            .find(|p| p.name == ops.worker())
            .map_or(0.0, |p| p.face_ms);
        let target = Duration::from_secs_f64(face_ms / 2.0 / 1e3);
        let c = Arc::clone(&self.config);
        ops.register(0, "detect", move || SleepTo {
            inner: face::DetectUnit::new(&c),
            target,
        });
        let c = Arc::clone(&self.config);
        ops.register(1, "recognize", move || SleepTo {
            inner: face::RecognizeUnit::new(&c),
            target,
        });
    }

    fn output_ok(&self, seq: u64, out: &Tuple) -> bool {
        out.str("result")
            .is_ok_and(|r| r == self.reference[seq as usize % FACE_POOL])
    }
}

// ---------------------------------------------------------------- voice

/// Distinct seeded 72 kB utterances the voice source cycles through.
const VOICE_POOL: usize = 16;

struct VoiceApp {
    config: voice::VoiceAppConfig,
    audio: Vec<SharedBytes>,
    /// `(english, spanish)` from a single-thread run of the same units.
    reference: Vec<(String, String)>,
}

impl VoiceApp {
    fn new(seed: u64) -> Self {
        let config = voice::VoiceAppConfig {
            seed,
            ..voice::VoiceAppConfig::default()
        };
        let mut gen = voice::AudioGenerator::new(config.vocabulary.clone(), seed);
        let audio: Vec<SharedBytes> = (0..VOICE_POOL)
            .map(|_| SharedBytes::from_vec(gen.next_utterance().pcm))
            .collect();
        let mut recognize = voice::RecognizeUnit::new(&config);
        let mut translate = voice::TranslateUnit::new();
        let reference = audio
            .iter()
            .map(|a| {
                let mid = apply(&mut recognize, Tuple::new().with("audio", a.clone()));
                let out = apply(
                    &mut translate,
                    mid.into_iter().next().expect("recognize emits"),
                );
                (
                    out[0].str("english").expect("english text").to_owned(),
                    out[0].str("spanish").expect("spanish text").to_owned(),
                )
            })
            .collect();
        VoiceApp {
            config,
            audio,
            reference,
        }
    }
}

impl App for VoiceApp {
    fn op_stages(&self) -> &'static [&'static str] {
        &[voice::STAGE_RECOGNIZE, voice::STAGE_TRANSLATE]
    }

    fn input(&self, i: u64) -> Tuple {
        Tuple::new().with("audio", self.audio[i as usize % VOICE_POOL].clone())
    }

    fn install(&self, ops: &mut OpInstaller<'_>) {
        let c = self.config.clone();
        ops.register(0, voice::STAGE_RECOGNIZE, move || {
            voice::RecognizeUnit::new(&c)
        });
        ops.register(1, voice::STAGE_TRANSLATE, voice::TranslateUnit::new);
    }

    fn output_ok(&self, seq: u64, out: &Tuple) -> bool {
        let (en, es) = &self.reference[seq as usize % VOICE_POOL];
        out.str("english").is_ok_and(|s| s == en) && out.str("spanish").is_ok_and(|s| s == es)
    }
}

// ------------------------------------------------------- sim_federation

/// Virtual seconds one federation evaluation covers. Short, so that a
/// window holds about twenty evaluations: one evaluation's wall time
/// varies ±25% for identical work (hash seeds and memory layout differ
/// each time), and the median of six is not steady.
const FEDERATION_VIRTUAL_S: u64 = 3;

/// A federation of `swarms` x `workers` devices sensing at 30 FPS for
/// [`FEDERATION_VIRTUAL_S`] virtual seconds.
pub fn federation_config(
    seed: u64,
    swarms: usize,
    workers: usize,
    threads: usize,
) -> FederationConfig {
    FederationConfig {
        swarms,
        workers_per_swarm: workers,
        frames_per_source: 30 * FEDERATION_VIRTUAL_S,
        input_fps: 30.0,
        seed,
        threads,
        horizon_us: FEDERATION_VIRTUAL_S * swing_core::SECOND_US,
        ..FederationConfig::default()
    }
}

/// One timed federation evaluation.
pub struct FedRun {
    pub build: Duration,
    pub run: Duration,
    pub sensed: u64,
    pub played: u64,
    pub conserved: bool,
    pub rollup: String,
    /// The members' telemetry, merged.
    pub telemetry: Snapshot,
}

pub fn federation_once(config: FederationConfig) -> Result<FedRun, String> {
    let t0 = Instant::now();
    let fed = Federation::build(config).map_err(|e| format!("federation build: {e}"))?;
    let build = t0.elapsed();
    let t1 = Instant::now();
    let report = fed.run();
    Ok(FedRun {
        build,
        run: t1.elapsed(),
        sensed: report.federated_counter(tn::SOURCE_SENSED),
        played: report.federated_counter(tn::SINK_PLAYED),
        conserved: report.all_conserved(),
        rollup: report.federated_json,
        telemetry: report.federated,
    })
}

/// The production `Dispatcher`/`Router`/in-flight code, single-threaded
/// under virtual time in `swing-runtime::sim` + `swing-sim`: 100 swarms
/// × 32 workers on one engine thread, the device count where BENCH_pr7
/// recorded the throughput cliff, so a dispatch change that helps the
/// live swarm and hurts the engines (or the reverse) shows here. A
/// batch job: its latency is the wall time of one evaluation, which for
/// a fixed tuple count is the reciprocal of its throughput; the driver's
/// contract has every workload report both.
fn sim_federation(opts: RunOpts) -> Result<Outcome, String> {
    let (swarms, workers) = if opts.quick { (10, 8) } else { (100, 32) };
    let config = federation_config(opts.seed, swarms, workers, 1);
    let min_repeats = if opts.quick { 2 } else { 5 };
    let mut out = Outcome::default();
    let began = Instant::now();
    let cpu0 = procstat::cpu_time();
    // The first evaluation is kept whole; of the repeats, only what is
    // compared with it and their times.
    let first = federation_once(config.clone())?;
    let (mut identical, mut conserved) = (true, first.conserved);
    let (mut sensed, mut played) = (first.sensed, first.played);
    let mut build_s = vec![first.build.as_secs_f64()];
    let mut run_s = vec![first.run.as_secs_f64()];
    while run_s.len() < min_repeats || began.elapsed() < opts.window {
        let r = federation_once(config.clone())?;
        identical &= r.rollup == first.rollup;
        conserved &= r.conserved;
        sensed += r.sensed;
        played += r.played;
        build_s.push(r.build.as_secs_f64());
        run_s.push(r.run.as_secs_f64());
    }
    let cpu = procstat::cpu_time().saturating_sub(cpu0);
    out.correct = identical && conserved;
    if !identical {
        out.notes.push(
            "sim_federation: CHECK FAILED: rollup differs between repeats of one seed".into(),
        );
    }
    if !conserved {
        out.notes
            .push("sim_federation: CHECK FAILED: a member swarm broke conservation".into());
    }
    out.attempted = sensed;
    out.failed = sensed - played;
    out.notes.push(format!(
        "sim_federation: {} evaluations of {swarms}x{workers}, {} tuples each",
        run_s.len(),
        first.played
    ));
    // Every evaluation plays the same tuples (the rollups are equal).
    let per_s = first.played as f64 / stats::median(&run_s);
    let run_ms = stats::median(&run_s) * 1e3;
    if opts.trace {
        out.push("trace.played_per_s", per_s, "1/s");
        out.push("trace.e2e_p50_ms", run_ms, "ms");
        out.push(
            "failed_share",
            out.failed as f64 / sensed.max(1) as f64,
            "ratio",
        );
        live::telemetry_counts(&mut out, &first.telemetry);
    } else {
        out.push("setup_s", stats::median(&build_s), "s");
        out.push("played_per_s", per_s, "1/s");
        out.push("e2e_p50_ms", run_ms, "ms");
        // Build time is set-up, but its CPU is spent inside the window;
        // charge the tuples of every repeat with all of it.
        out.push(
            "cpu_us_per_tuple",
            cpu.as_micros() as f64 / played.max(1) as f64,
            "us",
        );
    }
    Ok(out)
}
