//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` repeats this
//! table for the driver; a test keeps the two in step.

/// One measured value, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric, reported by a traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: On,
}

/// The workloads whose traced run has a value for a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    Every,
    /// Taken at unit boundaries or from reactor counts of a live swarm,
    /// which `sim_federation` does not have.
    Live,
    Only(&'static str),
}

impl PerLayer {
    pub fn applies_to(&self, workload: &str) -> bool {
        match self.on {
            On::Every => true,
            On::Live => workload != SIM_FEDERATION,
            On::Only(w) => workload == w,
        }
    }
}

pub const SIM_FEDERATION: &str = "sim_federation";

/// A workload's name and the one line on why it exists (README.md has
/// the long form).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads the benchmark driver runs (`BENCHMARK.json`), and
/// `repeat` holds to the bounds.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "face_testbed",
        why: "paper headline: 6 kB frames, open loop 24 FPS, nine-device testbed with Table I service times under LRS; routing and the ACK path decide it, transport does little",
    },
    Workload {
        name: "relay_idle",
        why: "64 B tuples, open loop 200/s through PassThrough; the reactor idles between tuples, so wake-up, idle-sweep back-off and channel hand-offs are nearly all of the latency",
    },
    Workload {
        name: "voice_saturate",
        why: "72 kB tuples through the real voice kernels, closed loop of 64 in flight; per-byte work (encode, socket copies, reassembly) and compute dominate, per-message cost is small",
    },
    Workload {
        name: SIM_FEDERATION,
        why: "100 swarms x 32 workers under virtual time on one thread: the same Dispatcher/Router code as live, at the device count of the BENCH_pr7 throughput cliff",
    },
];

/// Run by `all` and by name, but not by the driver: on the 2-vCPU
/// shared build host the driver refused the benchmark over this
/// workload's run-to-run spread. Ten threads that mostly wait for each
/// other stall whenever the host takes either vCPU away, so ten runs of
/// the same code spread by 14 to 26% (interquartile) on throughput,
/// latency and CPU per tuple, against the contract's widest bound of 25%
/// (README.md, "Why `relay_saturate` is not in `BENCHMARK.json`").
pub const BY_HAND: [Workload; 1] = [Workload {
    name: "relay_saturate",
    why: "same tuples as relay_idle, closed loop of 64 in flight; per-message CPU (dispatch, router, in-flight table, codec, ACK) and reactor hand-offs set throughput",
}];

/// Every workload the binary knows, the driver's first.
pub fn every_workload() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain(&BY_HAND)
}

/// `run_seconds` of BENCHMARK.json: the window `all` and `repeat` use
/// unless told otherwise.
pub const RUN_SECONDS: u32 = 20;

/// Every bound is the contract's maximum. The build host's two vCPUs
/// are shared: a single-threaded spin loop does 165 to 647 rounds per
/// half second there, and whatever is CPU-bound spreads by 10% and more
/// over ten runs of the same code (README.md, "Measured spread"); a
/// bound is per metric, not per workload, so the noisiest workload sets
/// it.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "played_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "e2e_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_tuple",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        on: On::Every,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        better: Better::Higher,
        ..lower(name, unit)
    }
}

const fn live(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        on: On::Live,
        ..lower(name, unit)
    }
}

/// Per-layer metrics, prefix = crate. `hop.*`, `trace.*` and `e2e_*`
/// come from the traced workload run itself, `*.exec.*`-style counts from
/// the telemetry snapshot of that run, the rest from probes that time
/// direct calls into public functions of the named crate, in a process
/// of their own before the swarm starts.
pub const PER_LAYER: &[PerLayer] = &[
    // --- the traced workload run ---
    higher("trace.played_per_s", "1/s"),
    lower("trace.e2e_p50_ms", "ms"),
    live("e2e_p95_ms", "ms"),
    live("e2e_p99_ms", "ms"),
    lower("failed_share", "ratio"),
    live("hop.gen_late_us_p99", "us"),
    // Where the tuple at the median (`at_p50`) and at the 95th
    // percentile (`at_p95`) of sensed-to-played latency spent its time.
    live("hop.at_p50.src_to_op_us", "us"),
    live("hop.at_p50.op_compute_us", "us"),
    live("hop.at_p50.op_to_op_us", "us"),
    live("hop.at_p50.op_to_sink_us", "us"),
    live("hop.at_p95.src_to_op_us", "us"),
    live("hop.at_p95.op_to_sink_us", "us"),
    live("hop.sum_vs_e2e_p50_pct", "%"),
    // --- swing-reactor ---
    lower("reactor.rtt_idle_us_p50", "us"),
    lower("reactor.rtt_busy_us_p50", "us"),
    higher("reactor.flood_frames_per_s", "1/s"),
    higher("reactor.flood_mb_per_s", "MB/s"),
    lower("reactor.dial_us_p50", "us"),
    lower("reactor.registry.lookup_us_p50", "us"),
    live("reactor.frames_sent", "count"),
    live("reactor.events_per_frame", "ratio"),
    // --- swing-net ---
    lower("net.wire.encode_ns.small", "ns"),
    lower("net.wire.encode_ns.face", "ns"),
    lower("net.wire.encode_ns.voice", "ns"),
    lower("net.wire.decode_ns.small", "ns"),
    lower("net.wire.decode_ns.face", "ns"),
    lower("net.wire.decode_ns.voice", "ns"),
    lower("net.frame.assemble_ns_per_kb", "ns"),
    // --- swing-runtime ---
    lower("runtime.dispatch.broadcast_ns", "ns"),
    lower("runtime.dispatch.keyed_ns", "ns"),
    lower("runtime.dispatch.cycle_ns", "ns"),
    lower("runtime.dispatch.cycle_flow_ns", "ns"),
    higher("runtime.exec.sent", "count"),
    higher("runtime.exec.acked", "count"),
    lower("runtime.exec.retried", "count"),
    lower("runtime.exec.duplicated", "count"),
    lower("runtime.exec.lost", "count"),
    lower("runtime.exec.retry_ratio", "ratio"),
    lower("runtime.inflight.expired", "count"),
    lower("runtime.source.paused", "count"),
    lower("runtime.source.shed", "count"),
    lower("runtime.exec.shed_in_queue", "count"),
    lower("runtime.sink.stale", "count"),
    lower("runtime.sink.skipped", "count"),
    lower("runtime.exec.ack_rtt_us_p50", "us"),
    lower("runtime.exec.mailbox_depth_p95", "count"),
    higher("runtime.sim.virtual_s_per_wall_s", "ratio"),
    // --- swing-core ---
    lower("core.router.route_ns", "ns"),
    lower("core.router.on_ack_ns", "ns"),
    lower("core.router.rebalance_us", "us"),
    lower("core.partition.key_hash_ns", "ns"),
    lower("core.reorder.push_ns", "ns"),
    higher("core.selection.size", "count"),
    lower("core.selection.changes", "count"),
    lower("core.router.probe_windows", "count"),
    PerLayer {
        on: On::Only("face_testbed"),
        ..lower("core.router.slow_share", "ratio")
    },
    // --- swing-sim ---
    lower("sim.federation.build_ms", "ms"),
    higher("sim.federation.tuples_per_s.10x10", "1/s"),
    higher("sim.federation.tuples_per_s.100x10", "1/s"),
    higher("sim.federation.tuples_per_s.100x32", "1/s"),
    higher("sim.federation.speedup_nproc", "ratio"),
    lower("sim.swarm.eval60_ms", "ms"),
    // --- swing-telemetry ---
    lower("telemetry.counter_inc_ns", "ns"),
    lower("telemetry.hist_record_ns", "ns"),
    lower("telemetry.snapshot_us", "us"),
    // --- swing-apps ---
    lower("apps.face.detect_us", "us"),
    lower("apps.face.recognize_us", "us"),
    lower("apps.voice.recognize_us", "us"),
    lower("apps.voice.translate_us", "us"),
];

/// What one run produced: the contract's result line plus notes for
/// people.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (sample counts, check results), printed
    /// before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's single-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read back a line [`Outcome::result_line`] wrote: a scan for the
    /// names this table knows, not a JSON parser.
    pub fn from_result_line(line: &str) -> Option<Outcome> {
        // The text after `"key": ` (and `{"value": `, for a metric) up
        // to the next `,` or `}`.
        let field = |key: &str| {
            let tag = format!("\"{key}\": ");
            let rest = &line[line.find(&tag)? + tag.len()..];
            let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
            Some(&rest[..rest.find([',', '}'])?])
        };
        let mut out = Outcome {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            ..Outcome::default()
        };
        let known = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in known {
            if let Some(v) = field(name).and_then(|v| v.parse().ok()) {
                out.push(name, v, unit);
            }
        }
        Some(out)
    }
}

/// A float as JSON: all its digits, never `NaN`/`inf` (not JSON).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `BENCHMARK.json`, rendered from the tables above: the root file is
/// the output of `swing-benchmark list --json`, and a test holds it to
/// that.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"crates/swing-benchmark/bench.sh\"],\n  \"paths\": [\"crates/swing-benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for n in every_workload()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(n), "bad name {n:?}");
            assert!(seen.insert(n), "name {n:?} used twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u:?}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = std::fs::read_to_string(path).unwrap();
        assert!(
            file == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `swing-benchmark list --json`"
        );
        for w in every_workload() {
            assert!(w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']));
        }
    }

    #[test]
    fn result_line_reads_back() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 2,
            ..Outcome::default()
        };
        o.push("e2e_p50_ms", 1.2034, "ms");
        o.push("setup_s", f64::NAN, "s");
        o.push("failed_share", 0.2, "ratio");
        o.push("trace.e2e_p50_ms", 7.5, "ms");
        let line = o.result_line();
        assert!(!line.contains('\n') && !line.contains("NaN"));
        let back = Outcome::from_result_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (10, 2));
        // Names that contain other names do not shadow them.
        assert_eq!(back.get("e2e_p50_ms"), Some(1.2034));
        assert_eq!(back.get("trace.e2e_p50_ms"), Some(7.5));
        assert_eq!(back.get("failed_share"), Some(0.2));
        assert_eq!(back.get("setup_s"), Some(0.0));
        assert_eq!(back.metrics.len(), 4);
        assert!(Outcome::from_result_line("# a note").is_none());
    }

    #[test]
    fn applicability_follows_the_table() {
        let m = |name: &str| PER_LAYER.iter().find(|m| m.name == name).unwrap();
        assert!(m("hop.at_p50.src_to_op_us").applies_to("relay_idle"));
        assert!(!m("hop.at_p50.src_to_op_us").applies_to(SIM_FEDERATION));
        assert!(m("core.router.slow_share").applies_to("face_testbed"));
        assert!(!m("core.router.slow_share").applies_to("relay_idle"));
        assert!(m("runtime.exec.sent").applies_to(SIM_FEDERATION));
    }
}
