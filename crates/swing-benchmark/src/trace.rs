//! Hop spans recorded from outside the runtime.
//!
//! Nothing in the product crates is instrumented for this: the
//! benchmark's own source closure, a [`Traced`] wrapper around every
//! operator, and its sink closure each note when a tuple (trace id =
//! its sequence number) crossed them. Records stay in memory until the
//! run ends; [`Tracer::collect`] then stitches them into one
//! [`TupleTrace`] per tuple, and the gaps between consecutive records
//! are the outside view of encode + outbox wait + wire + decode +
//! mailbox wait.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use swing_core::clock::ClockHandle;
use swing_core::unit::{Context, FunctionUnit};
use swing_core::Tuple;

/// One interval noted by a recorder, in the swarm clock's microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub seq: u64,
    pub start_us: u64,
    pub end_us: u64,
}

/// Where along the pipeline a recorder sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Point {
    /// The source closure: `start` = due time, `end` = emission.
    Source,
    /// The n-th operator stage: `start` = handed to the unit, `end` =
    /// unit returned.
    Op(usize),
    /// The sink closure: `start` = `end` = playback.
    Sink,
}

type Log = Arc<Mutex<Vec<SpanRec>>>;

/// Hands out recorders and gathers what they noted.
#[derive(Debug)]
pub struct Tracer {
    /// Only tuples with `seq % stride == 0` are recorded, so a
    /// saturating run keeps a bounded number of spans.
    stride: u64,
    logs: Mutex<Vec<(Point, String, Log)>>,
}

/// One unit instance's append-only span log. Each instance runs on its
/// own executor thread, so the lock is never contended while the swarm
/// runs.
#[derive(Debug, Clone)]
pub struct Recorder {
    stride: u64,
    log: Log,
}

impl Recorder {
    pub fn record(&self, seq: u64, start_us: u64, end_us: u64) {
        if seq.is_multiple_of(self.stride) {
            self.log
                .lock()
                .expect("span log lock: recorders never panic while holding it")
                .push(SpanRec {
                    seq,
                    start_us,
                    end_us,
                });
        }
    }
}

impl Tracer {
    pub fn new(stride: u64) -> Arc<Self> {
        Arc::new(Tracer {
            stride: stride.max(1),
            logs: Mutex::new(Vec::new()),
        })
    }

    /// A fresh recorder for a unit at `point` on `worker`.
    pub fn recorder(&self, point: Point, worker: &str) -> Recorder {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        self.logs.lock().expect("tracer registry lock").push((
            point,
            worker.to_owned(),
            Arc::clone(&log),
        ));
        Recorder {
            stride: self.stride,
            log,
        }
    }

    /// Stitch every recorder's log into per-tuple traces, keeping only
    /// tuples seen at the source, at every one of `stages` operator
    /// stages, and at the sink.
    pub fn collect(&self, stages: usize) -> Vec<TupleTrace> {
        let mut by_seq: BTreeMap<u64, TupleTrace> = BTreeMap::new();
        let logs = self.logs.lock().expect("tracer registry lock");
        for (point, worker, log) in logs.iter() {
            for rec in log.lock().expect("span log lock").iter() {
                let t = by_seq.entry(rec.seq).or_insert_with(|| TupleTrace {
                    seq: rec.seq,
                    ..TupleTrace::default()
                });
                match point {
                    Point::Source => {
                        t.due_us = rec.start_us;
                        t.emit_us = rec.end_us;
                        t.seen_source = true;
                    }
                    Point::Op(stage) => t.ops.push(OpSpan {
                        stage: *stage,
                        worker: worker.clone(),
                        in_us: rec.start_us,
                        out_us: rec.end_us,
                    }),
                    Point::Sink => {
                        t.played_us = rec.end_us;
                        t.seen_sink = true;
                    }
                }
            }
        }
        by_seq
            .into_values()
            .filter_map(|mut t| {
                t.ops.sort_by_key(|o| o.stage);
                let complete = t.seen_source
                    && t.seen_sink
                    && t.ops.len() == stages
                    && t.ops.iter().enumerate().all(|(i, o)| o.stage == i);
                complete.then_some(t)
            })
            .collect()
    }
}

/// One operator's handling of one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpan {
    pub stage: usize,
    pub worker: String,
    pub in_us: u64,
    pub out_us: u64,
}

/// Everything noted about one tuple, source to sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TupleTrace {
    pub seq: u64,
    pub due_us: u64,
    pub emit_us: u64,
    pub ops: Vec<OpSpan>,
    pub played_us: u64,
    seen_source: bool,
    seen_sink: bool,
}

/// A tuple's sensed→played time split at the unit boundaries. The five
/// parts sum to `played − due` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hops {
    pub gen_late_us: u64,
    pub src_to_op_us: u64,
    pub op_compute_us: u64,
    pub op_to_op_us: u64,
    pub op_to_sink_us: u64,
}

impl Hops {
    pub fn total_us(&self) -> u64 {
        self.gen_late_us
            + self.src_to_op_us
            + self.op_compute_us
            + self.op_to_op_us
            + self.op_to_sink_us
    }
}

impl TupleTrace {
    /// Split this tuple's latency at the boundaries. All recorders read
    /// one monotonic clock, so differences are non-negative up to the
    /// microsecond the clock truncates; `saturating_sub` absorbs that.
    pub fn hops(&self) -> Hops {
        let mut h = Hops {
            gen_late_us: self.emit_us.saturating_sub(self.due_us),
            ..Hops::default()
        };
        let mut prev_out = self.emit_us;
        for (i, op) in self.ops.iter().enumerate() {
            let gap = op.in_us.saturating_sub(prev_out);
            if i == 0 {
                h.src_to_op_us = gap;
            } else {
                h.op_to_op_us += gap;
            }
            h.op_compute_us += op.out_us.saturating_sub(op.in_us);
            prev_out = op.out_us;
        }
        h.op_to_sink_us = self.played_us.saturating_sub(prev_out);
        h
    }

    /// The tuple as a two-level span tree: the root spans due→played,
    /// its children are the source's lateness and each operator call.
    pub fn spans(&self) -> (Span, Vec<Span>) {
        let root = Span {
            name: "tuple".into(),
            start_us: self.due_us,
            end_us: self.played_us,
        };
        let mut children = vec![Span {
            name: "source.late".into(),
            start_us: self.due_us,
            end_us: self.emit_us,
        }];
        for op in &self.ops {
            children.push(Span {
                name: format!("op{}@{}", op.stage, op.worker),
                start_us: op.in_us,
                end_us: op.out_us,
            });
        }
        (root, children)
    }
}

/// A named interval in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// A span's duration minus the part of it its children cover (children
/// may overlap each other and stick out of the parent; both are
/// clipped). For a tuple's root span this is the time spent *between*
/// units: transport, queues and the reorder buffer.
pub fn self_time_us(parent: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_us.clamp(parent.start_us, parent.end_us),
                c.end_us.clamp(parent.start_us, parent.end_us),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_us;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (parent.end_us - parent.start_us) - covered
}

/// Most tuples whose spans are written to a trace file; the metrics use
/// every recorded tuple, the file is for reading by eye.
const MAX_TRACES_WRITTEN: usize = 5_000;

/// Write traces as JSON lines: one object per span, the spans of one
/// tuple sharing `"trace"`, children naming their `"parent"`.
pub fn write_jsonl(path: &std::path::Path, traces: &[TupleTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces.iter().take(MAX_TRACES_WRITTEN) {
        let (root, children) = t.spans();
        writeln!(
            w,
            "{{\"trace\":{},\"span\":\"{}\",\"parent\":null,\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
            t.seq,
            root.name,
            root.start_us,
            root.end_us,
            self_time_us(&root, &children)
        )?;
        for c in &children {
            writeln!(
                w,
                "{{\"trace\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                t.seq, c.name, root.name, c.start_us, c.end_us
            )?;
        }
    }
    w.flush()
}

/// Wraps an operator and records when each tuple entered and left it.
pub struct Traced<U> {
    inner: U,
    rec: Recorder,
    clock: ClockHandle,
}

impl<U> Traced<U> {
    pub fn new(inner: U, rec: Recorder, clock: ClockHandle) -> Self {
        Traced { inner, rec, clock }
    }
}

impl<U: FunctionUnit> FunctionUnit for Traced<U> {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let seq = data.seq().0;
        // The executor reads the clock into `ctx.now_us` immediately
        // before this call; reusing it saves one clock read per tuple.
        let in_us = ctx.now_us;
        self.inner.process_data(data, ctx);
        self.rec.record(seq, in_us, self.clock.now_us());
    }

    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn on_stop(&mut self) {
        self.inner.on_stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swing_core::unit::PassThrough;
    use swing_core::SeqNo;

    fn span(name: &str, a: u64, b: u64) -> Span {
        Span {
            name: name.into(),
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span("p", 100, 200);
        // Disjoint children.
        assert_eq!(
            self_time_us(&parent, &[span("a", 110, 120), span("b", 150, 170)]),
            70
        );
        // Overlapping children count once.
        assert_eq!(
            self_time_us(&parent, &[span("a", 110, 150), span("b", 140, 160)]),
            50
        );
        // Children sticking out are clipped; one outside is ignored.
        assert_eq!(
            self_time_us(
                &parent,
                &[span("a", 50, 110), span("b", 190, 400), span("c", 300, 310)]
            ),
            80
        );
        assert_eq!(self_time_us(&parent, &[]), 100);
        assert_eq!(self_time_us(&parent, &[span("all", 0, 1000)]), 0);
    }

    #[test]
    fn hops_sum_to_sensed_to_played() {
        let t = TupleTrace {
            seq: 7,
            due_us: 1_000,
            emit_us: 1_040,
            ops: vec![
                OpSpan {
                    stage: 0,
                    worker: "B".into(),
                    in_us: 1_300,
                    out_us: 1_900,
                },
                OpSpan {
                    stage: 1,
                    worker: "C".into(),
                    in_us: 2_100,
                    out_us: 2_150,
                },
            ],
            played_us: 2_500,
            seen_source: true,
            seen_sink: true,
        };
        let h = t.hops();
        assert_eq!(
            h,
            Hops {
                gen_late_us: 40,
                src_to_op_us: 260,
                op_compute_us: 650,
                op_to_op_us: 200,
                op_to_sink_us: 350,
            }
        );
        assert_eq!(h.total_us(), t.played_us - t.due_us);
        // The root span's self time is exactly the time between units.
        let (root, children) = t.spans();
        assert_eq!(
            self_time_us(&root, &children),
            h.src_to_op_us + h.op_to_op_us + h.op_to_sink_us
        );
    }

    #[test]
    fn traced_records_entry_and_exit_and_collect_stitches() {
        let clock: ClockHandle = Arc::new(swing_core::clock::VirtualClock::new());
        let tracer = Tracer::new(2);
        let src = tracer.recorder(Point::Source, "A");
        let sink = tracer.recorder(Point::Sink, "A");
        let mut op = Traced::new(
            PassThrough,
            tracer.recorder(Point::Op(0), "B"),
            clock.clone(),
        );
        for seq in 0..4u64 {
            src.record(seq, seq * 100, seq * 100 + 5);
            let mut out = Vec::new();
            let mut ctx = Context::new(seq * 100 + 20, &mut out);
            op.process_data(Tuple::with_seq(SeqNo(seq)), &mut ctx);
            assert_eq!(out.len(), 1);
            if seq != 2 {
                sink.record(seq, seq * 100 + 60, seq * 100 + 60);
            }
        }
        // Stride 2 keeps seq 0 and 2; seq 2 never reached the sink.
        let traces = tracer.collect(1);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].seq, 0);
        assert_eq!(traces[0].ops[0].in_us, 20);
        assert_eq!(traces[0].ops[0].worker, "B");
        assert_eq!(tracer.collect(2).len(), 0);
    }
}
