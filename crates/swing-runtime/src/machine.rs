//! The function-unit state machine: the paper's three data-plane loops
//! (§IV-B/§V) written once, with no thread, channel or event queue in
//! them.
//!
//! * source — sense → stamp → route ([`UnitMachine::capture`]);
//! * operator — receive ([`accept`](UnitMachine::accept)) → take up
//!   ([`take_up`](UnitMachine::take_up)) → process → ACK with the
//!   processing delay → forward ([`serve`](UnitMachine::serve));
//! * sink — receive → ACK → reorder → play
//!   ([`receive`](UnitMachine::receive), [`poll`](UnitMachine::poll));
//! * all three — [`stop`](UnitMachine::stop).
//!
//! A [`UnitMachine`] owns the unit, its [`Dispatcher`] and the role's
//! state, and every transition takes the current time as an argument.
//! Two drivers call it. The executor threads ([`crate::executor`])
//! block on their channel until the next deadline and then call the
//! transition that is due; [`SimSwarm`](crate::sim::SimSwarm) pops an
//! event, calls the same transition, and schedules the next event and
//! charges its energy and radio models from what the transition
//! returned. The one input the drivers supply differently is the
//! service span of [`serve`](UnitMachine::serve): measured on the
//! clock by a thread, modelled under virtual time.

use crate::dispatch::Dispatcher;
use crate::executor::{NodeConfig, SinkMeter, SinkReport, CREATED_US_FIELD};
use crate::registry::AnyUnit;
use std::sync::Arc;
use swing_core::flow::{Mailbox, OverloadPolicy, PushOutcome};
use swing_core::graph::Role;
use swing_core::rate::Pacer;
use swing_core::reorder::{Played, ReorderBuffer};
use swing_core::unit::{Context, FunctionUnit, SinkUnit, SourceUnit};
use swing_core::{SeqNo, Tuple, UnitId};
use swing_telemetry::{names as tn, Counter, Histogram, Stage};

/// One activated unit instance (see the module docs).
pub(crate) struct UnitMachine {
    /// The unit's outbound edge, ACK return paths and dedup windows.
    /// Drivers feed it control traffic, ACKs and timer ticks directly.
    pub(crate) disp: Dispatcher,
    role: RoleState,
}

enum RoleState {
    Source {
        src: Box<dyn SourceUnit>,
        pacer: Pacer,
        /// Next sequence number to stamp.
        seq: u64,
    },
    Operator {
        op: Box<dyn FunctionUnit>,
        /// Inbound queue in front of the serialized service. Bounded by
        /// the shed policies; `Block` keeps it unbounded — it never
        /// sheds at the receiver, the per-downstream credit windows
        /// upstream bound what can arrive.
        mailbox: Mailbox<(UnitId, Tuple)>,
        /// Whether the tuple at the head of the mailbox has been taken
        /// up for service. It stays at the head until served, so
        /// `ShedOldest` can evict it; the next in line then waits to be
        /// taken up in its place.
        taken_up: bool,
    },
    Sink(SinkState),
}

struct SinkState {
    sink: Box<dyn SinkUnit>,
    reorder: ReorderBuffer<Tuple>,
    meter: Arc<SinkMeter>,
    /// Reorder-buffer counts already folded into the counters below.
    reported_skipped: u64,
    reported_stale: u64,
    played_c: Counter,
    skipped_c: Counter,
    stale_c: Counter,
    e2e_us: Histogram,
}

/// What [`UnitMachine::accept`] did with an arriving tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Accepted {
    /// First sight of this sequence number from this upstream (not a
    /// retransmission).
    pub(crate) fresh: bool,
    /// `(upstream, bytes)` of a tuple that left the receive buffer
    /// without ever going into service: a duplicate, or an arrival a
    /// full mailbox rejected.
    pub(crate) unserved: Option<(UnitId, usize)>,
}

/// Stamp the sensing timestamp a tuple carries end to end, unless the
/// unit that produced it already did.
fn stamp_created(tuple: &mut Tuple, created_us: i64) {
    if !tuple.contains(CREATED_US_FIELD) {
        tuple.set_value(CREATED_US_FIELD, created_us);
    }
}

/// Record that `seq` crossed `stage` at this unit (one relaxed load
/// unless tracing is on).
fn stamp(disp: &Dispatcher, at_us: u64, seq: SeqNo, stage: Stage) {
    let m = &disp.metrics;
    m.telemetry.record_stage_at(at_us, seq.0, m.unit_raw, stage);
}

impl UnitMachine {
    /// Wrap a freshly created unit around its dispatcher. A source's
    /// first capture is due now (on `disp`'s clock); an operator's
    /// `on_start` runs here; a sink reports into `meter` (unused by the
    /// other roles).
    pub(crate) fn new(
        any: AnyUnit,
        disp: Dispatcher,
        config: &NodeConfig,
        meter: Arc<SinkMeter>,
    ) -> Self {
        let role = match any {
            AnyUnit::Source(src) => RoleState::Source {
                src,
                pacer: Pacer::new(config.input_fps, disp.clock().now_us()),
                seq: 0,
            },
            AnyUnit::Operator(mut op) => {
                op.on_start();
                let mailbox = if config.flow.policy == OverloadPolicy::Block {
                    Mailbox::new(usize::MAX, OverloadPolicy::Block)
                } else {
                    Mailbox::from_config(&config.flow)
                };
                RoleState::Operator {
                    op,
                    mailbox,
                    taken_up: false,
                }
            }
            AnyUnit::Sink(sink) => {
                let unit_label = disp.unit().0.to_string();
                let labels: &[(&str, &str)] = &[
                    (tn::LABEL_WORKER, &config.worker_label),
                    (tn::LABEL_UNIT, &unit_label),
                ];
                let t = &config.telemetry;
                RoleState::Sink(SinkState {
                    sink,
                    reorder: ReorderBuffer::new(config.reorder),
                    meter,
                    reported_skipped: 0,
                    reported_stale: 0,
                    played_c: t.counter(tn::SINK_PLAYED, labels),
                    skipped_c: t.counter(tn::SINK_SKIPPED, labels),
                    stale_c: t.counter(tn::SINK_STALE, labels),
                    e2e_us: t.histogram(tn::SINK_E2E_LATENCY_US, labels),
                })
            }
        };
        UnitMachine { disp, role }
    }

    /// Which of the three loops this unit runs.
    pub(crate) fn role(&self) -> Role {
        match self.role {
            RoleState::Source { .. } => Role::Source,
            RoleState::Operator { .. } => Role::Operator,
            RoleState::Sink(_) => Role::Sink,
        }
    }

    // -- source ------------------------------------------------------------

    /// When the next capture is due (never, for the other roles).
    pub(crate) fn next_capture_us(&self) -> u64 {
        match &self.role {
            RoleState::Source { pacer, .. } => pacer.next_due_us(),
            _ => u64::MAX,
        }
    }

    /// Change a source's sensing rate; the capture already due keeps
    /// its deadline.
    pub(crate) fn set_source_rate(&mut self, fps: f64) {
        if let RoleState::Source { pacer, .. } = &mut self.role {
            pacer.set_rate(fps);
        }
    }

    /// The capture that was due happens: sense → stamp → route.
    /// Returns `false` once the stream is exhausted (nothing was
    /// sensed; what is still in flight is the driver's to drain).
    ///
    /// Credit-based admission: with every selected downstream out of
    /// credits a new capture cannot make progress. Under `Block` the
    /// tick is skipped entirely (back-pressure into the sensor); under
    /// the shed policies the frame is sensed — it consumes a sequence
    /// number and counts in the accounting identity — but shed before
    /// dispatch.
    pub(crate) fn capture(&mut self, now: u64) -> bool {
        let RoleState::Source { src, pacer, seq } = &mut self.role else {
            return false;
        };
        pacer.consume_next();
        let admit = self.disp.admits_new();
        if !admit && self.disp.flow().policy == OverloadPolicy::Block {
            self.disp.count_source_paused();
            return true;
        }
        let Some(mut tuple) = src.next_tuple(now) else {
            return false;
        };
        let sensed = SeqNo(*seq);
        *seq += 1;
        tuple.set_seq(sensed);
        self.disp.count_sensed();
        stamp(&self.disp, now, sensed, Stage::Sensed);
        // Demand estimation sees every sensed frame, shed or not: the
        // router's arrival rate Λ must reflect offered load, not the
        // post-shedding admit rate.
        self.disp.router_mut().note_arrival(now);
        if admit {
            stamp_created(&mut tuple, now as i64);
            self.disp.dispatch(tuple);
        } else {
            self.disp.count_shed_at_source();
            stamp(&self.disp, now, sensed, Stage::Shed);
        }
        true
    }

    // -- operator ----------------------------------------------------------

    /// Tuples waiting in (or at the head of) the operator's mailbox.
    pub(crate) fn queued(&self) -> usize {
        match &self.role {
            RoleState::Operator { mailbox, .. } => mailbox.len(),
            _ => 0,
        }
    }

    /// A data tuple arrives at an operator: dedup filter first (a
    /// retransmit of an already-seen — possibly already-shed —
    /// sequence is re-ACKed, never requeued), then the mailbox under
    /// its overload policy. Shed victims are ACKed immediately so the
    /// upstream settles: they are accounted shed-in-queue, not lost.
    pub(crate) fn accept(&mut self, from: UnitId, tuple: Tuple, now: u64) -> Accepted {
        let RoleState::Operator {
            mailbox, taken_up, ..
        } = &mut self.role
        else {
            return Accepted::default();
        };
        let seq = tuple.seq();
        if !self.disp.observe_fresh(from, seq) {
            self.disp.ack(from, seq, tuple.sent_at_us(), 0);
            return Accepted {
                fresh: false,
                unserved: Some((from, tuple.size_bytes())),
            };
        }
        stamp(&self.disp, now, seq, Stage::Arrived);
        let mut accepted = Accepted {
            fresh: true,
            unserved: None,
        };
        let (victim_from, victim) = match mailbox.push((from, tuple)) {
            PushOutcome::Queued => return accepted,
            // The oldest was the head: whoever is there now has not
            // been taken up.
            PushOutcome::ShedOldest(victim) => {
                *taken_up = false;
                victim
            }
            PushOutcome::Rejected(victim) => {
                accepted.unserved = Some((victim.0, victim.1.size_bytes()));
                victim
            }
        };
        self.disp
            .ack(victim_from, victim.seq(), victim.sent_at_us(), 0);
        self.disp.count_shed_in_queue();
        accepted
    }

    /// The operator turns to the tuple at the head of its mailbox, if
    /// it has not already: the end of that tuple's mailbox wait.
    /// Returns its `(upstream, bytes)` — it has left the receive buffer
    /// — or `None` when the mailbox is empty or its head is already in
    /// service.
    pub(crate) fn take_up(&mut self, now: u64) -> Option<(UnitId, usize)> {
        let RoleState::Operator {
            mailbox, taken_up, ..
        } = &mut self.role
        else {
            return None;
        };
        if *taken_up {
            return None;
        }
        let (from, tuple) = mailbox.front()?;
        let (from, seq, bytes) = (*from, tuple.seq(), tuple.size_bytes());
        *taken_up = true;
        stamp(&self.disp, now, seq, Stage::Started);
        Some((from, bytes))
    }

    /// Serve the tuple at the head of the mailbox: process → ACK with
    /// the processing delay → forward the results. `service_us` is the
    /// modelled span that ended at `now` (virtual time stands still
    /// while a unit computes); `None` measures the call on the
    /// dispatcher's clock, starting at `now`. Returns `false` when the
    /// mailbox was empty.
    pub(crate) fn serve(&mut self, now: u64, service_us: Option<u64>) -> bool {
        let RoleState::Operator {
            op,
            mailbox,
            taken_up,
        } = &mut self.role
        else {
            return false;
        };
        let Some((from, tuple)) = mailbox.pop() else {
            return false;
        };
        *taken_up = false;
        let out = &mut self.disp;
        // Depth at serve time, counting the tuple being served.
        out.metrics.mailbox_depth.record(mailbox.len() as u64 + 1);
        let seq = tuple.seq();
        let sent_at = tuple.sent_at_us();
        let created = tuple.i64(CREATED_US_FIELD).ok();
        out.router_mut().note_arrival(now);
        let mut outputs: Vec<Tuple> = Vec::new();
        {
            let mut ctx = Context::new(now, &mut outputs);
            op.process_data(tuple, &mut ctx);
        }
        let processing_us = service_us.unwrap_or_else(|| out.clock().now_us().saturating_sub(now));
        // Stamped when processing ends: `now` under a modelled span,
        // later under a measured one.
        out.metrics
            .telemetry
            .record_stage(seq.0, out.metrics.unit_raw, Stage::Processed);
        // The span rides the ACK, feeding the upstream router's
        // processing-delay term (§V-B).
        out.ack(from, seq, sent_at, processing_us);
        for mut o in outputs {
            // Results inherit the input's sequence number and sensing
            // timestamp so sinks can reorder and measure end-to-end
            // latency.
            o.set_seq(seq);
            if let Some(c) = created {
                stamp_created(&mut o, c);
            }
            out.dispatch(o);
        }
        true
    }

    // -- sink --------------------------------------------------------------

    /// A result arrives at a sink: ACK on receipt (a sink's processing
    /// is negligible; duplicates are re-ACKed too — their first ACK was
    /// evidently lost — but never replayed), then reorder and play
    /// whatever became playable. Returns how many tuples played.
    pub(crate) fn receive(&mut self, from: UnitId, tuple: Tuple, now: u64) -> u64 {
        let RoleState::Sink(s) = &mut self.role else {
            return 0;
        };
        let seq = tuple.seq();
        self.disp.ack(from, seq, tuple.sent_at_us(), 0);
        if !self.disp.observe_fresh(from, seq) {
            return 0;
        }
        stamp(&self.disp, now, seq, Stage::Arrived);
        let released = s.reorder.push(seq, tuple, now);
        s.play(&self.disp, released, now)
    }

    /// Time passes at a sink: gaps that waited out the reorder span are
    /// given up on and what they held back plays. Returns how many
    /// tuples played.
    pub(crate) fn poll(&mut self, now: u64) -> u64 {
        let RoleState::Sink(s) = &mut self.role else {
            return 0;
        };
        let released = s.reorder.poll(now);
        s.play(&self.disp, released, now)
    }

    /// The sink's throughput/latency report (`None` for other roles).
    pub(crate) fn sink_report(&self) -> Option<SinkReport> {
        match &self.role {
            RoleState::Sink(s) => Some(s.meter.report()),
            _ => None,
        }
    }

    // -- shutdown ----------------------------------------------------------

    /// Orderly shutdown, every role: tuples still queued in an operator
    /// mailbox were admitted but never served, so they are shed (the
    /// accounting identity must balance exactly) and the unit's
    /// `on_stop` runs; a sink plays out its reorder buffer; the final
    /// counters are published.
    pub(crate) fn stop(&mut self, now: u64) {
        match &mut self.role {
            RoleState::Source { .. } => {}
            RoleState::Operator { op, mailbox, .. } => {
                while mailbox.pop().is_some() {
                    self.disp.count_shed_in_queue();
                }
                op.on_stop();
            }
            RoleState::Sink(s) => {
                let released = s.reorder.flush(now);
                s.play(&self.disp, released, now);
            }
        }
        self.disp.publish();
    }
}

impl SinkState {
    /// Play released tuples in order, then fold what the reorder buffer
    /// skipped or dropped as stale since the last release into the
    /// counters and the meter.
    fn play(&mut self, disp: &Dispatcher, released: Vec<Played<Tuple>>, now: u64) -> u64 {
        let played = released.len() as u64;
        for Played { item: tuple, .. } in released {
            let latency_ms = tuple
                .i64(CREATED_US_FIELD)
                .ok()
                .map(|c| (now as i64 - c) as f64 / 1_000.0);
            self.meter.record(latency_ms, now);
            self.played_c.inc();
            if let Some(l) = latency_ms {
                self.e2e_us.record((l.max(0.0) * 1_000.0) as u64);
            }
            stamp(disp, now, tuple.seq(), Stage::Played);
            self.sink.consume(tuple, now);
        }
        let (skipped, stale) = (self.reorder.skipped(), self.reorder.stale());
        if (skipped, stale) != (self.reported_skipped, self.reported_stale) {
            self.skipped_c.add(skipped - self.reported_skipped);
            self.stale_c.add(stale - self.reported_stale);
            self.reported_skipped = skipped;
            self.reported_stale = stale;
            self.meter.set_reorder_counts(skipped, stale);
        }
        played
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::MsgReceiver;
    use std::sync::atomic::{AtomicBool, Ordering};
    use swing_core::clock::VirtualClock;
    use swing_core::config::ReorderConfig;
    use swing_core::flow::FlowConfig;
    use swing_core::unit::{closure_sink, closure_source, PassThrough};
    use swing_net::Message;
    use swing_telemetry::Telemetry;

    const UP: UnitId = UnitId(1);
    const ME: UnitId = UnitId(2);
    const DOWN: UnitId = UnitId(3);

    /// A node under a virtual clock, tracing on: no thread, no queue.
    fn config() -> NodeConfig {
        let telemetry = Telemetry::new();
        telemetry.enable_tracing();
        NodeConfig {
            telemetry,
            clock: VirtualClock::shared(),
            reorder: ReorderConfig { span_us: 1_000 },
            ..NodeConfig::default()
        }
    }

    /// A machine for `any`, wired to one upstream and one downstream
    /// whose ends the test holds: `(machine, ACKs out, data out)`.
    fn machine(any: AnyUnit, config: &NodeConfig) -> (UnitMachine, MsgReceiver, MsgReceiver) {
        let mut disp = Dispatcher::new(ME, config);
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        let (data_tx, data_rx) = std::sync::mpsc::channel();
        disp.add_upstream(UP, ack_tx.into());
        disp.add_downstream(DOWN, data_tx.into());
        let m = UnitMachine::new(any, disp, config, Arc::new(SinkMeter::default()));
        (m, ack_rx, data_rx)
    }

    fn tuple(seq: u64) -> Tuple {
        let mut t = Tuple::new().with("v", 1i64);
        t.set_seq(SeqNo(seq));
        t
    }

    fn stages(config: &NodeConfig) -> Vec<(u64, Stage)> {
        let events = config.telemetry.events().events();
        events.iter().map(|e| (e.seq, e.stage)).collect()
    }

    struct FlagsStop(Arc<AtomicBool>);
    impl FunctionUnit for FlagsStop {
        fn process_data(&mut self, _: Tuple, _: &mut Context<'_>) {}
        fn on_stop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn stop_sheds_what_is_queued_and_runs_on_stop() {
        let config = config();
        let stopped = Arc::new(AtomicBool::new(false));
        let op = AnyUnit::Operator(Box::new(FlagsStop(Arc::clone(&stopped))));
        let (mut m, ..) = machine(op, &config);
        for seq in 0..3 {
            assert!(m.accept(UP, tuple(seq), 10).fresh);
        }
        assert_eq!(m.queued(), 3);
        m.stop(20);
        assert_eq!(m.queued(), 0);
        assert_eq!(m.disp.overload_counts().1, 3, "queued tuples are shed");
        assert!(stopped.load(Ordering::SeqCst), "on_stop ran");
    }

    #[test]
    fn operator_serves_ack_then_forward() {
        let config = config();
        let (mut m, acks, data) = machine(AnyUnit::Operator(Box::new(PassThrough)), &config);
        let input = tuple(7).with(CREATED_US_FIELD, 123i64);
        let bytes = input.size_bytes();
        assert_eq!(m.take_up(5), None, "nothing to take up yet");
        m.accept(UP, input, 10);
        assert_eq!(m.take_up(11), Some((UP, bytes)));
        assert_eq!(m.take_up(12), None, "the head is already in service");
        assert!(m.serve(500, Some(489)));
        assert!(!m.serve(500, Some(489)), "the mailbox is empty");
        match acks.try_recv().expect("the input is ACKed") {
            Message::Ack {
                seq, processing_us, ..
            } => assert_eq!((seq, processing_us), (SeqNo(7), 489)),
            other => panic!("expected an ACK, got {other:?}"),
        }
        match data.try_recv().expect("the result is forwarded") {
            Message::Data { dest, tuple, .. } => {
                assert_eq!(dest, DOWN);
                assert_eq!(tuple.seq(), SeqNo(7), "results inherit the sequence");
                assert_eq!(tuple.i64(CREATED_US_FIELD).unwrap(), 123);
            }
            other => panic!("expected data, got {other:?}"),
        }
        use Stage::{Arrived, Dispatched, Processed, Started};
        let journey: Vec<Stage> = stages(&config).into_iter().map(|(_, s)| s).collect();
        assert_eq!(journey, [Arrived, Started, Processed, Dispatched]);
    }

    #[test]
    fn duplicates_and_rejects_are_acked_unserved() {
        let mut config = config();
        config.flow = FlowConfig {
            policy: OverloadPolicy::ShedNewest,
            ..FlowConfig::bounded(1)
        };
        let (mut m, acks, _data) = machine(AnyUnit::Operator(Box::new(PassThrough)), &config);
        let bytes = tuple(0).size_bytes();
        assert_eq!(m.accept(UP, tuple(0), 1).unserved, None);
        let dup = m.accept(UP, tuple(0), 2);
        assert_eq!((dup.fresh, dup.unserved), (false, Some((UP, bytes))));
        let rejected = m.accept(UP, tuple(1), 3);
        assert_eq!(
            (rejected.fresh, rejected.unserved),
            (true, Some((UP, bytes)))
        );
        assert_eq!(acks.try_iter().count(), 2, "both left with an ACK");
        assert_eq!(m.disp.overload_counts().1, 1, "only the reject is shed");
        assert_eq!(m.queued(), 1);
    }

    #[test]
    fn shed_oldest_hands_service_to_the_next_in_line() {
        let mut config = config();
        config.flow = FlowConfig::bounded(1);
        let (mut m, ..) = machine(AnyUnit::Operator(Box::new(PassThrough)), &config);
        m.accept(UP, tuple(0), 1);
        assert!(m.take_up(1).is_some());
        // The tuple in service is the mailbox's oldest: evicted.
        assert_eq!(m.accept(UP, tuple(1), 2).unserved, None);
        assert!(m.take_up(2).is_some(), "the new head was never taken up");
        let started: Vec<u64> = stages(&config)
            .into_iter()
            .filter(|(_, s)| *s == Stage::Started)
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(started, [0, 1]);
    }

    /// A source that is never ACKed, with one credit toward its only
    /// downstream: the second capture meets a closed gate. (The third
    /// value keeps that downstream's link up.)
    fn starved_source(policy: OverloadPolicy) -> (NodeConfig, UnitMachine, MsgReceiver) {
        let mut config = config();
        config.flow = FlowConfig {
            policy,
            credits_per_downstream: 1,
            ..FlowConfig::bounded(8)
        };
        let src = AnyUnit::Source(Box::new(closure_source(|_| Some(Tuple::new()))));
        let (mut m, _, data) = machine(src, &config);
        assert_eq!(m.next_capture_us(), 0);
        assert!(m.capture(0));
        assert!(m.next_capture_us() > 0, "the pacer moved on");
        (config, m, data)
    }

    #[test]
    fn a_closed_gate_sheds_the_capture_after_sensing_it() {
        let (config, mut m, _link) = starved_source(OverloadPolicy::ShedNewest);
        assert!(m.capture(50_000));
        let (shed, _, paused) = m.disp.overload_counts();
        assert_eq!((shed, paused), (1, 0));
        use Stage::{Dispatched, Sensed, Shed};
        assert_eq!(
            stages(&config),
            [(0, Sensed), (0, Dispatched), (1, Sensed), (1, Shed)]
        );
    }

    #[test]
    fn a_closed_gate_under_block_skips_the_capture() {
        let (config, mut m, _link) = starved_source(OverloadPolicy::Block);
        assert!(m.capture(50_000));
        let (shed, _, paused) = m.disp.overload_counts();
        assert_eq!((shed, paused), (0, 1));
        assert_eq!(stages(&config).len(), 2, "nothing was sensed");
    }

    #[test]
    fn an_exhausted_stream_ends_capture() {
        let config = config();
        let (mut m, ..) = machine(AnyUnit::Source(Box::new(closure_source(|_| None))), &config);
        assert!(!m.capture(0));
        assert!(stages(&config).is_empty());
    }

    #[test]
    fn sink_counts_fold_with_the_release_that_caused_them() {
        let config = config();
        let sink = AnyUnit::Sink(Box::new(closure_sink(|_, _| ())));
        let (mut m, acks, _) = machine(sink, &config);
        let counter = |name| config.telemetry.snapshot().counter_total(name);
        // Seq 1 waits for seq 0 until the reorder span gives up on it.
        assert_eq!(m.receive(UP, tuple(1), 0), 0);
        assert_eq!(m.poll(1_000), 1);
        assert_eq!(counter(tn::SINK_SKIPPED), 1);
        // Seq 0 arrives after playback passed it: ACKed, dropped, and
        // counted by the very receive that dropped it.
        assert_eq!(m.receive(UP, tuple(0), 1_500), 0);
        assert_eq!(counter(tn::SINK_STALE), 1);
        assert_eq!(counter(tn::SINK_PLAYED), 1);
        let report = m.sink_report().expect("a sink reports");
        assert_eq!((report.consumed, report.skipped, report.stale), (1, 1, 1));
        assert_eq!(acks.try_iter().count(), 2);
        use Stage::{Arrived, Played};
        assert_eq!(stages(&config), [(1, Arrived), (1, Played), (0, Arrived)]);
        // A retransmission is re-ACKed and goes no further.
        assert_eq!(m.receive(UP, tuple(0), 1_600), 0);
        assert_eq!(acks.try_iter().count(), 1);
        assert_eq!(stages(&config).len(), 3);
    }

    #[test]
    fn stop_plays_out_the_reorder_buffer() {
        let config = config();
        let sink = AnyUnit::Sink(Box::new(closure_sink(|_, _| ())));
        let (mut m, ..) = machine(sink, &config);
        m.receive(UP, tuple(2), 0);
        m.stop(10);
        let report = m.sink_report().unwrap();
        assert_eq!((report.consumed, report.skipped), (1, 2));
    }
}
