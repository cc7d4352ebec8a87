//! Bounded tuple-lifecycle event ring.
//!
//! Every tuple moving through the swarm passes the same stations:
//! sensed → dispatched → (retransmitted)* → arrived → started →
//! processed → acked at each operator hop, then arrived → played at
//! the sink — or ends early at shed. One unit state machine stamps
//! them, so a stage means the same instant on executor threads and
//! under the simulation engine. The ring records one compact fixed-size event per station crossing,
//! keeping the most recent `capacity` events and counting what it had
//! to shed, so an individual frame's journey can be reconstructed after
//! the fact ("frame 4817 was retransmitted twice before its ACK")
//! without unbounded memory.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A station in a tuple's lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Captured at the source (sensor read / frame generated).
    Sensed,
    /// Handed to a downstream by the router.
    Dispatched,
    /// Re-sent after an ACK deadline expired.
    Retransmitted,
    /// Delivery confirmed by the downstream.
    Acked,
    /// Entered an operator's mailbox, or reached the sink (end of the
    /// transmission hop). Duplicates are not stamped.
    Arrived,
    /// An operator took it up for service (end of the mailbox wait).
    Started,
    /// An operator finished processing it.
    Processed,
    /// Released by the sink's reorder buffer and consumed (playback).
    Played,
    /// Dropped at the source's admission gate, never dispatched.
    Shed,
}

impl Stage {
    /// Stable lowercase name, used by exporters and the dashboard.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sensed => "sensed",
            Stage::Dispatched => "dispatched",
            Stage::Retransmitted => "retransmitted",
            Stage::Acked => "acked",
            Stage::Arrived => "arrived",
            Stage::Started => "started",
            Stage::Processed => "processed",
            Stage::Played => "played",
            Stage::Shed => "shed",
        }
    }
}

/// One station crossing. `seq` is the tuple's sequence number and
/// `unit` the dataflow unit where the event happened; both are raw
/// integers so the telemetry crate stays dependency-free.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TupleEvent {
    pub at_us: u64,
    pub seq: u64,
    pub unit: u32,
    pub stage: Stage,
}

struct RingInner {
    buf: VecDeque<TupleEvent>,
    shed: u64,
}

/// Fixed-capacity ring of [`TupleEvent`]s. The oldest events are shed
/// first once the ring is full.
pub struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("event ring poisoned");
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("len", &inner.buf.len())
            .field("shed", &inner.shed)
            .finish()
    }
}

impl EventRing {
    /// Ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                shed: 0,
            }),
        }
    }

    /// Append one event, shedding the oldest when full. One short
    /// mutex-protected push; at ring capacity no allocation happens.
    pub fn record(&self, event: TupleEvent) {
        let mut inner = self.inner.lock().expect("event ring poisoned");
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.shed += 1;
        }
        inner.buf.push_back(event);
    }

    /// All retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TupleEvent> {
        let inner = self.inner.lock().expect("event ring poisoned");
        inner.buf.iter().copied().collect()
    }

    /// The retained journey of one tuple, oldest first.
    #[must_use]
    pub fn trace(&self, seq: u64) -> Vec<TupleEvent> {
        let inner = self.inner.lock().expect("event ring poisoned");
        inner.buf.iter().filter(|e| e.seq == seq).copied().collect()
    }

    /// Number of events shed to stay within capacity.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").shed
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event ring poisoned").buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: u64, stage: Stage) -> TupleEvent {
        TupleEvent {
            at_us: at,
            seq,
            unit: 1,
            stage,
        }
    }

    #[test]
    fn bounded_and_sheds_oldest() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.record(ev(i, i, Stage::Dispatched));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(ring.shed(), 2);
    }

    #[test]
    fn trace_reconstructs_a_journey() {
        let ring = EventRing::new(64);
        ring.record(ev(1, 7, Stage::Sensed));
        ring.record(ev(2, 8, Stage::Sensed));
        ring.record(ev(3, 7, Stage::Dispatched));
        ring.record(ev(4, 7, Stage::Retransmitted));
        ring.record(ev(5, 7, Stage::Acked));
        let journey: Vec<Stage> = ring.trace(7).iter().map(|e| e.stage).collect();
        assert_eq!(
            journey,
            [
                Stage::Sensed,
                Stage::Dispatched,
                Stage::Retransmitted,
                Stage::Acked
            ]
        );
    }
}
