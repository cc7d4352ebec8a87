//! Deterministic discrete-event core: a time-ordered event queue with
//! stable FIFO ordering for simultaneous events.
//!
//! Promoted out of `swing-sim` so that both the simulator and the
//! virtual-time runtime harness ([`crate::clock::VirtualClock`]) share
//! one scheduling substrate. `swing_sim::engine` re-exports this module
//! for source compatibility.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time_us: u64,
    tie: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.tie == other.tie
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap becomes a min-heap on (time, tie).
        other
            .time_us
            .cmp(&self.time_us)
            .then(other.tie.cmp(&self.tie))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap event queue dispensing events in (time, insertion) order.
///
/// Two events scheduled for the same microsecond pop in the order they
/// were pushed, which keeps simulations reproducible run-to-run.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_tie: u64,
    now_us: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_tie: 0,
            now_us: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Schedule `event` at absolute time `time_us`.
    ///
    /// Scheduling in the past is clamped to `now` — the event fires next.
    pub fn schedule(&mut self, time_us: u64, event: E) {
        let time_us = time_us.max(self.now_us);
        let tie = self.next_tie;
        self.next_tie += 1;
        self.heap.push(Scheduled {
            time_us,
            tie,
            event,
        });
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay_us: u64, event: E) {
        self.schedule(self.now_us.saturating_add(delay_us), event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time_us >= self.now_us, "time moved backwards");
        self.now_us = s.time_us;
        Some((s.time_us, s.event))
    }

    /// Move the clock forward to `time_us` without an event to pop: a
    /// run reached its horizon with nothing (left) due by then, and
    /// whatever is scheduled next must not land before it. Never moves
    /// the clock back.
    pub fn advance_to(&mut self, time_us: u64) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= time_us),
            "an earlier event is still queued"
        );
        self.now_us = self.now_us.max(time_us);
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|s| s.time_us)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now_us(), 0);
        q.pop();
        assert_eq!(q.now_us(), 100);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(100, "first");
        q.pop();
        q.schedule_in(50, "second");
        assert_eq!(q.pop(), Some((150, "second")));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "a");
        q.pop();
        q.schedule(10, "late");
        assert_eq!(q.pop(), Some((100, "late")));
        assert_eq!(q.now_us(), 100);
    }

    #[test]
    fn advance_to_pins_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(500, "beyond");
        q.advance_to(100);
        assert_eq!(q.now_us(), 100);
        // A schedule in what is now the past clamps to the horizon.
        q.schedule(40, "late");
        assert_eq!(q.pop(), Some((100, "late")));
        // The clock never moves back, and the queued event is untouched.
        q.advance_to(60);
        assert_eq!(q.now_us(), 100);
        assert_eq!(q.pop(), Some((500, "beyond")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(30, 3);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert!(q.is_empty());
    }
}
