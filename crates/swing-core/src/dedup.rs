//! Receiver-side duplicate suppression for at-least-once delivery.
//!
//! The runtime's retransmission layer (ACK-deadline timers at each
//! upstream) re-sends tuples whose ACK did not arrive in time. A slow —
//! not lost — first copy then produces a *duplicate* at the receiver.
//! Each receiving executor keeps one [`DedupWindow`] per upstream and
//! re-ACKs duplicates without processing them, turning at-least-once
//! delivery into at-most-once *execution* per stage.
//!
//! The window is bounded: it remembers the last `capacity` distinct
//! sequence numbers seen from one upstream. A duplicate older than the
//! window can in principle slip through, but the retransmission layer
//! bounds how far behind a copy can arrive (max_retries × deadline
//! ceiling), so sizing the window above the upstream's in-flight budget
//! makes misses practically impossible — and the sink's reorder buffer
//! still drops anything behind its playback frontier.

use crate::SeqNo;
use std::collections::{HashSet, VecDeque};

/// Bounded memory of recently seen sequence numbers from one upstream.
#[derive(Debug, Clone)]
pub struct DedupWindow {
    capacity: usize,
    /// Insertion order, oldest first; evicted when over capacity.
    order: VecDeque<SeqNo>,
    seen: HashSet<SeqNo>,
}

impl DedupWindow {
    /// Create a window remembering the last `capacity` distinct sequence
    /// numbers (minimum 1). Storage grows with what is observed, up to
    /// `capacity` entries; a short stream never pays for a wide window.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        DedupWindow {
            capacity,
            order: VecDeque::new(),
            seen: HashSet::new(),
        }
    }

    /// Record `seq`; returns `true` if it is fresh (process it) and
    /// `false` if it was already in the window (duplicate — re-ACK and
    /// drop). Fresh insertions evict the oldest remembered entry once the
    /// window is full; duplicates do not change the window.
    pub fn observe(&mut self, seq: SeqNo) -> bool {
        if self.seen.contains(&seq) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.order.push_back(seq);
        self.seen.insert(seq);
        true
    }

    /// Whether `seq` is currently remembered.
    #[must_use]
    pub fn contains(&self, seq: SeqNo) -> bool {
        self.seen.contains(&seq)
    }

    /// Number of sequence numbers currently remembered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_duplicate() {
        let mut w = DedupWindow::new(4);
        assert!(w.observe(SeqNo(1)));
        assert!(!w.observe(SeqNo(1)));
        assert!(w.observe(SeqNo(2)));
        assert!(!w.observe(SeqNo(1)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut w = DedupWindow::new(3);
        for i in 0..3 {
            assert!(w.observe(SeqNo(i)));
        }
        assert_eq!(w.len(), 3);
        // Inserting a fourth evicts the oldest (0), nothing else.
        assert!(w.observe(SeqNo(3)));
        assert_eq!(w.len(), 3);
        assert!(!w.contains(SeqNo(0)));
        assert!(w.contains(SeqNo(1)));
        // The evicted seq is treated as fresh again (out-of-window).
        assert!(w.observe(SeqNo(0)));
    }

    #[test]
    fn duplicates_do_not_evict() {
        let mut w = DedupWindow::new(2);
        w.observe(SeqNo(10));
        w.observe(SeqNo(11));
        // Re-observing 11 must not push 10 out.
        assert!(!w.observe(SeqNo(11)));
        assert!(w.contains(SeqNo(10)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut w = DedupWindow::new(0);
        assert_eq!(w.capacity(), 1);
        assert!(w.observe(SeqNo(5)));
        assert!(!w.observe(SeqNo(5)));
        assert!(w.observe(SeqNo(6)));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn within_window_duplicates_always_caught() {
        // Any seq re-observed while among the last `capacity` distinct
        // inserts must be flagged — the invariant the property test in
        // tests/props.rs exercises with random interleavings.
        let mut w = DedupWindow::new(8);
        for i in 0..100u64 {
            assert!(w.observe(SeqNo(i)));
            for back in 0..8.min(i + 1) {
                assert!(
                    !w.observe(SeqNo(i - back)),
                    "seq {} within window",
                    i - back
                );
            }
        }
    }
}
