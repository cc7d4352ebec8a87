//! Overload control: bounded mailboxes, shed policies and credit flow.
//!
//! The paper's LRS selection picks the minimum worker prefix with
//! `Σ μ_i ≥ Λ`, but when the swarm is unsatisfiable it "selects all"
//! and queues grow without bound — queueing delay is *inside* `L_i`,
//! so the router feeds on exactly the stale, inflating estimates that
//! overload produces. This module supplies the two mechanisms that
//! let the data plane degrade gracefully instead (the shape used by
//! Storm's `max.spout.pending` and SEEP's flow control, both cited as
//! baselines in the paper):
//!
//! 1. **Bounded mailboxes** ([`Mailbox`]) — each operator executor
//!    buffers incoming data tuples in a bounded queue with a per-edge
//!    [`OverloadPolicy`]. For sensing streams the default is
//!    [`OverloadPolicy::ShedOldest`]: a stale camera frame is worthless,
//!    so the oldest queued frame is dropped to admit the fresh one.
//! 2. **Credit-based admission** — the dispatcher grants each
//!    downstream [`FlowConfig::credits_per_downstream`] credits,
//!    decrements one per in-flight tuple and replenishes on ACK (or on
//!    loss/reclaim). A source whose selected set has no credits left
//!    sheds *at capture time* — the cheapest possible point.
//!
//! Shedding is *accounted*, never silent. Every sensed tuple ends in
//! exactly one of four buckets, and the identity
//!
//! ```text
//! sensed = delivered + shed_at_source + shed_in_queue + lost
//! ```
//!
//! holds exactly (tested in the runtime's overload suite). Shed tuples
//! are ACKed immediately by the receiver so upstream credits replenish
//! and the retransmission layer does not amplify the overload.
//!
//! Sinks intentionally have no mailbox: their service time is O(1)
//! (record + hand to the reorder buffer, which is itself the sink's
//! bounded queue) and they ACK on receipt, so credits already flow.
//! Mailboxes protect operators; admission protects sources.

use crate::error::{Error, Result};
use std::collections::VecDeque;

/// What a full mailbox does with the next incoming tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Never shed on the receiver side; rely on credit back-pressure to
    /// pause the source. With credits sized to the mailbox capacity a
    /// well-behaved upstream never overflows a `Block` mailbox; if one
    /// does overflow anyway (e.g. credits disabled), the freshest tuple
    /// is rejected like [`ShedNewest`](OverloadPolicy::ShedNewest).
    Block,
    /// Evict the oldest queued tuple to admit the incoming one
    /// (freshness-first — the right default for live sensing streams).
    ShedOldest,
    /// Reject the incoming tuple and keep the queue as is
    /// (completeness-first — for streams where order of arrival wins).
    ShedNewest,
}

impl OverloadPolicy {
    /// Short lowercase label used in telemetry and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedOldest => "shed_oldest",
            OverloadPolicy::ShedNewest => "shed_newest",
        }
    }
}

/// Configuration of the overload-control layer.
///
/// The default is **disabled** — unbounded mailboxes, no admission
/// gate, exactly the seed build's behavior — so existing deployments
/// and the A/B baseline arm are unaffected. [`FlowConfig::bounded`]
/// turns everything on with one capacity knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Master switch. Disabled reproduces unbounded seed behavior.
    pub enabled: bool,
    /// Maximum data tuples an operator mailbox holds before its
    /// [`OverloadPolicy`] kicks in.
    pub mailbox_capacity: usize,
    /// What a full mailbox does (see [`OverloadPolicy`]).
    pub policy: OverloadPolicy,
    /// Credits granted to each downstream: the number of tuples the
    /// dispatcher may have in flight toward it before the source-side
    /// admission gate closes. Usually equal to `mailbox_capacity`.
    pub credits_per_downstream: u32,
}

impl FlowConfig {
    /// Overload control off: unbounded mailboxes, no admission gate.
    #[must_use]
    pub fn disabled() -> Self {
        FlowConfig {
            enabled: false,
            mailbox_capacity: usize::MAX,
            policy: OverloadPolicy::ShedOldest,
            credits_per_downstream: u32::MAX,
        }
    }

    /// Freshness-first overload control sized to `capacity` tuples per
    /// edge: `ShedOldest` mailboxes plus a credit window of the same
    /// size per downstream.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        FlowConfig {
            enabled: true,
            mailbox_capacity: capacity,
            policy: OverloadPolicy::ShedOldest,
            credits_per_downstream: capacity.min(u32::MAX as usize) as u32,
        }
    }

    /// The capacity the executor should give its mailbox: the
    /// configured bound when enabled, unbounded otherwise.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        if self.enabled {
            self.mailbox_capacity
        } else {
            usize::MAX
        }
    }

    /// Validate ranges; call before handing the config to the runtime.
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.mailbox_capacity == 0 {
            return Err(Error::InvalidConfig(
                "flow mailbox_capacity must be positive".into(),
            ));
        }
        if self.enabled && self.credits_per_downstream == 0 {
            return Err(Error::InvalidConfig(
                "flow credits_per_downstream must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::disabled()
    }
}

/// Outcome of a [`Mailbox::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The item was queued; nothing was shed.
    Queued,
    /// The item was queued and the returned (oldest) item was evicted
    /// to make room (`ShedOldest`).
    ShedOldest(T),
    /// The incoming item was rejected and is returned to the caller
    /// (`ShedNewest`, or `Block` on a credit-bypassing overflow).
    Rejected(T),
}

/// A bounded FIFO queue of data tuples with an [`OverloadPolicy`].
///
/// This is the executor's *data* queue; control messages (ACKs,
/// connect/disconnect, start/stop) never pass through it — they are
/// handled immediately so overload can't delay failure recovery.
#[derive(Debug)]
pub struct Mailbox<T> {
    items: VecDeque<T>,
    capacity: usize,
    policy: OverloadPolicy,
    shed: u64,
    high_watermark: usize,
}

impl<T> Mailbox<T> {
    /// A mailbox holding at most `capacity` items (`usize::MAX` for an
    /// effectively unbounded queue).
    #[must_use]
    pub fn new(capacity: usize, policy: OverloadPolicy) -> Self {
        Mailbox {
            items: VecDeque::new(),
            capacity,
            policy,
            shed: 0,
            high_watermark: 0,
        }
    }

    /// A mailbox sized and governed by `config`.
    #[must_use]
    pub fn from_config(config: &FlowConfig) -> Self {
        Mailbox::new(config.effective_capacity(), config.policy)
    }

    /// Queue `item`, applying the overload policy if the mailbox is
    /// full. The caller must account (and usually ACK) any shed item
    /// carried by the returned [`PushOutcome`].
    pub fn push(&mut self, item: T) -> PushOutcome<T> {
        let outcome = if self.items.len() < self.capacity {
            self.items.push_back(item);
            PushOutcome::Queued
        } else {
            match self.policy {
                OverloadPolicy::ShedOldest => {
                    let victim = self.items.pop_front().expect("capacity > 0 implies items");
                    self.items.push_back(item);
                    self.shed += 1;
                    PushOutcome::ShedOldest(victim)
                }
                OverloadPolicy::ShedNewest | OverloadPolicy::Block => {
                    self.shed += 1;
                    PushOutcome::Rejected(item)
                }
            }
        };
        self.high_watermark = self.high_watermark.max(self.items.len());
        outcome
    }

    /// Dequeue the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// The oldest item (the next [`pop`](Self::pop)), if any.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the mailbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items shed (evicted or rejected) so far.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// The deepest the queue has ever been.
    #[must_use]
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_disabled_and_seed_shaped() {
        let c = FlowConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.effective_capacity(), usize::MAX);
        c.validate().unwrap();
    }

    #[test]
    fn bounded_sizes_credits_to_capacity() {
        let c = FlowConfig::bounded(8);
        assert!(c.enabled);
        assert_eq!(c.mailbox_capacity, 8);
        assert_eq!(c.credits_per_downstream, 8);
        assert_eq!(c.policy, OverloadPolicy::ShedOldest);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_capacity_when_enabled() {
        let mut c = FlowConfig::bounded(4);
        c.mailbox_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = FlowConfig::bounded(4);
        c.credits_per_downstream = 0;
        assert!(c.validate().is_err());
        // Zero capacity is fine while disabled — it is never used.
        let mut c = FlowConfig::disabled();
        c.mailbox_capacity = 0;
        c.validate().unwrap();
    }

    #[test]
    fn shed_oldest_evicts_front() {
        let mut m = Mailbox::new(2, OverloadPolicy::ShedOldest);
        assert_eq!(m.push(1), PushOutcome::Queued);
        assert_eq!(m.push(2), PushOutcome::Queued);
        assert_eq!(m.push(3), PushOutcome::ShedOldest(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop(), Some(2));
        assert_eq!(m.pop(), Some(3));
        assert_eq!(m.shed_count(), 1);
        assert_eq!(m.high_watermark(), 2);
    }

    #[test]
    fn shed_newest_rejects_incoming() {
        let mut m = Mailbox::new(2, OverloadPolicy::ShedNewest);
        m.push(1);
        m.push(2);
        assert_eq!(m.push(3), PushOutcome::Rejected(3));
        assert_eq!(m.pop(), Some(1));
        assert_eq!(m.pop(), Some(2));
        assert_eq!(m.shed_count(), 1);
    }

    #[test]
    fn block_overflow_rejects_like_shed_newest() {
        let mut m = Mailbox::new(1, OverloadPolicy::Block);
        m.push(1);
        assert_eq!(m.push(2), PushOutcome::Rejected(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unbounded_mailbox_never_sheds() {
        let mut m = Mailbox::from_config(&FlowConfig::disabled());
        for i in 0..10_000 {
            assert_eq!(m.push(i), PushOutcome::Queued);
        }
        assert_eq!(m.shed_count(), 0);
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.high_watermark(), 10_000);
    }
}
