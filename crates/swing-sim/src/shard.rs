//! Conservative windowed parallel engine over per-swarm event queues.
//!
//! One **shard** is one [`SimSwarm`]: its own event queue, its own
//! master/control plane, its own telemetry domain and link RNGs. Shards
//! exchange gateway tuples over per-link SPSC channels and advance in
//! **windows** bounded by the classic conservative-synchronization rule
//! (Chandy–Misra–Bryant with lookahead):
//!
//! ```text
//! bound = lbts + lookahead − 1
//! lbts  = min over shards of (next local event time,
//!                             earliest in-channel arrival time)
//! ```
//!
//! where `lookahead` is the minimum latency of any inter-shard gateway
//! link ([`swing_core::timing::GATEWAY_MIN_LATENCY_US`] in the
//! federation). Any tuple a shard emits at time `t ≥ lbts` arrives at
//! `t + lookahead > bound`, so every shard can execute its window
//! `[lbts, bound]` with no inbound surprises — the schedule is
//! byte-identical at any thread count.
//!
//! Each window runs in three barrier-separated phases:
//!
//! 1. **Advance** (parallel): each shard consumes federation ACKs,
//!    drains inbound gateway channels in fixed link order into its
//!    queue, runs its event loop to the bound, and publishes its next
//!    event time.
//! 2. **Exchange** (parallel): each shard ACKs the peer frames it
//!    consumed and routes its fresh egress over the gateway link with
//!    the best `L_i` latency view (the paper's estimator, reused at the
//!    federation tier), publishing the earliest arrival it produced.
//! 3. **Coordinate** (one thread): compute the next bound from the
//!    published minima, reset the claim counters, decide termination.
//!
//! Shards are claimed work-stealing style (an atomic index over a slab
//! of mutexes, each lock uncontended), so a straggler shard never
//! idles the rest of the pool within a phase. Workers are spawned once
//! per run via [`std::thread::scope`] — no per-window thread churn.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use std::sync::mpsc::{channel, Receiver, Sender};
use swing_core::estimator::{LatencyEstimator, LatencyView};
use swing_core::rng::DetRng;
use swing_core::timing;
use swing_core::{SeqNo, UnitId};
use swing_runtime::sim::SimSwarm;

/// One gateway tuple in flight between two shards. The arrival instant
/// is computed by the *sender* (emit time + link latency + seeded
/// jitter), so delivery is a pure function of the emitting shard's
/// state — never of channel timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTuple {
    /// Emitting shard index.
    pub from: usize,
    /// Emitter-local gateway sequence number.
    pub seq: u64,
    /// Virtual instant the gateway frame was emitted.
    pub emitted_us: u64,
    /// Virtual instant it reaches the destination shard.
    pub arrive_us: u64,
}

/// Federation-tier acknowledgement flowing back over a link's reverse
/// channel; feeds the emitter's `L_i` estimator.
#[derive(Debug, Clone, Copy)]
struct AckTuple {
    seq: u64,
    /// Virtual instant the ACK reaches the emitter (arrival + reverse
    /// hop latency).
    ack_us: u64,
    /// One-way hop the frame experienced, reported like a downstream's
    /// processing sample.
    hop_us: u64,
}

struct LinkOut {
    to: usize,
    latency_us: u64,
    jitter_us: u64,
    /// Per-link jitter stream, forked from the federation seed.
    rng: DetRng,
    tx: Sender<RemoteTuple>,
    ack_rx: Receiver<AckTuple>,
}

struct LinkIn {
    from: usize,
    /// Reverse-hop latency used to stamp ACK delivery.
    latency_us: u64,
    rx: Receiver<RemoteTuple>,
    ack_tx: Sender<AckTuple>,
}

/// One shard of the federated simulator: a [`SimSwarm`] plus its
/// gateway links and the federation-tier latency estimator scoring
/// them.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    /// The wrapped swarm. Public so scenario builders can schedule
    /// chaos (crashes, joins, partitions) before the run and read
    /// telemetry after it.
    pub swarm: SimSwarm,
    links_out: Vec<LinkOut>,
    links_in: Vec<LinkIn>,
    estimator: LatencyEstimator,
    routed: u64,
    acked: u64,
}

impl std::fmt::Debug for LinkOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkOut")
            .field("to", &self.to)
            .field("latency_us", &self.latency_us)
            .field("jitter_us", &self.jitter_us)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for LinkIn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkIn")
            .field("from", &self.from)
            .field("latency_us", &self.latency_us)
            .finish_non_exhaustive()
    }
}

impl Shard {
    /// Wrap `swarm` as shard `id` with no gateway links yet (see
    /// [`connect`]).
    #[must_use]
    pub fn new(id: usize, swarm: SimSwarm) -> Shard {
        Shard {
            id,
            swarm,
            links_out: Vec::new(),
            links_in: Vec::new(),
            estimator: LatencyEstimator::new(
                32,
                timing::INITIAL_LATENCY_ESTIMATE_US,
                timing::LOSS_TIMEOUT_US,
            ),
            routed: 0,
            acked: 0,
        }
    }

    /// Shard index within the federation.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Gateway frames this shard routed onto outbound links so far.
    #[must_use]
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Federation-tier ACKs consumed so far.
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Latency views of every outbound gateway link, ordered by
    /// destination shard — the federation-tier analogue of the router's
    /// per-downstream `L_i` table.
    #[must_use]
    pub fn gateway_views(&mut self, now_us: u64) -> Vec<LatencyView> {
        self.estimator.snapshot(now_us)
    }

    /// Smallest outbound link latency, if any link exists; the engine
    /// asserts every link dominates the lookahead.
    fn min_out_latency(&self) -> Option<u64> {
        self.links_out.iter().map(|l| l.latency_us).min()
    }

    /// Window phase 1: consume ACKs, drain inbound gateway tuples in
    /// link order, advance the swarm to `bound_us`. Returns the next
    /// local event time (`u64::MAX` when the queue is empty).
    fn advance(&mut self, bound_us: u64) -> u64 {
        for l in &mut self.links_out {
            while let Ok(a) = l.ack_rx.try_recv() {
                self.estimator.on_ack(SeqNo(a.seq), a.ack_us, a.hop_us);
                self.acked += 1;
            }
        }
        for l in &self.links_in {
            while let Ok(m) = l.rx.try_recv() {
                self.swarm
                    .ingest_remote(m.arrive_us, m.from as u64, m.seq, m.emitted_us);
            }
        }
        self.swarm.run_until(bound_us);
        self.swarm.next_event_us().unwrap_or(u64::MAX)
    }

    /// Window phase 2: ACK the peer frames consumed this window, then
    /// route fresh egress over the lowest-latency gateway link,
    /// publishing the earliest arrival produced per destination into
    /// `pending`.
    fn exchange(&mut self, now_us: u64, pending: &[AtomicU64]) {
        for r in self.swarm.drain_gateway_receipts() {
            let Some(l) = self.links_in.iter().find(|l| l.from as u64 == r.from_swarm) else {
                continue;
            };
            let _ = l.ack_tx.send(AckTuple {
                seq: r.seq,
                ack_us: r.arrived_us + l.latency_us,
                hop_us: r.arrived_us.saturating_sub(r.emitted_us),
            });
        }
        if self.links_out.is_empty() {
            // An isolated shard's egress has nowhere to go; drop it
            // (still counted by the swarm's egress counter).
            let _ = self.swarm.drain_gateway_egress();
            return;
        }
        for f in self.swarm.drain_gateway_egress() {
            // LRS composed across tiers: the link whose latency view is
            // lowest wins; ties break toward the first link in
            // destination order, deterministically.
            let mut best = 0usize;
            let mut best_lat = f64::INFINITY;
            for (i, l) in self.links_out.iter().enumerate() {
                let lat = self
                    .estimator
                    .view(UnitId(l.to as u32), now_us)
                    .map_or(f64::INFINITY, |v| v.latency_us);
                if lat < best_lat {
                    best_lat = lat;
                    best = i;
                }
            }
            let l = &mut self.links_out[best];
            let jitter = if l.jitter_us > 0 {
                l.rng.random_range(0..=l.jitter_us)
            } else {
                0
            };
            let arrive = f.emitted_us + l.latency_us + jitter;
            self.estimator
                .on_send(SeqNo(f.seq), UnitId(l.to as u32), f.emitted_us);
            pending[l.to].fetch_min(arrive, Ordering::SeqCst);
            let _ = l.tx.send(RemoteTuple {
                from: self.id,
                seq: f.seq,
                emitted_us: f.emitted_us,
                arrive_us: arrive,
            });
            self.routed += 1;
        }
    }
}

/// Wire a directed gateway link `from → to` with the given one-way
/// latency and jitter bound. The reverse ACK channel rides the same
/// latency. Jitter draws from a stream forked off `rng`, keyed by the
/// link's endpoints, so topology construction order cannot perturb it.
///
/// # Panics
/// If `from == to` or either index is out of bounds.
pub fn connect(
    shards: &mut [Shard],
    from: usize,
    to: usize,
    latency_us: u64,
    jitter_us: u64,
    rng: &mut DetRng,
) {
    assert_ne!(from, to, "a gateway link must join two distinct shards");
    let (tx, rx) = channel();
    let (ack_tx, ack_rx) = channel();
    let link_rng = rng.fork(((from as u64) << 32) | to as u64);
    shards[from].estimator.add_unit(UnitId(to as u32));
    shards[from].links_out.push(LinkOut {
        to,
        latency_us,
        jitter_us,
        rng: link_rng,
        tx,
        ack_rx,
    });
    shards[to].links_in.push(LinkIn {
        from,
        latency_us,
        rx,
        ack_tx,
    });
}

/// What a finished [`run_to_horizon`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Threads the pool actually used.
    pub threads: usize,
}

/// Advance every shard to `horizon_us` under conservative windowed
/// synchronization with the given `lookahead_us`, using `threads`
/// worker threads (clamped to `[1, shards.len()]`). Deterministic: the
/// same shards and seeds produce the same schedule at any thread count.
///
/// # Panics
/// If `lookahead_us` is zero, or any gateway link's latency is below
/// the lookahead (the conservative bound would be unsound).
pub fn run_to_horizon(
    shards: &mut Vec<Shard>,
    lookahead_us: u64,
    horizon_us: u64,
    threads: usize,
) -> EngineReport {
    assert!(lookahead_us > 0, "zero lookahead degenerates to lockstep");
    let n = shards.len();
    if n == 0 {
        return EngineReport {
            windows: 0,
            threads: 0,
        };
    }
    for s in shards.iter() {
        if let Some(min) = s.min_out_latency() {
            assert!(
                min >= lookahead_us,
                "shard {} has a gateway link faster ({min} us) than the \
                 lookahead ({lookahead_us} us); the window bound would be unsound",
                s.id
            );
        }
    }
    // Fixed drain order, independent of construction order.
    for s in shards.iter_mut() {
        s.links_out.sort_by_key(|l| l.to);
        s.links_in.sort_by_key(|l| l.from);
    }
    let threads = threads.clamp(1, n);

    let lbts0 = shards
        .iter()
        .filter_map(|s| s.swarm.next_event_us())
        .min()
        .unwrap_or(u64::MAX);
    let first_bound = if lbts0 == u64::MAX {
        horizon_us
    } else {
        horizon_us.min(lbts0.saturating_add(lookahead_us - 1))
    };

    let cells: Vec<Mutex<Shard>> = std::mem::take(shards).into_iter().map(Mutex::new).collect();
    let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let pending: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let idx_a = AtomicUsize::new(0);
    let idx_b = AtomicUsize::new(0);
    let bound = AtomicU64::new(first_bound);
    let done = AtomicBool::new(false);
    let windows = AtomicU64::new(0);
    let barrier = Barrier::new(threads);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let b_now = bound.load(Ordering::SeqCst);
                // Phase 1: advance claimed shards to the bound.
                loop {
                    let i = idx_a.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let mut sh = cells[i].lock().expect("shard lock");
                    let next = sh.advance(b_now);
                    next_times[i].store(next, Ordering::SeqCst);
                }
                barrier.wait();
                // Phase 2: exchange gateway traffic.
                loop {
                    let i = idx_b.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let mut sh = cells[i].lock().expect("shard lock");
                    sh.exchange(b_now, &pending);
                }
                let leader = barrier.wait().is_leader();
                // Phase 3: one thread computes the next window while
                // the rest hold at the closing barrier.
                if leader {
                    windows.fetch_add(1, Ordering::SeqCst);
                    let mut lbts = u64::MAX;
                    for t in &next_times {
                        lbts = lbts.min(t.load(Ordering::SeqCst));
                    }
                    for p in &pending {
                        lbts = lbts.min(p.swap(u64::MAX, Ordering::SeqCst));
                    }
                    if b_now >= horizon_us {
                        done.store(true, Ordering::SeqCst);
                    } else {
                        let nb = if lbts == u64::MAX {
                            horizon_us
                        } else {
                            horizon_us.min(lbts.saturating_add(lookahead_us - 1))
                        };
                        // lbts strictly exceeds the executed bound, so
                        // this max never fires; it pins monotone
                        // progress even so.
                        bound.store(nb.max(b_now.saturating_add(1)), Ordering::SeqCst);
                    }
                    idx_a.store(0, Ordering::SeqCst);
                    idx_b.store(0, Ordering::SeqCst);
                }
                barrier.wait();
                if done.load(Ordering::SeqCst) {
                    break;
                }
            });
        }
    });

    shards.extend(
        cells
            .into_iter()
            .map(|m| m.into_inner().expect("no poisoned shard")),
    );
    EngineReport {
        windows: windows.load(Ordering::SeqCst),
        threads,
    }
}
