//! Log-linear latency histogram with lock-free recording and mergeable
//! snapshots.
//!
//! Values (typically microseconds) are binned HDR-style: 32 linear
//! sub-buckets per power-of-two range, so every bucket's width is at
//! most 1/32 ≈ 3.1% of its lower bound. Bucket storage is sparse: an
//! octave's 32 cells (one 256 B block) are allocated when the first
//! value lands in it, so a histogram costs what it has seen — a latency
//! series spans a handful of octaves, a never-recorded one none.
//! Recording is two relaxed atomic adds plus a min/max update; after an
//! octave's first touch it takes no lock and allocates nothing, which
//! keeps it safe for the per-tuple dispatch path. Snapshots are sparse
//! (populated buckets only), exactly mergeable (bucket-wise addition,
//! so merge order never changes the result), and cheap to serialize.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Linear sub-buckets per power-of-two range.
const SUB_BUCKETS: u64 = 32;
/// `log2(SUB_BUCKETS)`.
const SUB_SHIFT: u32 = 5;
/// Total bucket count covering all of `u64`:
/// 32 unit-width buckets for values `< 32`, then 32 buckets for each of
/// the 59 remaining octaves `[2^k, 2^(k+1))`, `k = 5..=63`.
const BUCKETS: usize = (SUB_BUCKETS as usize) * OCTAVES;
/// Blocks of [`SUB_BUCKETS`] cells: the unit-width range plus 59 octaves.
const OCTAVES: usize = 60;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_SHIFT
        let sub = (v >> (exp - SUB_SHIFT)) - SUB_BUCKETS; // 0..32
        ((exp - SUB_SHIFT + 1) as usize) * SUB_BUCKETS as usize + sub as usize
    }
}

/// Smallest value that lands in bucket `index`.
#[inline]
fn bucket_low(index: usize) -> u64 {
    let octave = index as u64 / SUB_BUCKETS;
    let sub = index as u64 % SUB_BUCKETS;
    if octave == 0 {
        sub
    } else {
        (SUB_BUCKETS + sub) << (octave - 1)
    }
}

/// Largest value that lands in bucket `index`.
#[inline]
fn bucket_high(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

/// Representative value reported for bucket `index` (its midpoint).
#[inline]
fn bucket_mid(index: usize) -> u64 {
    let low = bucket_low(index);
    // Avoid overflow near u64::MAX; width is low/32 at most.
    low + (bucket_high(index) - low) / 2
}

/// The cells of one octave, allocated on its first recorded value.
type Block = Box<[AtomicU64; SUB_BUCKETS as usize]>;

struct HistCore {
    /// Block `b` holds buckets `32 b .. 32 b + 32`.
    blocks: [OnceLock<Block>; OCTAVES],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A shared, lock-free histogram handle. Cloning is a refcount bump;
/// all clones record into the same buckets.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.core.sum.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(HistCore {
                blocks: [const { OnceLock::new() }; OCTAVES],
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one value: two atomic adds in the steady state, no lock
    /// and no allocation once the value's octave has been touched (its
    /// first value allocates the octave's block; threads racing for
    /// that first touch wait for the one allocation and then all count).
    /// The recorded count is carried by the bucket cells themselves,
    /// and min/max take the RMW only when the racy early-out says the
    /// extreme actually moved — min only ever decreases, so observing
    /// `v >= min` proves no update is needed (and symmetrically for
    /// max).
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.core;
        let index = bucket_index(v);
        let block = c.blocks[index / SUB_BUCKETS as usize]
            .get_or_init(|| Box::new([const { AtomicU64::new(0) }; SUB_BUCKETS as usize]));
        block[index % SUB_BUCKETS as usize].fetch_add(1, Relaxed);
        c.sum.fetch_add(v, Relaxed);
        if v < c.min.load(Relaxed) {
            c.min.fetch_min(v, Relaxed);
        }
        if v > c.max.load(Relaxed) {
            c.max.fetch_max(v, Relaxed);
        }
    }

    /// Record a `Duration` in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// `(bucket index, count)` of every allocated cell, ascending.
    fn cells(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let blocks = self.core.blocks.iter().enumerate();
        blocks
            .filter_map(|(b, block)| Some((b, block.get()?)))
            .flat_map(|(b, block)| {
                let cells = block.iter().enumerate();
                cells.map(move |(i, cell)| (b * SUB_BUCKETS as usize + i, cell.load(Relaxed)))
            })
    }

    /// Number of recorded values (one pass over the touched octaves).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cells().map(|(_, n)| n).sum()
    }

    /// Capture a snapshot. Concurrent `record`s may or may not be
    /// included, but every value recorded before the snapshot started
    /// is; bucket counts never decrease between successive snapshots.
    /// `count` is computed from the same bucket loads, so it always
    /// equals the snapshot's bucket total.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, n) in self.cells() {
            if n > 0 {
                buckets.push((i as u32, n));
                count += n;
            }
        }
        HistogramSnapshot {
            count,
            sum: c.sum.load(Relaxed),
            min: c.min.load(Relaxed),
            max: c.max.load(Relaxed),
            buckets,
        }
    }
}

/// Fold the entries of `from` into `into`, which is sorted by key and
/// stays so: an entry whose key `into` holds is `combine`d in place, any
/// other is inserted (`fresh`), its key cloned only then. A cursor walks
/// `into` in lock-step with `from`, so an ascending `from` costs one key
/// comparison per entry that `into` already holds — no search, insertion
/// or clone when it holds them all, as when the members of a federation
/// report the same series. `from` need not be sorted: an entry the
/// cursor cannot place is placed by binary search.
pub(crate) fn merge_sorted<'a, K: Ord + Clone + 'a, V, S>(
    into: &mut Vec<(K, V)>,
    from: impl IntoIterator<Item = (&'a K, S)>,
    mut combine: impl FnMut(&mut V, S),
    mut fresh: impl FnMut(S) -> V,
) {
    let mut at = 0;
    for (key, value) in from {
        let place = loop {
            match into.get(at).map(|(k, _)| k.cmp(key)) {
                Some(Ordering::Less) => at += 1,
                Some(Ordering::Equal) => break Ok(at),
                // `key` falls between the cursor's neighbours: new.
                _ if at == 0 || into[at - 1].0 < *key => break Err(at),
                _ => break into.binary_search_by(|(k, _)| k.cmp(key)),
            }
        };
        match place {
            Ok(held) => {
                combine(&mut into[held].1, value);
                at = held + 1;
            }
            Err(gap) => {
                into.insert(gap, (key.clone(), fresh(value)));
                at = gap + 1;
            }
        }
    }
}

/// An immutable, mergeable view of a [`Histogram`].
///
/// `buckets` holds `(bucket_index, count)` pairs sorted by index, with
/// zero-count buckets omitted. Merging adds counts bucket-wise, which
/// makes merge exactly associative and commutative.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The snapshot of a histogram nothing was recorded into — what a
    /// merge of several starts from (`min` is the identity of `min`,
    /// which `Default`'s zero is not).
    pub(crate) fn empty() -> Self {
        HistogramSnapshot {
            min: u64::MAX,
            ..HistogramSnapshot::default()
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]`, accurate to one bucket width
    /// (≤ 3.2% relative error). Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        // Use the bucket total rather than `count`: a deserialized
        // snapshot could carry an inconsistent `count` field, and the
        // walk must terminate inside the bucket list.
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target value, 1-based.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let mid = bucket_mid(i as usize);
                // Clamp to the observed range so p100 reports the true
                // max rather than the bucket midpoint.
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Shorthand for the quantiles the exporters report.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other` into `self` bucket-wise. Exactly associative: any
    /// merge order over a set of snapshots yields identical results.
    ///
    /// `count` and `sum` add modulo 2^64, matching the wrapping
    /// `fetch_add` on the recording path — so merging partial snapshots
    /// is bit-identical to recording every value into one histogram
    /// even at extremes, instead of panicking in debug builds. A
    /// wrapped `sum` needs ~2^64 µs of recorded latency (580k
    /// core-years), unreachable on the live path.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        merge_sorted(
            &mut self.buckets,
            other.buckets.iter().map(|(i, n)| (i, *n)),
            |a, b| *a = a.wrapping_add(b),
            |b| b,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the small range, then spot-check octave edges.
        let mut prev = bucket_index(0);
        for v in 1..=4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            assert!(i - prev <= 1, "index skipped at {v}");
            prev = i;
        }
        for exp in 5..63u32 {
            let edge = 1u64 << exp;
            assert_eq!(
                bucket_index(edge),
                bucket_index(edge - 1) + 1,
                "octave edge {edge} not contiguous"
            );
        }
    }

    #[test]
    fn bucket_bounds_round_trip() {
        for i in 0..BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "low bound of bucket {i}");
            let high = bucket_high(i);
            assert_eq!(bucket_index(high), i, "high bound of bucket {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [1u64, 31, 32, 33, 100, 1000, 12_345, 1 << 20, u64::MAX / 3] {
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / (v as f64);
            assert!(err <= 1.0 / 31.0, "value {v} -> mid {mid}, err {err}");
        }
    }

    #[test]
    fn records_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
    }

    fn blocks_held(h: &Histogram) -> usize {
        h.core.blocks.iter().filter(|b| b.get().is_some()).count()
    }

    #[test]
    fn a_never_recorded_histogram_holds_no_block() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().buckets, vec![]);
        assert_eq!(blocks_held(&h), 0, "reading must not allocate either");
        // One value: one octave's block, whatever else is never seen.
        h.record(1_000);
        assert_eq!(blocks_held(&h), 1);
    }

    /// The dense layout the sparse one replaced: every bucket a cell.
    struct Dense {
        buckets: [u64; BUCKETS],
        sum: u64,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn record(&mut self, v: u64) {
            self.buckets[bucket_index(v)] += 1;
            self.sum = self.sum.wrapping_add(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn snapshot(&self) -> HistogramSnapshot {
            let cells = self.buckets.iter().enumerate();
            HistogramSnapshot {
                count: self.buckets.iter().sum(),
                sum: self.sum,
                min: self.min,
                max: self.max,
                buckets: cells
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| (i as u32, n))
                    .collect(),
            }
        }
    }

    #[test]
    fn sparse_storage_equals_the_dense_reference() {
        let mut dense = Dense {
            buckets: [0; BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        let sparse = Histogram::new();
        // Block boundaries first: the unit range, every octave's first
        // and last value, the extremes.
        let mut values = vec![0, 1, 31, 32, 33, 63, 64, u64::MAX - 1, u64::MAX];
        for exp in 5..64u32 {
            values.extend([(1u64 << exp) - 1, 1 << exp, (1 << exp) + 1]);
        }
        // Then seeded values of every magnitude (xorshift64*, shifted
        // right by a varying amount), 10 000 in all.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while values.len() < 10_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            values.push(r >> (r % 64));
        }
        for &v in &values {
            dense.record(v);
            sparse.record(v);
        }
        let (want, got) = (dense.snapshot(), sparse.snapshot());
        assert_eq!(got, want, "buckets, count, sum, min, max");
        assert_eq!(sparse.count(), 10_000);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(got.quantile(q), want.quantile(q));
        }
        // Storage followed the values: a block per touched octave only.
        let touched: std::collections::BTreeSet<u32> = want
            .buckets
            .iter()
            .map(|&(i, _)| i / SUB_BUCKETS as u32)
            .collect();
        assert_eq!(blocks_held(&sparse), touched.len());
    }

    #[test]
    fn concurrent_first_touch_of_an_octave_loses_no_count() {
        const THREADS: u64 = 4;
        const EACH: u64 = 5_000;
        // Fresh histograms, so the threads race for the allocation of
        // the block itself; repeated because one race is over in a
        // microsecond.
        for round in 0..50u64 {
            let h = Histogram::new();
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (h, start) = (&h, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..EACH {
                            // All in octave [1024, 2048): one block.
                            h.record(1_024 + (t * EACH + i + round) % 1_024);
                        }
                    });
                }
            });
            assert_eq!(h.count(), THREADS * EACH, "round {round}");
            assert_eq!(h.snapshot().count, THREADS * EACH);
            assert_eq!(blocks_held(&h), 1);
        }
    }

    #[test]
    fn merge_sorted_places_entries_in_any_order() {
        let sum = |into: &mut Vec<(u32, u64)>, from: &[(u32, u64)]| {
            merge_sorted(
                into,
                from.iter().map(|(k, v)| (k, *v)),
                |a, b| *a += b,
                |b| b,
            );
        };
        let mut into = vec![(2, 1), (4, 1), (6, 1)];
        sum(&mut into, &[(2, 10), (4, 10), (6, 10)]); // equal
        assert_eq!(into, [(2, 11), (4, 11), (6, 11)]);
        sum(&mut into, &[(4, 100)]); // subset
        sum(&mut into, &[(1, 5), (3, 5), (7, 5)]); // interleaved, new
        assert_eq!(into, [(1, 5), (2, 11), (3, 5), (4, 111), (6, 11), (7, 5)]);
        sum(&mut into, &[(7, 1), (0, 1), (4, 1), (5, 1), (1, 1)]); // out of order
        assert_eq!(
            into,
            [
                (0, 1),
                (1, 6),
                (2, 11),
                (3, 5),
                (4, 112),
                (5, 1),
                (6, 11),
                (7, 6)
            ]
        );
        let mut empty = Vec::new();
        sum(&mut empty, &[(9, 9), (3, 3)]);
        assert_eq!(empty, [(3, 3), (9, 9)]);
    }
}
