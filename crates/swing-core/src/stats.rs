//! Online statistics used by the resource-management layer: moving
//! averages for latency estimates and a sliding-window rate estimator for
//! the incoming tuple rate `Λ`.

use std::collections::VecDeque;

/// Arithmetic mean over recent samples, bounded both by count and by
/// age: samples older than `max_age_us` no longer influence the
/// estimate.
///
/// Latency estimates must forget the past on the timescale links
/// actually change: a device that spent a minute behind a wall leaves a
/// window full of multi-second samples, and a count-bounded average
/// would keep it unattractive long after its link recovered. Aging the
/// samples caps that memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAvg {
    capacity: usize,
    max_age_us: u64,
    window: VecDeque<(u64, f64)>,
}

impl TimedAvg {
    /// An average over at most `capacity` samples no older than
    /// `max_age_us`.
    ///
    /// # Panics
    /// Panics if `capacity` or `max_age_us` is zero.
    #[must_use]
    pub fn new(capacity: usize, max_age_us: u64) -> Self {
        assert!(capacity > 0, "timed average window must be non-empty");
        assert!(max_age_us > 0, "timed average max age must be positive");
        TimedAvg {
            capacity,
            max_age_us,
            window: VecDeque::with_capacity(capacity),
        }
    }

    fn evict(&mut self, now_us: u64) {
        let cutoff = now_us.saturating_sub(self.max_age_us);
        while let Some(&(t, _)) = self.window.front() {
            if t < cutoff {
                self.window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Fold in one sample observed at `now_us`.
    pub fn update(&mut self, now_us: u64, sample: f64) {
        self.evict(now_us);
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back((now_us, sample));
    }

    /// Mean of the samples still in the window at `now_us`, or `None`
    /// if every sample has aged out (or none was ever observed).
    pub fn value(&mut self, now_us: u64) -> Option<f64> {
        self.evict(now_us);
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.iter().map(|&(_, v)| v).sum::<f64>() / self.window.len() as f64)
        }
    }

    /// Whether no sample is currently in the window.
    pub fn is_empty(&mut self, now_us: u64) -> bool {
        self.evict(now_us);
        self.window.is_empty()
    }
}

/// Sliding-window event-rate estimator: rate = events in window / window.
///
/// Used by each upstream unit to measure "the total rate of its incoming
/// data tuples Λ" (§V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct RateEstimator {
    window_us: u64,
    events: VecDeque<u64>,
}

impl RateEstimator {
    /// Create an estimator over the given window (microseconds).
    ///
    /// # Panics
    /// Panics if `window_us` is zero.
    #[must_use]
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "rate window must be positive");
        RateEstimator {
            window_us,
            events: VecDeque::new(),
        }
    }

    /// Record one event at `now_us`.
    pub fn record(&mut self, now_us: u64) {
        self.prune(now_us);
        self.events.push_back(now_us);
    }

    /// Events per second over the window ending at `now_us`.
    pub fn rate_per_sec(&mut self, now_us: u64) -> f64 {
        self.prune(now_us);
        self.events.len() as f64 * 1_000_000.0 / self.window_us as f64
    }

    /// Number of events currently inside the window.
    pub fn count(&mut self, now_us: u64) -> usize {
        self.prune(now_us);
        self.events.len()
    }

    fn prune(&mut self, now_us: u64) {
        let cutoff = now_us.saturating_sub(self.window_us);
        while let Some(&t) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Running summary (min / max / mean / variance) over a stream of samples,
/// used to report the latency statistics shown in the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Create an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary::default()
    }

    /// Fold in one sample (Welford's online algorithm).
    pub fn update(&mut self, sample: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
    }

    /// Number of samples observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
    }
}

/// Percentile estimator over a bounded reservoir of samples.
///
/// Keeps an unbiased uniform sample of the stream (reservoir sampling
/// with a deterministic internal counter-based PRNG, so identical
/// streams give identical percentiles). Suitable for the latency
/// distributions reported alongside [`Summary`] statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<f64>,
    /// xorshift state for replacement decisions.
    state: u64,
}

impl Default for Reservoir {
    /// A 4096-sample reservoir.
    fn default() -> Self {
        Reservoir::new(4_096)
    }
}

impl Reservoir {
    /// A reservoir holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::with_capacity(capacity.min(4_096)),
            state: 0x853C_49E6_748F_EA9B,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: cheap, deterministic, good enough for sampling.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Offer one sample.
    pub fn update(&mut self, sample: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            let j = self.next_u64() % self.seen;
            if (j as usize) < self.capacity {
                self.samples[j as usize] = sample;
            }
        }
    }

    /// The currently retained samples (unordered).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) of the retained sample, by the
    /// nearest-rank method; `None` before the first sample.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median shorthand.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_avg_evicts_by_count_and_age() {
        let mut t = TimedAvg::new(3, 1_000_000);
        t.update(0, 10.0);
        t.update(100, 20.0);
        assert_eq!(t.value(100), Some(15.0));
        // Count eviction: four samples in a 3-slot window.
        t.update(200, 30.0);
        t.update(300, 40.0);
        assert_eq!(t.value(300), Some(30.0)); // (20+30+40)/3
                                              // Age eviction: 1 s later everything is stale.
        assert_eq!(t.value(1_400_000), None);
        assert!(t.is_empty(1_400_000));
    }

    #[test]
    fn timed_avg_recovers_quickly_after_bad_period() {
        // The motivating case: a window full of 5 s penalties must not
        // dominate once fresh fast samples arrive and the old ones age.
        let mut t = TimedAvg::new(16, 10_000_000);
        for i in 0..16u64 {
            t.update(i * 1_000_000, 5_000_000.0);
        }
        // 12 s later the link recovered; two probes come back fast.
        t.update(27_000_000, 100_000.0);
        t.update(28_000_000, 90_000.0);
        let v = t.value(28_000_000).unwrap();
        assert!(v < 200_000.0, "stale penalties still dominate: {v}");
    }

    #[test]
    #[should_panic(expected = "max age")]
    fn timed_avg_rejects_zero_age() {
        let _ = TimedAvg::new(4, 0);
    }

    #[test]
    fn rate_estimator_counts_window_events() {
        let mut r = RateEstimator::new(1_000_000); // 1 s window
        for i in 0..24 {
            r.record(i * 41_666); // ~24 events within 1 s
        }
        let rate = r.rate_per_sec(1_000_000);
        assert!((rate - 24.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn rate_estimator_forgets_old_events() {
        let mut r = RateEstimator::new(1_000_000);
        r.record(0);
        r.record(100);
        assert_eq!(r.count(500_000), 2);
        assert_eq!(r.count(2_000_000), 0);
        assert_eq!(r.rate_per_sec(2_000_000), 0.0);
    }

    #[test]
    fn summary_tracks_min_max_mean() {
        let mut s = Summary::new();
        for v in [4.0, 2.0, 6.0] {
            s.update(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        let var = s.variance();
        assert!((var - 8.0 / 3.0).abs() < 1e-9, "variance {var}");
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn summary_merge_matches_sequential_updates() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut all = Summary::new();
        for &v in &samples {
            all.update(v);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &v in &samples[..3] {
            left.update(v);
        }
        for &v in &samples[3..] {
            right.update(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn reservoir_small_stream_keeps_everything() {
        let mut r = Reservoir::new(100);
        for v in [5.0, 1.0, 9.0, 3.0] {
            r.update(v);
        }
        assert_eq!(r.seen(), 4);
        assert_eq!(r.quantile(0.0), Some(1.0));
        assert_eq!(r.quantile(1.0), Some(9.0));
        assert_eq!(r.median(), Some(3.0));
    }

    #[test]
    fn reservoir_quantiles_track_large_uniform_stream() {
        let mut r = Reservoir::new(1_000);
        for i in 0..100_000u64 {
            // A permuted uniform ramp over [0, 1000).
            r.update(((i * 7_919) % 100_000) as f64 / 100.0);
        }
        let p50 = r.quantile(0.5).unwrap();
        let p95 = r.quantile(0.95).unwrap();
        assert!((p50 - 500.0).abs() < 50.0, "p50 {p50}");
        assert!((p95 - 950.0).abs() < 30.0, "p95 {p95}");
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new(64);
            for i in 0..10_000u64 {
                r.update(i as f64);
            }
            r.quantile(0.9)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reservoir_empty_returns_none() {
        let r = Reservoir::new(8);
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.median(), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn reservoir_zero_capacity_panics() {
        let _ = Reservoir::new(0);
    }

    #[test]
    fn summary_merge_with_empty_sides() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.update(7.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 7.0);
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }
}
