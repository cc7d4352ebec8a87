//! The metric registry: named, labeled metrics with single-pass
//! consistent snapshots.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex, dedups
//! on `(name, labels)`, and hands back a shared handle; after that the
//! hot path touches only the handle's atomics. Registering the same
//! name+labels twice returns a handle to the same underlying cell, so
//! independent subsystems can safely contribute to one metric.
//!
//! `snapshot()` walks the registry exactly once under the registration
//! lock (which only excludes *registration*, never recording) and reads
//! each atomic exactly once. Counters are monotone atomics, so a value
//! observed in one snapshot can never exceed the value the next
//! snapshot observes — successive snapshots never show a counter
//! decreasing, even while the swarm is running.

use crate::hist::{merge_sorted, Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Identity of one metric: a name plus sorted `label=value` pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Value of one label, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// A set of named metrics. See the module docs for the locking story.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create a counter. Call once per site and keep the handle.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(key).or_default().clone()
    }

    /// Get or create a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(key).or_default().clone()
    }

    /// Get or create a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.histograms.entry(key).or_default().clone()
    }

    /// Read every metric in one pass. Entries come out sorted by key,
    /// so two snapshots of the same registry are directly comparable.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Sum of the live counters with this name, across label sets —
    /// [`Snapshot::counter_total`] without the snapshot.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("registry poisoned");
        let named = inner.counters.range(MetricKey::new(name, &[])..);
        named
            .take_while(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Merge of the live histograms with this name, across label sets —
    /// [`Snapshot::histogram_total`] without the snapshot.
    #[must_use]
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = HistogramSnapshot::empty();
        let named = inner.histograms.range(MetricKey::new(name, &[])..);
        for (_, h) in named.take_while(|(k, _)| k.name == name) {
            out.merge(&h.snapshot());
        }
        out
    }

    /// Fold the current value of every metric into `rollup`, exactly as
    /// `rollup.merge_from(&self.snapshot())` would, without building
    /// the snapshot: one pass over the registry, a key cloned only when
    /// `rollup` has not seen it.
    pub fn merge_into(&self, rollup: &mut Snapshot) {
        let inner = self.inner.lock().expect("registry poisoned");
        merge_sorted(
            &mut rollup.counters,
            inner.counters.iter().map(|(k, c)| (k, c.get())),
            |a, b| *a = a.wrapping_add(b),
            |b| b,
        );
        merge_sorted(
            &mut rollup.gauges,
            inner.gauges.iter().map(|(k, g)| (k, g.get())),
            |a, b| *a += b,
            |b| b,
        );
        merge_sorted(
            &mut rollup.histograms,
            inner.histograms.iter(),
            |a, h| a.merge(&h.snapshot()),
            Histogram::snapshot,
        );
    }
}

/// One consistent view of a [`Registry`], sorted by metric key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(MetricKey, u64)>,
    pub gauges: Vec<(MetricKey, f64)>,
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of the counter with exactly these labels, or 0.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// Sum of all counters with this name, across label sets.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// All counters with this name, with their label sets.
    pub fn counters_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a MetricKey, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| k.name == name)
            .map(|(k, v)| (k, *v))
    }

    /// Value of the gauge with exactly these labels, if present.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// All gauges with this name, with their label sets.
    pub fn gauges_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a MetricKey, f64)> + 'a {
        self.gauges
            .iter()
            .filter(move |(k, _)| k.name == name)
            .map(|(k, v)| (k, *v))
    }

    /// The histogram with exactly these labels, if present.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// Merge another snapshot into this one — the cross-shard telemetry
    /// rollup of the federated simulator: each shard owns an isolated
    /// registry, and the federation sums them into one federated view.
    ///
    /// Semantics per metric kind, for keys present in both snapshots:
    /// counters add (wrapping, like the recording path's `fetch_add`),
    /// histograms merge exactly (the log-linear buckets are mergeable
    /// by construction, so quantiles of the merge equal quantiles of
    /// single-pass recording), and gauges *sum* — the federated reading
    /// of a level (queue depth, credits, alive workers) is the total
    /// across shards. Gauges that are identities rather than levels
    /// (e.g. the per-swarm deployment epoch) are only meaningful
    /// per-shard; read those from the per-shard snapshots instead.
    /// Keys unique to `other` are inserted. Sorted key order — and with
    /// it byte-identical JSON export — is preserved, so merging the
    /// same shard snapshots in the same order always yields the same
    /// document regardless of how many threads produced them. The two
    /// are walked in lock-step: shards that report the same series (the
    /// federation's case) merge in one pass with no key cloned.
    pub fn merge_from(&mut self, other: &Snapshot) {
        merge_sorted(
            &mut self.counters,
            other.counters.iter().map(|(k, v)| (k, *v)),
            |a, b| *a = a.wrapping_add(b),
            |b| b,
        );
        merge_sorted(
            &mut self.gauges,
            other.gauges.iter().map(|(k, v)| (k, *v)),
            |a, b| *a += b,
            |b| b,
        );
        merge_sorted(
            &mut self.histograms,
            other.histograms.iter().map(|(k, h)| (k, h)),
            |a, b| a.merge(b),
            HistogramSnapshot::clone,
        );
    }

    /// Merge of all histograms with this name across label sets.
    #[must_use]
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for (k, h) in &self.histograms {
            if k.name == name {
                out.merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reregistration_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("hits", &[("worker", "w0")]);
        let b = r.counter("hits", &[("worker", "w0")]);
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("hits", &[("worker", "w0")]), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.counter("x", &[("a", "1"), ("b", "2")]);
        let b = r.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn snapshot_reads_all_kinds() {
        let r = Registry::new();
        r.counter("c", &[]).add(3);
        r.gauge("g", &[("k", "v")]).set(1.5);
        let h = r.histogram("h", &[]);
        h.record(10);
        h.record(20);
        let s = r.snapshot();
        assert_eq!(s.counter("c", &[]), 3);
        assert_eq!(s.gauge("g", &[("k", "v")]), Some(1.5));
        let hs = s.histogram("h", &[]).unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum, 30);
    }

    #[test]
    fn counter_total_sums_across_labels() {
        let r = Registry::new();
        r.counter("sent", &[("unit", "1")]).add(2);
        r.counter("sent", &[("unit", "2")]).add(5);
        r.counter("other", &[]).add(100);
        assert_eq!(r.snapshot().counter_total("sent"), 7);
    }

    #[test]
    fn merge_from_sums_counters_and_gauges_and_merges_histograms() {
        let a = Registry::new();
        a.counter("sent", &[("swarm", "0")]).add(3);
        a.gauge("depth", &[]).set(2.0);
        a.histogram("lat", &[]).record(10);
        let b = Registry::new();
        b.counter("sent", &[("swarm", "0")]).add(4);
        b.counter("sent", &[("swarm", "1")]).add(5);
        b.gauge("depth", &[]).set(1.5);
        b.histogram("lat", &[]).record(30);

        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        assert_eq!(merged.counter("sent", &[("swarm", "0")]), 7);
        assert_eq!(merged.counter("sent", &[("swarm", "1")]), 5);
        assert_eq!(merged.counter_total("sent"), 12);
        assert_eq!(merged.gauge("depth", &[]), Some(3.5));
        let h = merged.histogram("lat", &[]).unwrap();
        assert_eq!((h.count, h.sum), (2, 40));
        // Keys stay sorted, so the merged export is deterministic.
        let mut sorted = merged.counters.clone();
        sorted.sort_by(|(x, _), (y, _)| x.cmp(y));
        assert_eq!(merged.counters, sorted);
    }

    #[test]
    fn merge_order_is_associative_over_shards() {
        let make = |n: u64| {
            let r = Registry::new();
            r.counter("c", &[]).add(n);
            r.histogram("h", &[]).record(n);
            r.snapshot()
        };
        let (s1, s2, s3) = (make(1), make(2), make(3));
        let mut left = s1.clone();
        left.merge_from(&s2);
        left.merge_from(&s3);
        let mut right = s2.clone();
        right.merge_from(&s3);
        let mut outer = s1;
        outer.merge_from(&right);
        assert_eq!(left, outer);
    }

    /// The merge this crate shipped before the lock-step one: a binary
    /// search of `into` per key of `from`. Kept as the reference.
    fn merge_from_by_search(into: &mut Snapshot, other: &Snapshot) {
        fn merge<V: Clone>(
            into: &mut Vec<(MetricKey, V)>,
            from: &[(MetricKey, V)],
            combine: impl Fn(&mut V, &V),
        ) {
            for (k, v) in from {
                match into.binary_search_by(|(ik, _)| ik.cmp(k)) {
                    Ok(i) => combine(&mut into[i].1, v),
                    Err(i) => into.insert(i, (k.clone(), v.clone())),
                }
            }
        }
        merge(&mut into.counters, &other.counters, |a, b| {
            *a = a.wrapping_add(*b);
        });
        merge(&mut into.gauges, &other.gauges, |a, b| *a += *b);
        merge(&mut into.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// A registry holding the series `ids` of each kind, with values
    /// that differ per series and per `salt`.
    fn registry_of(ids: &[u32], salt: u64) -> Registry {
        let r = Registry::new();
        for &id in ids {
            let unit = id.to_string();
            let labels: &[(&str, &str)] = &[("unit", &unit)];
            r.counter("c", labels).add(u64::from(id) + salt);
            r.gauge("g", labels).set(f64::from(id) * 0.1 + salt as f64);
            let h = r.histogram("h", labels);
            h.record(u64::from(id) * 37 + salt);
            h.record(salt << (id % 40));
        }
        // One series with no labels and one never-recorded histogram.
        r.counter("c", &[]).add(salt);
        let _ = r.histogram("idle", &[]);
        r
    }

    #[test]
    fn lock_step_merge_equals_the_binary_search_merge() {
        let cases: [(&str, &[u32], &[u32]); 6] = [
            ("equal", &[1, 2, 3, 10, 20], &[1, 2, 3, 10, 20]),
            ("subset", &[1, 2, 3, 10, 20], &[2, 10]),
            ("superset", &[2, 10], &[1, 2, 3, 10, 20]),
            ("disjoint", &[1, 3, 5], &[2, 4, 6]),
            ("interleaved", &[1, 4, 7, 30], &[0, 4, 5, 9, 30, 31]),
            ("into empty", &[], &[3, 1, 2]),
        ];
        for (name, ours, theirs) in cases {
            let (a, b) = (registry_of(ours, 1), registry_of(theirs, 1000));
            let mut want = a.snapshot();
            merge_from_by_search(&mut want, &b.snapshot());

            let mut merged = a.snapshot();
            merged.merge_from(&b.snapshot());
            assert_eq!(merged, want, "{name}: merge_from");

            // Folding the live registry is the same merge.
            let mut folded = a.snapshot();
            b.merge_into(&mut folded);
            assert_eq!(folded, want, "{name}: merge_into");
        }
        // From nothing, a fold is a snapshot.
        let r = registry_of(&[5, 6], 7);
        let mut folded = Snapshot::default();
        r.merge_into(&mut folded);
        assert_eq!(folded, r.snapshot());
    }

    #[test]
    fn an_unsorted_snapshot_still_merges_by_key() {
        // `from_json` keeps document order; a hand-edited document may
        // not be sorted.
        let mut other = registry_of(&[1, 2, 3], 5).snapshot();
        other.counters.reverse();
        other.histograms.swap(0, 2);
        let mut want = registry_of(&[2, 9], 1).snapshot();
        let mut merged = want.clone();
        merge_from_by_search(&mut want, &other);
        merged.merge_from(&other);
        assert_eq!(merged, want);
    }

    #[test]
    fn live_totals_match_the_snapshot_totals() {
        let r = registry_of(&[1, 2, 3, 40], 9);
        r.counter("c2", &[("unit", "1")]).add(1_000_000); // a neighbour in key order
        let snap = r.snapshot();
        for name in ["c", "c2", "absent"] {
            assert_eq!(r.counter_total(name), snap.counter_total(name), "{name}");
        }
        for name in ["h", "idle", "absent"] {
            assert_eq!(
                r.histogram_total(name),
                snap.histogram_total(name),
                "{name}"
            );
        }
    }

    #[test]
    fn key_display_is_prometheus_shaped() {
        let k = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(k.to_string(), "m{a=\"1\",b=\"2\"}");
        assert_eq!(MetricKey::new("m", &[]).to_string(), "m");
    }
}
