//! Process-wide metrics: counters, gauges, and fixed-bucket histograms
//! behind a named registry.
//!
//! Instruments are plain atomics — incrementing a counter or recording
//! a histogram sample is a handful of `Relaxed` atomic ops, safe to
//! leave in per-observation hot paths. Name lookup takes the registry
//! lock, so hot callers should resolve their handle once (an
//! `OnceLock<Arc<Counter>>` next to the call site) and reuse it;
//! cold callers can just call [`counter`]/[`gauge`]/[`histogram`]
//! inline.
//!
//! [`snapshot`] copies every instrument's current value into a plain
//! [`Snapshot`], which renders to JSON for the run-log sink.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;

/// Monotone event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Instantaneous signed level (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Default histogram bounds for durations in seconds: 10 µs – 2 min,
/// roughly logarithmic. Fine enough to separate a per-item score from
/// a full retrain from a whole experiment cell.
pub const TIME_BUCKETS: [f64; 12] = [
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
];

/// Fixed-bucket histogram: one atomic count per bucket plus a running
/// sum and total count. Bounds are upper bounds, ascending; samples
/// above the last bound land in an implicit overflow bucket. NaN
/// samples are quarantined in [`Histogram::nan_count`] — they never
/// reach a bucket or the sum, so `sum` stays finite no matter what a
/// broken producer records.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    nan_count: AtomicU64,
    /// Sum of samples, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            nan_count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    pub fn record(&self, v: f64) {
        if v.is_nan() {
            // NaN compares false against every bound, so without this
            // guard it would land in the overflow bucket and — worse —
            // poison `sum` permanently through the CAS loop below.
            self.nan_count.fetch_add(1, Relaxed);
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Finite samples recorded (NaNs excluded).
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// NaN samples rejected by [`Histogram::record`].
    pub fn nan_count(&self) -> u64 {
        self.nan_count.load(Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Relaxed))
    }

    /// `(upper_bound, count)` per bucket; the final entry is the
    /// overflow bucket with bound `+∞`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.buckets.iter().map(|b| b.load(Relaxed)))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the bucket holding the target rank —
    /// the Prometheus `histogram_quantile` scheme. The first bucket
    /// interpolates from 0; a target in the overflow bucket returns
    /// the last finite bound (the histogram cannot see further).
    /// `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.buckets(), self.count(), q)
    }
}

/// Quantile estimation over `(upper_bound, count)` buckets; shared by
/// live [`Histogram`]s and [`MetricValue::Histogram`] snapshots.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], count: u64, q: f64) -> Option<f64> {
    if count == 0 || buckets.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let target = q * count as f64;
    let mut cumulative = 0u64;
    let mut lower = 0.0f64;
    for (i, &(le, n)) in buckets.iter().enumerate() {
        let reached = cumulative + n;
        if reached as f64 >= target {
            if le.is_infinite() {
                // Overflow bucket: report the largest finite bound.
                return Some(lower);
            }
            if n == 0 {
                return Some(le);
            }
            let into = (target - cumulative as f64) / n as f64;
            let base = if i == 0 { 0.0 } else { lower };
            return Some(base + (le - base) * into.clamp(0.0, 1.0));
        }
        cumulative = reached;
        if le.is_finite() {
            lower = le;
        }
    }
    Some(lower)
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time copy of one instrument's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        count: u64,
        nan_count: u64,
        sum: f64,
        buckets: Vec<(f64, u64)>,
    },
}

impl MetricValue {
    /// Quantile estimate for histogram values, `None` otherwise.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            MetricValue::Histogram { count, buckets, .. } => {
                quantile_from_buckets(buckets, *count, q)
            }
            _ => None,
        }
    }
}

/// A point-in-time copy of a whole registry, in name order.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub entries: Vec<(&'static str, MetricValue)>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Convenience for tests and reports: the value of a counter, or
    /// `None` if absent / not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the snapshot as one JSON object keyed by metric name
    /// (counters/gauges as numbers, histograms as
    /// `{count, nan_count, sum, p50, p95, p99, buckets: [{le, count}]}`
    /// — quantiles pre-computed here so readers never re-derive them
    /// from raw buckets; they render as `null`
    /// on an empty histogram).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, value) in &self.entries {
            let v = match value {
                MetricValue::Counter(c) => Json::U64(*c),
                MetricValue::Gauge(g) => Json::I64(*g),
                MetricValue::Histogram {
                    count,
                    nan_count,
                    sum,
                    buckets,
                } => {
                    let bucket_objs: Vec<Json> = buckets
                        .iter()
                        .map(|&(le, n)| Json::obj().field("le", le).field("count", n))
                        .collect();
                    let quantile = |q: f64| -> Json {
                        quantile_from_buckets(buckets, *count, q).map_or(Json::Null, Json::F64)
                    };
                    Json::obj()
                        .field("count", *count)
                        .field("nan_count", *nan_count)
                        .field("sum", *sum)
                        .field("p50", quantile(0.50))
                        .field("p95", quantile(0.95))
                        .field("p99", quantile(0.99))
                        .field("buckets", Json::Arr(bucket_objs))
                }
            };
            obj = obj.field(name, v);
        }
        obj
    }
}

/// A named set of instruments. Most code uses the process-wide
/// [`global`] registry through the free functions below; tests build
/// private registries to assert in isolation.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<&'static str, Instrument>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name`, registering it on first use.
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is registered as a non-counter"),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is registered as a non-gauge"),
        }
    }

    /// Returns the histogram `name`, registering it with `bounds` on
    /// first use (later callers inherit the first registration's
    /// bounds).
    pub fn histogram(&self, name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is registered as a non-histogram"),
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            entries: inner
                .iter()
                .map(|(&name, inst)| {
                    let value = match inst {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram {
                            count: h.count(),
                            nan_count: h.nan_count(),
                            sum: h.sum(),
                            buckets: h.buckets(),
                        },
                    };
                    (name, value)
                })
                .collect(),
        }
    }
}

/// The process-wide registry every crate in the workspace records into.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the [`global`] registry.
pub fn counter(name: &'static str) -> Arc<Counter> {
    global().counter(name)
}

/// [`Registry::gauge`] on the [`global`] registry.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    global().gauge(name)
}

/// [`Registry::histogram`] on the [`global`] registry.
pub fn histogram(name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// [`Registry::snapshot`] of the [`global`] registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("jobs");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same instrument.
        assert_eq!(reg.counter("jobs").get(), 5);

        let g = reg.gauge("depth");
        g.add(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[0.1, 1.0]);
        for v in [0.05, 0.5, 0.5, 50.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 51.05).abs() < 1e-9);
        assert_eq!(
            h.buckets().iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec![1, 2, 1]
        );
    }

    #[test]
    fn snapshot_copies_current_values() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.gauge("b").set(9);
        reg.histogram("c", &TIME_BUCKETS).record(0.2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.get("b"), Some(&MetricValue::Gauge(9)));
        match snap.get("c") {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(*count, 1),
            other => panic!("unexpected {other:?}"),
        }
        // BTreeMap backing: snapshot entries come out name-ordered.
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        // Mutating after the snapshot does not retroactively change it.
        reg.counter("a").inc();
        assert_eq!(snap.counter("a"), Some(3));
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn nan_samples_are_quarantined_not_summed() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[0.1, 1.0]);
        h.record(0.5);
        h.record(f64::NAN);
        h.record(0.5);
        // Regression: NaN used to land in the overflow bucket and turn
        // `sum` into NaN forever via the CAS loop.
        assert_eq!(h.count(), 2);
        assert_eq!(h.nan_count(), 1);
        assert!(h.sum().is_finite());
        assert!((h.sum() - 1.0).abs() < 1e-12);
        assert_eq!(
            h.buckets().iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec![0, 2, 0],
            "NaN must not occupy any bucket"
        );
        match reg.snapshot().get("lat") {
            Some(MetricValue::Histogram {
                count, nan_count, ..
            }) => {
                assert_eq!((*count, *nan_count), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 10 samples in (1, 2]: the whole distribution lives in bucket 2.
        for _ in 0..10 {
            h.record(1.5);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (1.0..=2.0).contains(&p50),
            "p50 {p50} must interpolate inside its bucket"
        );
        assert!((p50 - 1.5).abs() < 0.51); // midpoint of [1, 2]
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 2.0 && p99 >= p50);

        // Overflow-bucket mass clamps to the last finite bound.
        let o = reg.histogram("over", &[1.0]);
        o.record(100.0);
        assert_eq!(o.quantile(0.5), Some(1.0));

        // Snapshot JSON carries the pre-computed quantiles.
        let snap = reg.snapshot();
        let doc = snap.to_json();
        let lat = doc.get("lat").unwrap();
        let json_p50 = lat.get("p50").and_then(Json::as_f64).unwrap();
        assert!((json_p50 - p50).abs() < 1e-12);
        assert!(lat.get("p95").and_then(Json::as_f64).is_some());
        assert!(lat.get("p99").and_then(Json::as_f64).is_some());
        assert_eq!(lat.get("nan_count").and_then(Json::as_u64), Some(0));
        assert_eq!(snap.get("lat").unwrap().quantile(0.5), Some(p50));
    }

    /// Pinned: a quantile target landing in the overflow bucket
    /// reports the largest *finite* bound — the histogram cannot see
    /// further, and `+Inf` (or interpolation toward it) would be a
    /// lie. Both the live instrument and the shared bucket math agree.
    #[test]
    fn quantile_in_overflow_bucket_is_clamped_to_last_finite_bound() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0]);
        // All mass beyond the last finite bound.
        for v in [5.0, 9.0, 100.0] {
            h.record(v);
        }
        for q in [0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(2.0), "q={q}");
        }
        assert_eq!(
            quantile_from_buckets(&h.buckets(), h.count(), 0.5),
            Some(2.0)
        );

        // Mixed mass: only targets that actually land in the overflow
        // bucket clamp; finite-bucket targets still interpolate.
        let m = reg.histogram("mixed", &[1.0, 2.0]);
        for v in [0.5, 1.5, 50.0] {
            m.record(v);
        }
        assert_eq!(m.quantile(1.0), Some(2.0), "overflow target clamps");
        let p25 = m.quantile(0.25).unwrap();
        assert!(p25 < 1.0, "finite target still interpolates, got {p25}");
    }

    /// Pinned: quantile edge cases — `None` on empty histograms and
    /// out-of-range `q`, never a panic or a fabricated number.
    #[test]
    fn quantile_edge_cases_return_none() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.record(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(quantile_from_buckets(&[], 3, 0.5), None, "no buckets");
        assert_eq!(
            MetricValue::Counter(3).quantile(0.5),
            None,
            "non-histogram values have no quantiles"
        );
    }
}
