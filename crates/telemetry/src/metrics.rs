//! Process-wide metrics: the one named [`Registry`], and the cumulative
//! instruments (counters, gauges, fixed-bucket histograms) it holds
//! beside the windowed ones of [`crate::stream`].
//!
//! Instruments are plain atomics — incrementing a counter or recording
//! a histogram sample is a handful of `Relaxed` atomic ops, safe to
//! leave in per-observation hot paths. Name lookup takes the registry
//! lock, so hot callers should resolve their handle once (an
//! `OnceLock<Arc<Counter>>` next to the call site, as
//! [`span!`](crate::span) does) and reuse it; cold callers can just
//! call [`counter`]/[`gauge`]/[`histogram`] inline.
//!
//! [`snapshot`] copies every instrument's current value into a plain
//! [`Snapshot`], which renders as the `/metrics` JSON document (and
//! the run-log trailer) or, through [`crate::prom`], as Prometheus text.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::stream::{
    CounterFamily, CusumConfig, DriftDetector, DriftState, WindowSpec, WindowView, WindowedCounter,
    WindowedHistogram,
};

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
    WindowedCounter(Arc<WindowedCounter>),
    WindowedHistogram(Arc<WindowedHistogram>),
    Family(Arc<CounterFamily>),
    Detector(Arc<DriftDetector>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "Counter",
            Instrument::Gauge(_) => "Gauge",
            Instrument::Histogram(_) => "Histogram",
            Instrument::WindowedCounter(_) => "WindowedCounter",
            Instrument::WindowedHistogram(_) => "WindowedHistogram",
            Instrument::Family(_) => "Family",
            Instrument::Detector(_) => "Detector",
        }
    }

    fn value(&self, window_secs: Option<f64>) -> MetricValue {
        match self {
            Instrument::Counter(c) => MetricValue::Counter(c.get()),
            Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
            Instrument::Histogram(h) => MetricValue::Histogram {
                count: h.count(),
                nan_count: h.nan_count(),
                sum: h.sum(),
                buckets: h.buckets(),
            },
            Instrument::WindowedCounter(c) => MetricValue::WindowedCounter {
                view: window_secs.map_or_else(|| c.window(), |secs| c.window_secs(secs)),
                stale_records: c.stale_records(),
            },
            Instrument::WindowedHistogram(h) => MetricValue::WindowedHistogram {
                view: window_secs.map_or_else(|| h.window(), |secs| h.window_secs(secs)),
                nan_count: h.nan_count(),
                stale_records: h.stale_records(),
            },
            Instrument::Family(f) => MetricValue::Family {
                label_names: f.label_names(),
                series: f.series_snapshot(),
                overflow_events: f.overflow_events(),
            },
            Instrument::Detector(d) => MetricValue::Detector(d.state()),
        }
    }
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
    WindowedCounter {
        view: WindowView,
        stale_records: u64,
    },
    WindowedHistogram {
        view: WindowView,
        nan_count: u64,
        stale_records: u64,
    },
    /// `series` holds `(label_values, cumulative_total, window_view)`,
    /// sorted by label values.
    Family {
        label_names: &'static [&'static str],
        series: Vec<(Vec<String>, u64, WindowView)>,
        overflow_events: u64,
    },
    Detector(DriftState),
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

    /// Where the value renders: `0` for the cumulative kinds (top-level
    /// JSON keys), `1..=4` for the windowed kinds, in the order of the
    /// [`STREAM_SECTIONS`] under the JSON `"stream"` key. Exposition
    /// emits kinds in this order too.
    pub(crate) fn section(&self) -> usize {
        match self {
            MetricValue::Counter(_) | MetricValue::Gauge(_) | MetricValue::Histogram { .. } => 0,
            MetricValue::WindowedCounter { .. } => 1,
            MetricValue::WindowedHistogram { .. } => 2,
            MetricValue::Family { .. } => 3,
            MetricValue::Detector(_) => 4,
        }
    }

    fn to_json(&self) -> Json {
        match self {
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
            MetricValue::WindowedCounter {
                view,
                stale_records,
            } => Json::obj()
                .field("window_secs", view.window_secs)
                .field("count", view.count)
                .field("rate", view.rate())
                .field("stale_records", *stale_records),
            MetricValue::WindowedHistogram {
                view,
                nan_count,
                stale_records,
            } => {
                let mut obj = Json::obj()
                    .field("window_secs", view.window_secs)
                    .field("count", view.count)
                    .field("sum", view.sum)
                    .field("rate", view.rate())
                    .field("nan_count", *nan_count)
                    .field("stale_records", *stale_records);
                for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    if let Some(v) = view.quantile(q) {
                        obj = obj.field(label, v);
                    }
                }
                obj
            }
            MetricValue::Family {
                label_names,
                series,
                overflow_events,
            } => {
                let mut by_label = Json::obj();
                for (values, total, view) in series {
                    let label = label_names
                        .iter()
                        .zip(values)
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    by_label = by_label.field(
                        &label,
                        Json::obj()
                            .field("total", *total)
                            .field("rate", view.rate()),
                    );
                }
                Json::obj()
                    .field(
                        "labels",
                        Json::Arr(label_names.iter().map(|&l| Json::from(l)).collect()),
                    )
                    .field("series", by_label)
                    .field("overflow_events", *overflow_events)
            }
            MetricValue::Detector(state) => Json::obj()
                .field("observations", state.observations)
                .field("mean", state.mean)
                .field("dev", state.dev)
                .field("s_pos", state.s_pos)
                .field("s_neg", state.s_neg)
                .field("alarms", state.alarms)
                .field("drifted", state.drifted),
        }
    }
}

/// The keys under the JSON `"stream"` object, indexed by
/// [`MetricValue::section`] minus one.
const STREAM_SECTIONS: [&str; 4] = ["counters", "histograms", "families", "detectors"];

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

    /// Renders the snapshot as the one JSON document `GET /metrics`
    /// serves and run logs end with. Cumulative instruments are
    /// top-level keys: counters and gauges as numbers, histograms as
    /// `{count, nan_count, sum, p50, p95, p99, buckets: [{le, count}]}`
    /// (quantiles pre-computed so readers never re-derive them; `null`
    /// on an empty histogram). The windowed instruments follow under
    /// `"stream"`, grouped by kind into `counters`, `histograms`,
    /// `families` and `detectors`.
    pub fn to_json(&self) -> Json {
        let mut root = Vec::new();
        let mut stream: [Vec<(String, Json)>; 4] = Default::default();
        for (name, value) in &self.entries {
            let section = match value.section() {
                0 => &mut root,
                s => &mut stream[s - 1],
            };
            section.push((name.to_string(), value.to_json()));
        }
        let stream = STREAM_SECTIONS
            .iter()
            .zip(stream)
            .map(|(key, section)| (key.to_string(), Json::Obj(section)))
            .collect();
        root.push(("stream".to_string(), Json::Obj(stream)));
        Json::Obj(root)
    }
}

/// A named set of instruments of every kind, one name per instrument.
/// Most code uses the process-wide [`global`] registry through the
/// free functions below and in [`crate::stream`]; tests build private
/// registries to assert in isolation.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<&'static str, Instrument>>,
}

/// The one fetch-or-insert path: returns the instrument `$name` of
/// kind `$variant`, registering `$make` on first use. Re-fetching a
/// name as a different kind panics (a code bug).
macro_rules! fetch_or_insert {
    ($self:ident, $name:ident, $variant:ident, $make:expr) => {{
        let mut inner = $self.inner.lock().unwrap();
        match inner
            .entry($name)
            .or_insert_with(|| Instrument::$variant(Arc::new($make)))
        {
            Instrument::$variant(x) => Arc::clone(x),
            other => panic!(
                "metric `{}` is already registered as a {}, requested a {}",
                $name,
                other.kind(),
                stringify!($variant)
            ),
        }
    }};
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        fetch_or_insert!(self, name, Counter, Counter::default())
    }

    /// Returns the gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        fetch_or_insert!(self, name, Gauge, Gauge::default())
    }

    /// Returns the histogram `name`, registering it with `bounds` on
    /// first use (later callers inherit the first registration's
    /// bounds).
    pub fn histogram(&self, name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
        fetch_or_insert!(self, name, Histogram, Histogram::new(bounds))
    }

    pub fn windowed_counter(&self, name: &'static str, spec: WindowSpec) -> Arc<WindowedCounter> {
        fetch_or_insert!(self, name, WindowedCounter, WindowedCounter::new(spec))
    }

    pub fn windowed_histogram(
        &self,
        name: &'static str,
        spec: WindowSpec,
        bounds: &[f64],
    ) -> Arc<WindowedHistogram> {
        fetch_or_insert!(
            self,
            name,
            WindowedHistogram,
            WindowedHistogram::new(spec, bounds)
        )
    }

    pub fn counter_family(
        &self,
        name: &'static str,
        label_names: &'static [&'static str],
        spec: WindowSpec,
        cap: usize,
    ) -> Arc<CounterFamily> {
        fetch_or_insert!(
            self,
            name,
            Family,
            CounterFamily::new(name, label_names, spec, cap)
        )
    }

    pub fn detector(&self, name: &'static str, cfg: CusumConfig) -> Arc<DriftDetector> {
        fetch_or_insert!(self, name, Detector, DriftDetector::new(cfg))
    }

    /// Copies every instrument's current value, in name order.
    /// `window_secs` trims the windowed views to the most recent
    /// `ceil(secs / bucket)` buckets (clamped to the ring size); `None`
    /// uses each instrument's full window.
    pub fn snapshot(&self, window_secs: Option<f64>) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            entries: inner
                .iter()
                .map(|(&name, inst)| (name, inst.value(window_secs)))
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
pub fn snapshot(window_secs: Option<f64>) -> Snapshot {
    global().snapshot(window_secs)
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
        let snap = reg.snapshot(None);
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
    #[should_panic(expected = "already registered as a Gauge, requested a Counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    /// One name space across cumulative and windowed kinds: a name
    /// taken by a counter cannot come back as a windowed counter.
    #[test]
    #[should_panic(expected = "already registered as a Counter, requested a WindowedCounter")]
    fn cumulative_and_windowed_kinds_share_one_name_space() {
        let reg = Registry::new();
        reg.counter("x");
        reg.windowed_counter("x", crate::stream::DEFAULT_WINDOW);
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
        match reg.snapshot(None).get("lat") {
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
        let snap = reg.snapshot(None);
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
