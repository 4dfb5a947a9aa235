//! Streaming observability plane: sliding-window instruments, CUSUM
//! drift detectors, and labeled metric families.
//!
//! The cumulative instruments in [`crate::metrics`] answer "how much
//! since process start"; these answer "what is happening *right now*".
//! Both kinds live in the one [`crate::metrics::Registry`] under one
//! name space, and the free functions below register into its
//! [`global`] instance. A windowed record takes its ring's mutex for a
//! few integer adds and never allocates; a [`CounterFamily`] record
//! also builds its label key. They are gated by the plane's own kill
//! switch, [`set_enabled`].
//!
//! # Window mechanics
//!
//! A windowed instrument owns a fixed ring of `buckets` slots, each
//! covering `bucket_millis` of wall time. Sample time is quantised to a
//! *bucket index* `idx = elapsed_millis / bucket_millis` (monotonic,
//! process-epoch based), and a sample for index `idx` lands in slot
//! `idx % buckets`. A slot is *rotated* (zeroed and re-tagged) the first
//! time a sample for a newer index claims it; there is no background
//! ticker thread.
//!
//! The whole ring sits behind one mutex: a record locks it, finds its
//! slot, rotates the slot if it still holds an older index, and adds.
//! A record whose slot already holds a *newer* index is late (its
//! bucket rotated out of the ring) and is dropped, counted in `stale`.
//! So every record either commits whole or is rejected, and a read
//! (`WindowView`) sums the slots whose index lies inside the requested
//! window under the same lock.
//!
//! # Cardinality
//!
//! [`CounterFamily`] caps the number of live label sets (default
//! [`DEFAULT_FAMILY_CAP`]). Past the cap, records are folded into a
//! reserved `__overflow__` series and counted in `overflow_events`, so
//! a label leak degrades into one visible, typed bucket instead of an
//! unbounded map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::metrics::{global, quantile_from_buckets};

/// Default label-set cap for [`CounterFamily`].
pub const DEFAULT_FAMILY_CAP: usize = 64;

/// Label value recorded for series folded past the cardinality cap.
pub const OVERFLOW_LABEL: &str = "__overflow__";

/// Global kill switch for the streaming plane. When disabled, record
/// paths return immediately (used to measure plane overhead in bench).
static STREAM_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable every stream record path process-wide.
pub fn set_enabled(on: bool) {
    STREAM_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the streaming plane is currently recording.
pub fn enabled() -> bool {
    STREAM_ENABLED.load(Ordering::Relaxed)
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Milliseconds since the process epoch (first use of this module).
pub fn now_millis() -> u64 {
    process_epoch().elapsed().as_millis() as u64
}

/// Shape of a sliding window: `buckets` ring slots of `bucket_millis`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    pub bucket_millis: u64,
    pub buckets: usize,
}

impl WindowSpec {
    pub const fn new(bucket_millis: u64, buckets: usize) -> Self {
        Self {
            bucket_millis,
            buckets,
        }
    }

    fn bucket_index(&self, millis: u64) -> u64 {
        millis / self.bucket_millis.max(1)
    }
}

/// 60 one-second buckets: quantiles/rates over the last minute.
pub const DEFAULT_WINDOW: WindowSpec = WindowSpec::new(1000, 60);

/// One ring slot: the bucket index that owns it (`None` until first
/// used) and its counters (count, sum, and one cell per histogram
/// bound; counters-only instruments use none).
struct Slot {
    idx: Option<u64>,
    count: u64,
    sum: f64,
    cells: Vec<u64>,
}

/// Fixed ring of slots shared by windowed counters and histograms.
struct Ring {
    spec: WindowSpec,
    slots: Mutex<Vec<Slot>>,
    /// Records that arrived for a bucket index already rotated out.
    stale: AtomicU64,
}

impl Ring {
    fn new(spec: WindowSpec, cells: usize) -> Self {
        let slots = (0..spec.buckets.max(1))
            .map(|_| Slot {
                idx: None,
                count: 0,
                sum: 0.0,
                cells: vec![0; cells],
            })
            .collect();
        Self {
            spec,
            slots: Mutex::new(slots),
            stale: AtomicU64::new(0),
        }
    }

    /// Runs `add` on the slot for bucket index `idx`, rotating the slot
    /// first if it still holds an older bucket. Returns `false`, and
    /// counts the record stale, if a newer bucket owns the slot.
    fn record(&self, idx: u64, add: impl FnOnce(&mut Slot)) -> bool {
        let mut slots = self.slots.lock().unwrap();
        let n = slots.len() as u64;
        let slot = &mut slots[(idx % n) as usize];
        match slot.idx {
            Some(owner) if owner > idx => {
                // Our sample is older than the whole ring. Drop it,
                // visibly.
                self.stale.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Some(owner) if owner == idx => {}
            _ => {
                slot.idx = Some(idx);
                slot.count = 0;
                slot.sum = 0.0;
                slot.cells.fill(0);
            }
        }
        add(slot);
        true
    }

    /// Visit every slot that holds a bucket index in
    /// `[from_idx, to_idx]`.
    fn visit_window(&self, from_idx: u64, to_idx: u64, mut f: impl FnMut(&Slot)) {
        for slot in self.slots.lock().unwrap().iter() {
            if slot.idx.is_some_and(|idx| idx >= from_idx && idx <= to_idx) {
                f(slot);
            }
        }
    }

    fn stale_records(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }
}

/// Read-side snapshot of a window: totals plus (for histograms) the
/// merged per-bound bucket counts, in the same `(upper_bound, count)`
/// shape [`crate::metrics::Histogram`] exposes — so windowed quantiles
/// go through the exact same [`quantile_from_buckets`] math as the
/// cumulative layer (and as any offline replay of the same samples).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowView {
    /// Seconds actually covered by the view (window span).
    pub window_secs: f64,
    pub count: u64,
    pub sum: f64,
    /// `(upper_bound, count)` per bound; empty for plain counters.
    pub buckets: Vec<(f64, u64)>,
}

impl WindowView {
    /// Events per second over the window span.
    pub fn rate(&self) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        self.count as f64 / self.window_secs
    }

    /// Windowed quantile (same estimator as the cumulative histogram).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.buckets, self.count, q)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Sliding-window event counter (rates over the last N seconds).
pub struct WindowedCounter {
    ring: Ring,
}

impl WindowedCounter {
    pub fn new(spec: WindowSpec) -> Self {
        Self {
            ring: Ring::new(spec, 0),
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.ring.spec
    }

    /// Count `n` events now. Returns `false` if the sample was dropped
    /// (plane disabled, or the bucket already rotated out).
    pub fn add(&self, n: u64) -> bool {
        if !enabled() {
            return false;
        }
        self.add_at(self.ring.spec.bucket_index(now_millis()), n)
    }

    /// Deterministic hook: count `n` events in explicit bucket `idx`.
    #[doc(hidden)]
    pub fn add_at(&self, idx: u64, n: u64) -> bool {
        self.ring.record(idx, |slot| slot.count += n)
    }

    pub fn window(&self) -> WindowView {
        self.window_at(self.ring.spec.bucket_index(now_millis()))
    }

    /// View narrowed to roughly the last `secs` seconds (clamped to
    /// one bucket .. the full ring).
    pub fn window_secs(&self, secs: f64) -> WindowView {
        let spec = self.ring.spec;
        let to_idx = spec.bucket_index(now_millis());
        let span = narrowed_span(spec, secs);
        self.window_span(to_idx, span)
    }

    /// Deterministic hook: view the full window ending at bucket `idx`.
    #[doc(hidden)]
    pub fn window_at(&self, to_idx: u64) -> WindowView {
        self.window_span(to_idx, self.ring.spec.buckets)
    }

    fn window_span(&self, to_idx: u64, span: usize) -> WindowView {
        let spec = self.ring.spec;
        let from = to_idx.saturating_sub(span.saturating_sub(1) as u64);
        let mut count = 0u64;
        self.ring.visit_window(from, to_idx, |slot| {
            count += slot.count;
        });
        WindowView {
            window_secs: (spec.bucket_millis as f64 / 1000.0) * span as f64,
            count,
            sum: count as f64,
            buckets: Vec::new(),
        }
    }

    pub fn stale_records(&self) -> u64 {
        self.ring.stale_records()
    }
}

/// Bucket span covering roughly `secs` seconds, clamped to the ring.
fn narrowed_span(spec: WindowSpec, secs: f64) -> usize {
    ((secs * 1000.0 / spec.bucket_millis.max(1) as f64).ceil() as usize).clamp(1, spec.buckets)
}

/// Sliding-window histogram: per-slot bound counts merged at read time.
///
/// Bounds are fixed ascending upper bounds, same contract as the
/// cumulative [`crate::metrics::Histogram`]. NaN samples are quarantined
/// in `nan_count` rather than recorded.
pub struct WindowedHistogram {
    bounds: Vec<f64>,
    ring: Ring,
    nan_count: AtomicU64,
}

impl WindowedHistogram {
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending (same contract as the cumulative histogram).
    pub fn new(spec: WindowSpec, bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "windowed histogram needs at least one bound"
        );
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        // One cell per finite bound plus the +Inf overflow cell.
        Self {
            bounds: bounds.to_vec(),
            ring: Ring::new(spec, bounds.len() + 1),
            nan_count: AtomicU64::new(0),
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.ring.spec
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one sample now. Returns `false` if dropped (plane
    /// disabled, NaN, or bucket rotated out).
    pub fn record(&self, value: f64) -> bool {
        if !enabled() {
            return false;
        }
        self.record_at(self.ring.spec.bucket_index(now_millis()), value)
    }

    /// Deterministic hook: record in explicit bucket `idx`.
    #[doc(hidden)]
    pub fn record_at(&self, idx: u64, value: f64) -> bool {
        if value.is_nan() {
            self.nan_count.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let cell = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.ring.record(idx, |slot| {
            slot.cells[cell] += 1;
            slot.count += 1;
            slot.sum += value;
        })
    }

    pub fn window(&self) -> WindowView {
        self.window_at(self.ring.spec.bucket_index(now_millis()))
    }

    /// View narrowed to roughly the last `secs` seconds (clamped to
    /// one bucket .. the full ring).
    pub fn window_secs(&self, secs: f64) -> WindowView {
        let spec = self.ring.spec;
        let to_idx = spec.bucket_index(now_millis());
        self.window_span(to_idx, narrowed_span(spec, secs))
    }

    /// Deterministic hook: view the full window ending at bucket `idx`.
    #[doc(hidden)]
    pub fn window_at(&self, to_idx: u64) -> WindowView {
        self.window_span(to_idx, self.ring.spec.buckets)
    }

    fn window_span(&self, to_idx: u64, span: usize) -> WindowView {
        let spec = self.ring.spec;
        let from = to_idx.saturating_sub(span.saturating_sub(1) as u64);
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut merged = vec![0u64; self.bounds.len() + 1];
        self.ring.visit_window(from, to_idx, |slot| {
            count += slot.count;
            sum += slot.sum;
            for (m, c) in merged.iter_mut().zip(&slot.cells) {
                *m += c;
            }
        });
        let mut buckets: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .copied()
            .zip(merged.iter().copied())
            .collect();
        buckets.push((f64::INFINITY, merged[self.bounds.len()]));
        WindowView {
            window_secs: (spec.bucket_millis as f64 / 1000.0) * span as f64,
            count,
            sum,
            buckets,
        }
    }

    pub fn nan_count(&self) -> u64 {
        self.nan_count.load(Ordering::Relaxed)
    }

    pub fn stale_records(&self) -> u64 {
        self.ring.stale_records()
    }
}

/// CUSUM drift-detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct CusumConfig {
    /// Slack in standard deviations: deviations below `k` don't
    /// accumulate (filters noise).
    pub k: f64,
    /// Alarm threshold on the cumulative sum, in standard deviations.
    pub h: f64,
    /// EWMA factor for the running mean/variance reference.
    pub alpha: f64,
    /// Observations consumed calibrating the reference before the
    /// cumulative sums start accumulating.
    pub warmup: u64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        Self {
            k: 0.5,
            h: 8.0,
            alpha: 0.05,
            warmup: 32,
        }
    }
}

/// Deterministic two-sided CUSUM over a scalar stream: the one CUSUM
/// state machine in the workspace. It is plain data with no lock and
/// no enable switch, so a caller whose decisions must not depend on
/// the metrics toggle (the defense's adaptive ladder) owns one
/// directly and serializes its six state fields, while
/// [`DriftDetector`] puts one behind a mutex for the metrics plane.
///
/// The reference distribution is tracked with EWMA mean/variance
/// (West's update): `mean += a·δ`, `var = (1−a)·(var + a·δ²)` where
/// `δ = x − mean_old`. Each observation is standardised against the
/// reference, `z = δ / dev`, and fed into the classic two-sided
/// cumulative sums `s⁺ = max(0, s⁺ + z − k)`, `s⁻ = max(0, s⁻ − z − k)`.
/// Crossing `h` raises an alarm and resets both sums. During warmup
/// only the reference calibrates.
#[derive(Clone, Debug)]
pub struct Cusum {
    cfg: CusumConfig,
    /// Observations consumed (NaNs excluded).
    pub n: u64,
    /// EWMA reference mean.
    pub mean: f64,
    /// EWMA reference variance.
    pub var: f64,
    pub s_pos: f64,
    pub s_neg: f64,
    /// Alarms raised so far.
    pub alarms: u64,
}

impl Cusum {
    pub fn new(cfg: CusumConfig) -> Self {
        assert!(cfg.k >= 0.0 && cfg.h > 0.0, "CUSUM needs k >= 0 and h > 0");
        assert!(
            cfg.alpha > 0.0 && cfg.alpha <= 1.0,
            "CUSUM alpha must be in (0, 1]"
        );
        Self {
            cfg,
            n: 0,
            mean: 0.0,
            var: 0.0,
            s_pos: 0.0,
            s_neg: 0.0,
            alarms: 0,
        }
    }

    /// Feed one observation. Returns `true` iff this observation raised
    /// an alarm. NaN observations are ignored.
    pub fn observe(&mut self, x: f64) -> bool {
        if x.is_nan() {
            return false;
        }
        self.n += 1;
        if self.n == 1 {
            self.mean = x;
            self.var = 0.0;
            return false;
        }
        let a = self.cfg.alpha;
        let delta = x - self.mean;
        self.mean += a * delta;
        self.var = (1.0 - a) * (self.var + a * delta * delta);
        if self.n <= self.cfg.warmup {
            return false;
        }
        let dev = self.var.sqrt().max(1e-12);
        let z = delta / dev;
        self.s_pos = (self.s_pos + z - self.cfg.k).max(0.0);
        self.s_neg = (self.s_neg - z - self.cfg.k).max(0.0);
        if self.s_pos > self.cfg.h || self.s_neg > self.cfg.h {
            self.s_pos = 0.0;
            self.s_neg = 0.0;
            self.alarms += 1;
            true
        } else {
            false
        }
    }

    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

impl Default for Cusum {
    fn default() -> Self {
        Self::new(CusumConfig::default())
    }
}

/// Published detector state, all fields exported as metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftState {
    pub observations: u64,
    pub mean: f64,
    /// Standard deviation of the EWMA reference.
    pub dev: f64,
    pub s_pos: f64,
    pub s_neg: f64,
    pub alarms: u64,
    /// True if an alarm fired within the last `warmup` observations.
    pub drifted: bool,
}

/// The metrics plane's drift detector: one [`Cusum`] behind a mutex,
/// gated by the stream plane's [`enabled`] switch (a disabled plane
/// observes nothing), plus the observation ordinal of the last alarm,
/// which only [`DriftState::drifted`] reads.
pub struct DriftDetector {
    state: Mutex<(Cusum, u64)>,
}

impl DriftDetector {
    pub fn new(cfg: CusumConfig) -> Self {
        Self {
            state: Mutex::new((Cusum::new(cfg), 0)),
        }
    }

    /// Feed one observation. Returns `true` iff this observation raised
    /// an alarm. NaN observations, and every observation while the
    /// plane is disabled, are ignored.
    pub fn observe(&self, x: f64) -> bool {
        if !enabled() {
            return false;
        }
        let (cusum, last_alarm) = &mut *self.state.lock().unwrap();
        let alarm = cusum.observe(x);
        if alarm {
            *last_alarm = cusum.n;
        }
        alarm
    }

    pub fn state(&self) -> DriftState {
        let (st, last_alarm) = &*self.state.lock().unwrap();
        DriftState {
            observations: st.n,
            mean: st.mean,
            dev: st.var.sqrt(),
            s_pos: st.s_pos,
            s_neg: st.s_neg,
            alarms: st.alarms,
            drifted: st.alarms > 0 && st.n - last_alarm < st.cfg.warmup.max(1),
        }
    }
}

/// One series of a [`CounterFamily`]: a cumulative total plus a
/// windowed counter for rates.
pub struct LabeledSeries {
    total: AtomicU64,
    windowed: WindowedCounter,
}

impl LabeledSeries {
    fn new(spec: WindowSpec) -> Self {
        Self {
            total: AtomicU64::new(0),
            windowed: WindowedCounter::new(spec),
        }
    }

    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn window(&self) -> WindowView {
        self.windowed.window()
    }
}

/// Labeled counter family with a hard cardinality cap.
///
/// `label_names` is fixed at registration; every `add` supplies exactly
/// that many values. Once `cap` distinct label sets exist, further new
/// sets fold into a single reserved series whose values are all
/// [`OVERFLOW_LABEL`], and each folded event bumps `overflow_events`.
pub struct CounterFamily {
    name: &'static str,
    label_names: &'static [&'static str],
    spec: WindowSpec,
    cap: usize,
    series: RwLock<BTreeMap<Vec<String>, Arc<LabeledSeries>>>,
    overflow_events: AtomicU64,
}

impl CounterFamily {
    pub fn new(
        name: &'static str,
        label_names: &'static [&'static str],
        spec: WindowSpec,
        cap: usize,
    ) -> Self {
        assert!(!label_names.is_empty(), "a family needs at least one label");
        assert!(cap >= 1, "family cap must be at least 1");
        Self {
            name,
            label_names,
            spec,
            cap,
            series: RwLock::new(BTreeMap::new()),
            overflow_events: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn label_names(&self) -> &'static [&'static str] {
        self.label_names
    }

    /// Count `n` events against the series for `values`.
    ///
    /// Panics if `values.len() != label_names.len()` — a code bug, same
    /// contract as the registry's kind-mismatch panic.
    pub fn add(&self, values: &[&str], n: u64) {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "family {}: got {} label values, expected {}",
            self.name,
            values.len(),
            self.label_names.len()
        );
        if !enabled() {
            return;
        }
        let series = self.series_for(values);
        series.total.fetch_add(n, Ordering::Relaxed);
        series.windowed.add(n);
    }

    fn series_for(&self, values: &[&str]) -> Arc<LabeledSeries> {
        // A `Vec<String>`-keyed map cannot be probed with `&[&str]`, so
        // every call builds an owned key, hit or miss.
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        if let Some(s) = self.series.read().unwrap().get(&key) {
            return Arc::clone(s);
        }
        let mut map = self.series.write().unwrap();
        if let Some(s) = map.get(&key) {
            return Arc::clone(s);
        }
        if map.len() >= self.cap {
            self.overflow_events.fetch_add(1, Ordering::Relaxed);
            let overflow_key: Vec<String> = self
                .label_names
                .iter()
                .map(|_| OVERFLOW_LABEL.to_string())
                .collect();
            if let Some(s) = map.get(&overflow_key) {
                return Arc::clone(s);
            }
            let s = Arc::new(LabeledSeries::new(self.spec));
            map.insert(overflow_key, Arc::clone(&s));
            return s;
        }
        let s = Arc::new(LabeledSeries::new(self.spec));
        map.insert(key, Arc::clone(&s));
        s
    }

    /// Events folded into the overflow series because the cap was hit.
    pub fn overflow_events(&self) -> u64 {
        self.overflow_events.load(Ordering::Relaxed)
    }

    /// Snapshot every live series: `(label_values, cumulative_total,
    /// window_view)`, sorted by label values.
    pub fn series_snapshot(&self) -> Vec<(Vec<String>, u64, WindowView)> {
        let map = self.series.read().unwrap();
        map.iter()
            .map(|(k, s)| (k.clone(), s.total(), s.window()))
            .collect()
    }
}

/// Fetch/register a windowed counter in the [`global`] registry
/// (default one-minute window).
pub fn windowed_counter(name: &'static str) -> Arc<WindowedCounter> {
    global().windowed_counter(name, DEFAULT_WINDOW)
}

/// Fetch/register a windowed histogram in the [`global`] registry.
pub fn windowed_histogram(name: &'static str, bounds: &[f64]) -> Arc<WindowedHistogram> {
    global().windowed_histogram(name, DEFAULT_WINDOW, bounds)
}

/// Fetch/register a labeled counter family (default cap).
pub fn counter_family(
    name: &'static str,
    label_names: &'static [&'static str],
) -> Arc<CounterFamily> {
    global().counter_family(name, label_names, DEFAULT_WINDOW, DEFAULT_FAMILY_CAP)
}

/// Fetch/register a labeled counter family with an explicit cap.
pub fn counter_family_with_cap(
    name: &'static str,
    label_names: &'static [&'static str],
    cap: usize,
) -> Arc<CounterFamily> {
    global().counter_family(name, label_names, DEFAULT_WINDOW, cap)
}

/// Fetch/register a drift detector in the [`global`] registry.
pub fn detector(name: &'static str, cfg: CusumConfig) -> Arc<DriftDetector> {
    global().detector(name, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_window_counts_recent_buckets_only() {
        let c = WindowedCounter::new(WindowSpec::new(100, 4));
        assert!(c.add_at(0, 3));
        assert!(c.add_at(1, 2));
        assert!(c.add_at(2, 1));
        assert_eq!(c.window_at(2).count, 6);
        // Ring holds 4 buckets; at idx 5 only idx 2..=5 survive — and
        // idx 0 and 1 were rotated out when 4 and 5 claimed the slots.
        assert!(c.add_at(4, 10));
        assert!(c.add_at(5, 20));
        assert_eq!(c.window_at(5).count, 31);
    }

    #[test]
    fn stale_record_is_dropped_and_counted() {
        let c = WindowedCounter::new(WindowSpec::new(100, 2));
        assert!(c.add_at(5, 1));
        assert!(
            !c.add_at(1, 1),
            "bucket 1 already rotated out of a 2-slot ring"
        );
        assert_eq!(c.stale_records(), 1);
        assert_eq!(c.window_at(5).count, 1);
    }

    #[test]
    fn histogram_window_quantiles_match_cumulative_math() {
        let bounds = [1.0, 2.0, 4.0];
        let h = WindowedHistogram::new(WindowSpec::new(1000, 8), &bounds);
        for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
            assert!(h.record_at(3, v));
        }
        let view = h.window_at(3);
        assert_eq!(view.count, 5);
        let cumulative = crate::metrics::Registry::new().histogram("h", &bounds);
        for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
            cumulative.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(view.quantile(q), cumulative.quantile(q), "q={q}");
        }
    }

    #[test]
    fn concurrent_histogram_records_commit_whole() {
        // Racing recorders across rotations. No record for the last
        // four buckets can be stale (nothing newer is ever recorded),
        // and each committed record adds to its slot's count, one cell
        // and the sum together.
        let h = WindowedHistogram::new(WindowSpec::new(1000, 4), &[1.0, 2.0]);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let h = &h;
                scope.spawn(move || {
                    for idx in 0..32 {
                        for _ in 0..50 {
                            h.record_at(idx, 0.5 + f64::from(t % 2));
                        }
                    }
                });
            }
        });
        for idx in 28..32 {
            let view = h.window_span(idx, 1);
            assert_eq!(view.count, 200, "bucket {idx}");
            let cells: Vec<u64> = view.buckets.iter().map(|&(_, n)| n).collect();
            assert_eq!(cells, [100, 100, 0]);
            assert_eq!(view.sum, 0.5 * 100.0 + 1.5 * 100.0);
        }
    }

    #[test]
    fn histogram_nan_is_quarantined() {
        let h = WindowedHistogram::new(WindowSpec::new(1000, 2), &[1.0]);
        assert!(!h.record_at(0, f64::NAN));
        assert_eq!(h.nan_count(), 1);
        assert_eq!(h.window_at(0).count, 0);
    }

    #[test]
    fn cusum_quiet_on_stationary_stream() {
        let d = DriftDetector::new(CusumConfig::default());
        // Deterministic pseudo-noise around 10.0.
        let mut x = 7u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            d.observe(10.0 + noise);
        }
        assert_eq!(d.state().alarms, 0, "stationary stream must not alarm");
        assert!(!d.state().drifted);
    }

    #[test]
    fn cusum_fires_on_level_shift() {
        let d = DriftDetector::new(CusumConfig::default());
        let mut x = 7u64;
        let mut noise = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..200 {
            d.observe(10.0 + noise());
        }
        assert_eq!(d.state().alarms, 0);
        let mut fired = false;
        for _ in 0..100 {
            if d.observe(25.0 + noise()) {
                fired = true;
                // "Recent alarm" flag is up right when the alarm fires;
                // it decays once the EWMA reference re-adapts.
                assert!(d.state().drifted);
                break;
            }
        }
        assert!(fired, "5x-sigma level shift must raise a CUSUM alarm");
        assert!(d.state().alarms >= 1);
    }

    #[test]
    fn family_caps_cardinality_into_overflow_series() {
        let f = CounterFamily::new("t", &["who"], WindowSpec::new(1000, 4), 2);
        f.add(&["a"], 1);
        f.add(&["b"], 2);
        f.add(&["c"], 3); // over cap: folds into __overflow__
        f.add(&["d"], 4);
        f.add(&["a"], 5); // existing series still works past the cap
        assert_eq!(f.overflow_events(), 2);
        let snap = f.series_snapshot();
        let totals: BTreeMap<String, u64> =
            snap.iter().map(|(k, t, _)| (k[0].clone(), *t)).collect();
        assert_eq!(totals.get("a"), Some(&6));
        assert_eq!(totals.get("b"), Some(&2));
        assert_eq!(totals.get(OVERFLOW_LABEL), Some(&7));
        assert_eq!(totals.get("c"), None);
    }

    #[test]
    #[should_panic(expected = "label values")]
    fn family_panics_on_wrong_label_arity() {
        let f = CounterFamily::new("t", &["a", "b"], WindowSpec::new(1000, 4), 4);
        f.add(&["only-one"], 1);
    }

    // NOTE: set_enabled() toggling is covered in tests/stream_toggle.rs
    // (its own binary) — flipping the process-global flag here would
    // race the other unit tests in this process.

    #[test]
    fn narrowed_window_excludes_old_histogram_buckets() {
        let h = WindowedHistogram::new(WindowSpec::new(100, 10), &[1.0]);
        assert!(h.record_at(0, 0.5));
        assert!(h.record_at(9, 0.5));
        assert_eq!(h.window_at(9).count, 2);
        let narrow = h.window_span(9, 1);
        assert_eq!(narrow.count, 1, "narrow window must exclude bucket 0");
        assert!((narrow.window_secs - 0.1).abs() < 1e-12);
    }
}
