//! Streaming observability plane: sliding-window instruments, CUSUM
//! drift detectors, and labeled metric families.
//!
//! The cumulative instruments in [`crate::metrics`] answer "how much
//! since process start"; these answer "what is happening *right now*".
//! Both kinds live in the one [`crate::metrics::Registry`] under one
//! name space, and the free functions below register into its
//! [`global`] instance. Every instrument here is built from the same
//! primitives as the cumulative ones — fixed-size atomics, no
//! allocation on the record path — so the serve event loop can record
//! into it without taking a lock or touching the heap. They are gated
//! by the plane's own kill switch, [`set_enabled`].
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
//! ## Rotation protocol (lock-free, torn-write-free)
//!
//! Each slot carries a `tag` (`AtomicU64`) identifying which bucket
//! index currently owns it, plus an `active` recorder refcount:
//!
//! * `TAG_EMPTY`     — slot has never been used
//! * `TAG_RESETTING` — a rotator is zeroing the slot
//! * `idx + TAG_BASE` — slot holds data for bucket index `idx`
//!
//! Recorder: `active.fetch_add(1)` → load `tag` → if it matches the
//! wanted index, add the sample and release `active` (committed). If the
//! slot still belongs to an older index, the recorder parks the tag at
//! `TAG_RESETTING` (CAS), waits for in-flight recorders to drain
//! (`active == 1`, itself), zeroes the slot, then publishes the new tag
//! with `Release` ordering. A recorder that finds a *newer* tag is late
//! — its bucket already rotated out — and gives up, counted in `stale`.
//! Because the rotator waits out every in-flight `active` guard before
//! zeroing, a slot can never be zeroed underneath a half-finished add:
//! either the add committed entirely before the wipe, or the recorder
//! observed `TAG_RESETTING`/a newer tag and never touched the counters.
//!
//! Reads (`WindowView`) are racy-but-consistent-enough snapshots: each
//! slot is skipped unless its tag still names an index inside the
//! requested window at load time.
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

/// Slot tag for "never used".
const TAG_EMPTY: u64 = 0;
/// Slot tag while a rotator is zeroing the slot.
const TAG_RESETTING: u64 = 1;
/// Offset added to a bucket index to form its slot tag.
const TAG_BASE: u64 = 2;

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

    /// Total span of the window in seconds.
    pub fn span_secs(&self) -> f64 {
        (self.bucket_millis as f64 / 1000.0) * self.buckets as f64
    }

    fn bucket_index(&self, millis: u64) -> u64 {
        millis / self.bucket_millis.max(1)
    }
}

/// 60 one-second buckets: quantiles/rates over the last minute.
pub const DEFAULT_WINDOW: WindowSpec = WindowSpec::new(1000, 60);

/// One ring slot: a tag naming the owning bucket index, an in-flight
/// recorder refcount, and the slot's counters (count, sum-bits, and one
/// cell per histogram bound; counters-only instruments use none).
struct Slot {
    tag: AtomicU64,
    active: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
    cells: Vec<AtomicU64>,
}

impl Slot {
    fn new(cells: usize) -> Self {
        Self {
            tag: AtomicU64::new(TAG_EMPTY),
            active: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            cells: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Fixed ring of slots shared by windowed counters and histograms.
struct Ring {
    spec: WindowSpec,
    slots: Vec<Slot>,
    /// Records that arrived for a bucket index already rotated out.
    stale: AtomicU64,
}

enum Claim<'a> {
    /// Slot is tagged for our index; `active` guard is held.
    Ready(&'a Slot),
    /// Our bucket already rotated out of the ring.
    Stale,
}

impl Ring {
    fn new(spec: WindowSpec, cells: usize) -> Self {
        let slots = (0..spec.buckets.max(1)).map(|_| Slot::new(cells)).collect();
        Self {
            spec,
            slots,
            stale: AtomicU64::new(0),
        }
    }

    /// Claim the slot for bucket index `idx`, rotating it if it still
    /// holds an older bucket. On `Ready`, the caller MUST add its sample
    /// and then `release` the slot.
    fn claim(&self, idx: u64) -> Claim<'_> {
        let want = idx + TAG_BASE;
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        loop {
            slot.active.fetch_add(1, Ordering::AcqRel);
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == want {
                return Claim::Ready(slot);
            }
            slot.active.fetch_sub(1, Ordering::AcqRel);
            if tag == TAG_RESETTING {
                std::hint::spin_loop();
                continue;
            }
            if tag > want {
                // A newer bucket owns this slot: our sample is older
                // than the whole ring. Drop it, visibly.
                self.stale.fetch_add(1, Ordering::Relaxed);
                return Claim::Stale;
            }
            // Older bucket (or empty): try to become the rotator.
            if slot
                .tag
                .compare_exchange(tag, TAG_RESETTING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Wait out in-flight recorders of the old bucket, then
                // zero and publish the new tag.
                while slot.active.load(Ordering::Acquire) != 0 {
                    std::hint::spin_loop();
                }
                slot.zero();
                slot.tag.store(want, Ordering::Release);
            }
            // Lost the race (or finished rotating): retry the claim.
        }
    }

    fn release(slot: &Slot) {
        slot.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Visit every slot whose tag still names a bucket index in
    /// `[from_idx, to_idx]` at load time.
    fn visit_window(&self, from_idx: u64, to_idx: u64, mut f: impl FnMut(&Slot)) {
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag < TAG_BASE {
                continue;
            }
            let idx = tag - TAG_BASE;
            if idx >= from_idx && idx <= to_idx {
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
        match self.ring.claim(idx) {
            Claim::Ready(slot) => {
                slot.count.fetch_add(n, Ordering::Relaxed);
                Ring::release(slot);
                true
            }
            Claim::Stale => false,
        }
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
            count += slot.count.load(Ordering::Relaxed);
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
        match self.ring.claim(idx) {
            Claim::Ready(slot) => {
                let cell = self
                    .bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(self.bounds.len());
                slot.cells[cell].fetch_add(1, Ordering::Relaxed);
                slot.count.fetch_add(1, Ordering::Relaxed);
                // CAS f64-bits accumulate, same discipline as the
                // cumulative histogram's sum.
                let mut cur = slot.sum_bits.load(Ordering::Relaxed);
                loop {
                    let next = f64::from_bits(cur) + value;
                    match slot.sum_bits.compare_exchange_weak(
                        cur,
                        next.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
                Ring::release(slot);
                true
            }
            Claim::Stale => false,
        }
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
            count += slot.count.load(Ordering::Relaxed);
            sum += f64::from_bits(slot.sum_bits.load(Ordering::Relaxed));
            for (m, c) in merged.iter_mut().zip(&slot.cells) {
                *m += c.load(Ordering::Relaxed);
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
        {
            let map = self.series.read().unwrap();
            // Allocation-free probe would need a borrowed key; a Vec
            // probe only allocates on the first sighting of a label set
            // because the hit path below returns the existing Arc.
            let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            if let Some(s) = map.get(&key) {
                return Arc::clone(s);
            }
        }
        let mut map = self.series.write().unwrap();
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
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
