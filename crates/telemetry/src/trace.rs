//! Hierarchical tracing: thread-local ring buffers of begin/end span
//! events, drained into **Chrome Trace Event Format** JSON.
//!
//! ## Model
//!
//! * One process-wide atomic **enable flag** ([`enable`]/[`disable`]).
//!   With tracing off, a [`Span`] is two clock reads and one histogram
//!   sample, and the tensor op profiler (which shares the flag) is a
//!   relaxed load plus a branch.
//! * Each thread owns a fixed-capacity **ring buffer** of
//!   [`TraceEvent`]s. The owning thread is the only writer, so pushes
//!   are wait-free: a slot write plus two release stores. Rings are
//!   registered globally on first use and outlive their thread.
//! * A [`Span`] (opened with [`span!`](crate::span)) times its scope
//!   into a histogram; while tracing is on it also records a `Begin`
//!   event on entry and the matching `End` on close. Span ids are
//!   process-unique; a thread-local stack supplies the parent id, so
//!   nesting is captured without any coordination.
//! * [`TraceCollector::collect`] snapshots every ring (per-slot
//!   sequence numbers double as a seqlock so a reader never trusts a
//!   slot that wrapped mid-read), discards unmatched begin/end halves
//!   (ring wrap-around drops oldest events first, so the survivors
//!   stay properly nested), and [`TraceSnapshot::to_chrome_json`]
//!   renders the result as `{"traceEvents": [...]}` — loadable in
//!   Perfetto or `chrome://tracing`, validated by
//!   [`validate_chrome`] in CI.
//!
//! Timestamps come from one process-wide monotonic epoch
//! ([`std::time::Instant`]), exported in microseconds as the Chrome
//! format requires. Tracing never touches any RNG: enabling it cannot
//! perturb a single sampled trajectory or reward.
//!
//! For exact results, collect (and [`reset`]) at quiescence — between
//! batches or after a run — not while traced threads are mid-push.

use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Histogram;

/// Default per-thread ring capacity (events, not spans; a span is two
/// events). Exposed so tests can size rings to provoke wrap-around.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Begin/end marker of one [`TraceEvent`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
}

/// One record in a thread's ring buffer.
#[derive(Copy, Clone, Debug)]
pub struct TraceEvent {
    /// Span name (`"sample"`, `"retrain"`, ...). `&'static` keeps the
    /// record `Copy` and the push allocation-free.
    pub name: &'static str,
    /// Category (`"trainer"`, `"system"`, `"runtime"`).
    pub cat: &'static str,
    pub phase: Phase,
    /// Nanoseconds since the process trace epoch (monotonic).
    pub ts_ns: u64,
    /// Process-unique span id; the begin and end halves share it.
    pub span: u64,
    /// Enclosing span's id, `0` for root spans.
    pub parent: u64,
    /// Track (≈ thread) id the event was recorded on.
    pub track: u32,
}

const EMPTY_EVENT: TraceEvent = TraceEvent {
    name: "",
    cat: "",
    phase: Phase::Begin,
    ts_ns: 0,
    span: 0,
    parent: 0,
    track: 0,
};

/// One slot of a ring: the sequence number (write ordinal, 1-based;
/// `0` = empty or mid-write) doubles as a seqlock for readers.
struct Slot {
    seq: AtomicU64,
    event: UnsafeCell<TraceEvent>,
}

/// A single-writer ring buffer owned by one thread. Readers
/// ([`TraceCollector`]) validate each slot's sequence number before and
/// after copying, so a concurrent wrap is detected and the slot
/// skipped rather than returned torn.
struct Ring {
    track: u32,
    thread_name: String,
    /// Total events ever pushed by the owner.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: `event` cells are written only by the owning thread;
// concurrent readers copy the payload between two Acquire loads of
// `seq` and discard the copy unless both loads agree, so a torn read
// is never *used*. Collection is documented to run at quiescence.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(track: u32, thread_name: String, capacity: usize) -> Self {
        Self {
            track,
            thread_name,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(2))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    event: UnsafeCell::new(EMPTY_EVENT),
                })
                .collect(),
        }
    }

    /// Owner-thread-only append.
    fn push(&self, event: TraceEvent) {
        let head = self.head.load(Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        // Invalidate first so a racing reader discards the slot while
        // the payload is torn.
        slot.seq.store(0, Release);
        // SAFETY: single writer (the owning thread); see `Sync` note.
        unsafe { *slot.event.get() = event };
        slot.seq.store(head + 1, Release);
        self.head.store(head + 1, Release);
    }

    /// Copies out every still-valid slot in write order, plus the
    /// number of events lost to wrap-around.
    fn read(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Acquire);
        let capacity = self.slots.len() as u64;
        let oldest = head.saturating_sub(capacity);
        let mut out: Vec<(u64, TraceEvent)> = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Acquire);
            if before == 0 || before <= oldest || before > head {
                continue;
            }
            // SAFETY: copy validated by re-reading the seqlock below.
            let event = unsafe { *slot.event.get() };
            if slot.seq.load(Acquire) == before {
                out.push((before, event));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        (out.into_iter().map(|(_, e)| e).collect(), oldest)
    }

    /// Owner- or quiescence-only: forget everything ever pushed.
    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Release);
        }
        self.head.store(0, Release);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the process trace epoch to `at`.
fn since_epoch(at: Instant) -> u64 {
    at.duration_since(epoch()).as_nanos() as u64
}

/// Turns tracing on process-wide. Idempotent. Events recorded before
/// the first [`enable`] never existed; spans opened while disabled
/// stay inert even if tracing is enabled before they drop.
pub fn enable() {
    let _ = epoch(); // pin the epoch before the first event
    ENABLED.store(true, Release);
}

/// Turns tracing off process-wide. Spans already open keep recording
/// their `End` halves so the buffers stay balanced.
pub fn disable() {
    ENABLED.store(false, Release);
}

/// The hot-path check: one relaxed atomic load.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Sets the per-thread ring capacity for rings created *after* this
/// call (existing rings keep their size). Tests use small values to
/// exercise wrap-around.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(2), Relaxed);
}

/// Clears every registered ring. Call only at quiescence (no traced
/// work in flight); concurrent pushes may otherwise survive or land in
/// cleared slots, which is harmless but makes counts approximate.
pub fn reset() {
    for ring in registry().lock().unwrap().iter() {
        ring.clear();
    }
}

struct ThreadCtx {
    ring: Arc<Ring>,
    /// Open span ids, innermost last; supplies parent ids.
    stack: RefCell<Vec<u64>>,
}

thread_local! {
    static CTX: ThreadCtx = {
        let track = NEXT_TRACK.fetch_add(1, Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{track}"), str::to_string);
        let ring = Arc::new(Ring::new(track, name, RING_CAPACITY.load(Relaxed)));
        registry().lock().unwrap().push(Arc::clone(&ring));
        ThreadCtx { ring, stack: RefCell::new(Vec::with_capacity(16)) }
    };
}

/// Opens a [`Span`] named `$name` in category `$cat`. It records its
/// lifetime into the global histogram `{cat}_{name}_seconds` (resolved
/// once per call site) and, while tracing is on, pushes a `Begin`/`End`
/// pair onto this thread's trace ring:
///
/// ```
/// # fn retrain() {}
/// let retrain_span = telemetry::span!("system", "retrain");
/// retrain(); // `system_retrain_seconds` gets one sample on drop
/// drop(retrain_span);
/// ```
#[macro_export]
macro_rules! span {
    ($cat:literal, $name:literal) => {{
        static HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::trace::Span::enter(
            $cat,
            $name,
            HIST.get_or_init(|| {
                $crate::metrics::histogram(
                    concat!($cat, "_", $name, "_seconds"),
                    &$crate::TIME_BUCKETS,
                )
            }),
        )
    }};
}

/// The one timer: built by [`span!`](crate::span), it records its
/// lifetime into a histogram when it drops or [`Span::finish`]es. A
/// span opened while tracing is on also pushes `Begin` at entry and
/// `End` at close; one opened while tracing is off stays off the rings
/// even if tracing is enabled before it closes.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    hist: &'static Histogram,
    start: Instant,
    /// The pushed `Begin` event, kept to build the `End` half.
    traced: Option<TraceEvent>,
}

impl Span {
    /// Opens a span recording into `hist`; use [`span!`](crate::span).
    #[doc(hidden)]
    pub fn enter(cat: &'static str, name: &'static str, hist: &'static Histogram) -> Self {
        let start = Instant::now();
        let traced = if is_enabled() {
            begin(name, cat, start)
        } else {
            None
        };
        Self {
            hist,
            start,
            traced,
        }
    }

    /// Closes the span now and returns the seconds it recorded.
    pub fn finish(self) -> f64 {
        ManuallyDrop::new(self).close()
    }

    fn close(&mut self) -> f64 {
        let end = Instant::now();
        if let Some(event) = self.traced.take() {
            finish_event(event, end);
        }
        let secs = end.duration_since(self.start).as_secs_f64();
        self.hist.record(secs);
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Pushes the `Begin` event of a new span at `at` and returns it.
/// `CTX.try_with` skips a span opened or closed while this thread's
/// context is being torn down, where `with` would panic.
#[cold]
fn begin(name: &'static str, cat: &'static str, at: Instant) -> Option<TraceEvent> {
    CTX.try_with(|ctx| {
        let mut stack = ctx.stack.borrow_mut();
        let event = TraceEvent {
            name,
            cat,
            phase: Phase::Begin,
            ts_ns: since_epoch(at),
            span: NEXT_SPAN.fetch_add(1, Relaxed),
            parent: stack.last().copied().unwrap_or(0),
            track: ctx.ring.track,
        };
        stack.push(event.span);
        ctx.ring.push(event);
        event
    })
    .ok()
}

/// Pushes the `End` half of `begin` at `at` on the current thread.
fn finish_event(begin: TraceEvent, at: Instant) {
    let _ = CTX.try_with(|ctx| {
        let mut stack = ctx.stack.borrow_mut();
        if stack.last() == Some(&begin.span) {
            stack.pop();
        }
        ctx.ring.push(TraceEvent {
            phase: Phase::End,
            ts_ns: since_epoch(at),
            track: ctx.ring.track,
            ..begin
        });
    });
}

/// A balanced, per-track-ordered copy of everything the rings hold.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Events grouped by track (ascending), in recording order within
    /// each track; every span id appears exactly twice (begin + end).
    pub events: Vec<TraceEvent>,
    /// `(track id, thread name)` for every registered ring.
    pub tracks: Vec<(u32, String)>,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
    /// Events discarded because their other half was dropped (or the
    /// span is still open).
    pub unmatched: u64,
}

/// Drains the registered rings into [`TraceSnapshot`]s and renders
/// them as Chrome Trace Event JSON.
pub struct TraceCollector;

impl TraceCollector {
    /// Snapshots every ring. Non-destructive; pair with [`reset`] when
    /// the next run must start from an empty buffer.
    pub fn collect() -> TraceSnapshot {
        let rings = registry().lock().unwrap();
        let mut per_ring: Vec<(u32, String, Vec<TraceEvent>)> = Vec::new();
        let mut dropped = 0u64;
        let mut halves: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
        for ring in rings.iter() {
            let (events, lost) = ring.read();
            dropped += lost;
            for event in &events {
                let entry = halves.entry(event.span).or_insert((false, false));
                match event.phase {
                    Phase::Begin => entry.0 = true,
                    Phase::End => entry.1 = true,
                }
            }
            per_ring.push((ring.track, ring.thread_name.clone(), events));
        }
        drop(rings);
        per_ring.sort_by_key(|&(track, _, _)| track);

        let mut snapshot = TraceSnapshot::default();
        for (track, name, events) in per_ring {
            snapshot.tracks.push((track, name));
            for event in events {
                let &(begin, end) = halves.get(&event.span).expect("span indexed");
                if begin && end {
                    snapshot.events.push(event);
                } else {
                    snapshot.unmatched += 1;
                }
            }
        }
        snapshot.dropped = dropped;
        snapshot
    }
}

impl TraceSnapshot {
    /// Number of complete spans (half the event count).
    pub fn span_count(&self) -> usize {
        self.events.len() / 2
    }

    /// Renders the snapshot in Chrome Trace Event Format: an object
    /// with a `traceEvents` array of `M` (metadata) and `B`/`E` events
    /// — `ts` in microseconds, one `tid` per track — plus the drop
    /// counters. `extra` fields (e.g. the op profile) are appended at
    /// the top level, where trace viewers ignore them.
    pub fn to_chrome_json(&self, extra: &[(&str, Json)]) -> Json {
        let mut events = Vec::with_capacity(self.events.len() + self.tracks.len() + 1);
        events.push(
            Json::obj()
                .field("name", "process_name")
                .field("ph", "M")
                .field("pid", 1u64)
                .field("args", Json::obj().field("name", "poisonrec")),
        );
        for (track, name) in &self.tracks {
            events.push(
                Json::obj()
                    .field("name", "thread_name")
                    .field("ph", "M")
                    .field("pid", 1u64)
                    .field("tid", *track)
                    .field("args", Json::obj().field("name", name.as_str())),
            );
        }
        for event in &self.events {
            events.push(
                Json::obj()
                    .field("name", event.name)
                    .field("cat", event.cat)
                    .field(
                        "ph",
                        match event.phase {
                            Phase::Begin => "B",
                            Phase::End => "E",
                        },
                    )
                    .field("ts", event.ts_ns as f64 / 1_000.0)
                    .field("pid", 1u64)
                    .field("tid", event.track)
                    .field(
                        "args",
                        Json::obj()
                            .field("span", event.span)
                            .field("parent", event.parent),
                    ),
            );
        }
        let mut doc = Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
            .field("droppedEvents", self.dropped)
            .field("unmatchedEvents", self.unmatched);
        for (key, value) in extra {
            doc = doc.field(key, value.clone());
        }
        doc
    }

    /// [`TraceSnapshot::to_chrome_json`] written to `path`.
    pub fn write_chrome(
        &self,
        path: impl AsRef<std::path::Path>,
        extra: &[(&str, Json)],
    ) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_json(extra).render())
    }
}

// ---- Chrome-trace validation & aggregation (shared by the bins) -----------

/// Summary a successful [`validate_chrome`] returns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// `B`/`E` events (metadata lines excluded).
    pub events: u64,
    /// Complete spans (= `events / 2`).
    pub spans: u64,
    /// Distinct `tid`s that carried spans.
    pub tracks: u64,
}

fn event_array(doc: &Json) -> Result<&[Json], String> {
    match doc.get("traceEvents") {
        Some(Json::Arr(events)) => Ok(events),
        Some(other) => Err(format!("`traceEvents` is not an array: {other:?}")),
        None => Err("document has no `traceEvents` field".into()),
    }
}

/// Validates a Chrome Trace document against the workspace schema:
/// every event has `name`/`ph`/`pid`, `B`/`E` events carry `ts`, `tid`
/// and `args.span`, per-track timestamps are monotone non-decreasing,
/// `B`/`E` nest properly per track (LIFO), and every span id has
/// exactly one begin and one end.
pub fn validate_chrome(doc: &Json) -> Result<ChromeStats, String> {
    let events = event_array(doc)?;
    let mut stats = ChromeStats::default();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut halves: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if event.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        if event.get("pid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i}: missing numeric `pid`"));
        }
        if ph == "M" {
            continue; // metadata: name/pid checked above
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unsupported phase `{ph}`"));
        }
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_f64)
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("event {i}: missing finite `ts`"))?;
        let span = event
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing `args.span`"))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: track {tid} timestamp went backwards ({prev} -> {ts})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        stats.events += 1;
        let stack = stacks.entry(tid).or_default();
        let counts = halves.entry(span).or_insert((0, 0));
        if ph == "B" {
            counts.0 += 1;
            stack.push(span);
        } else {
            counts.1 += 1;
            match stack.pop() {
                Some(open) if open == span => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: track {tid} closed span {span} but span {open} was open"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: track {tid} closed span {span} with no span open"
                    ));
                }
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {tid}: span {open} never closed"));
        }
    }
    for (span, (begins, ends)) in &halves {
        if *begins != 1 || *ends != 1 {
            return Err(format!(
                "span {span}: {begins} begin(s) / {ends} end(s), expected exactly one of each"
            ));
        }
    }
    stats.spans = stats.events / 2;
    stats.tracks = stacks.len() as u64;
    Ok(stats)
}

/// Per-name aggregate produced by [`aggregate_chrome`].
#[derive(Clone, Debug, PartialEq)]
pub struct NameAgg {
    pub name: String,
    pub cat: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Wall time including children.
    pub total_ns: u64,
    /// Wall time excluding child spans (flamegraph self time).
    pub self_ns: u64,
}

/// Flamegraph-style aggregation of a (validated) Chrome trace: per
/// span name, the invocation count plus total and self wall time.
/// Returns the aggregates (self-time descending) and the traced wall
/// time — the summed duration of root spans, which the self times of
/// all names add up to exactly.
pub fn aggregate_chrome(doc: &Json) -> Result<(Vec<NameAgg>, u64), String> {
    let events = event_array(doc)?;
    struct Open {
        name: String,
        cat: String,
        start_ns: u64,
        child_ns: u64,
        root: bool,
    }
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut by_name: BTreeMap<(String, String), NameAgg> = BTreeMap::new();
    let mut root_ns = 0u64;
    for (i, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing `tid`"))?;
        let ts_ns = event
            .get("ts")
            .and_then(Json::as_f64)
            .map(|us| (us * 1_000.0).round() as u64)
            .ok_or_else(|| format!("event {i}: missing `ts`"))?;
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            let name = event.get("name").and_then(Json::as_str).unwrap_or("?");
            let cat = event.get("cat").and_then(Json::as_str).unwrap_or("");
            stack.push(Open {
                name: name.to_string(),
                cat: cat.to_string(),
                start_ns: ts_ns,
                child_ns: 0,
                root: stack.is_empty(),
            });
        } else {
            let open = stack
                .pop()
                .ok_or_else(|| format!("event {i}: end with no open span (validate first)"))?;
            let total = ts_ns.saturating_sub(open.start_ns);
            let agg = by_name
                .entry((open.name.clone(), open.cat.clone()))
                .or_insert_with(|| NameAgg {
                    name: open.name.clone(),
                    cat: open.cat.clone(),
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += total.saturating_sub(open.child_ns);
            if open.root {
                root_ns += total;
            } else if let Some(parent) = stack.last_mut() {
                parent.child_ns += total;
            }
        }
    }
    let mut aggs: Vec<NameAgg> = by_name.into_values().collect();
    aggs.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    Ok((aggs, root_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Tracing state is process-global; tests in this module serialize
    /// on one lock so enable/collect/reset can't interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn fresh() {
        disable();
        reset();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
    }

    /// The span contract: one histogram sample per span either way,
    /// ring events only while tracing, and `finish` returns the sample.
    #[test]
    fn span_records_one_sample_and_traces_only_when_enabled() {
        let _guard = lock();
        fresh();
        let hist =
            crate::metrics::global().histogram("test_contract_seconds", &crate::TIME_BUCKETS);
        {
            let _span = crate::span!("test", "contract");
            assert_eq!(hist.count(), 0, "nothing recorded while open");
        }
        assert_eq!(hist.count(), 1);
        assert_eq!(TraceCollector::collect().events.len(), 0);

        enable();
        let before = hist.sum();
        let secs = crate::span!("test", "contract").finish();
        disable();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), before + secs, "finish returns what it recorded");
        let events = TraceCollector::collect().events;
        assert_eq!(events.len(), 2);
        let (b, e) = (events[0], events[1]);
        assert_eq!((b.phase, e.phase), (Phase::Begin, Phase::End));
        assert_eq!((b.name, b.cat, b.span), (e.name, e.cat, e.span));
        assert_eq!((b.name, b.cat), ("contract", "test"));
        assert!(((e.ts_ns - b.ts_ns) as f64 * 1e-9 - secs).abs() < 1e-9);
        reset();
    }

    #[test]
    fn nested_spans_round_trip_through_chrome_json() {
        let _guard = lock();
        fresh();
        enable();
        {
            let _outer = crate::span!("test", "outer");
            let _inner = crate::span!("test", "inner");
        }
        {
            let _solo = crate::span!("test", "solo");
        }
        disable();
        let snapshot = TraceCollector::collect();
        assert_eq!(snapshot.span_count(), 3);
        assert_eq!(snapshot.unmatched, 0);

        // Parent linkage: inner's parent is outer, roots have parent 0.
        let begins: Vec<&TraceEvent> = snapshot
            .events
            .iter()
            .filter(|e| e.phase == Phase::Begin)
            .collect();
        let outer = begins.iter().find(|e| e.name == "outer").unwrap();
        let inner = begins.iter().find(|e| e.name == "inner").unwrap();
        let solo = begins.iter().find(|e| e.name == "solo").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(solo.parent, 0);

        // The export parses with the crate's own parser and validates.
        let doc = json::parse(&snapshot.to_chrome_json(&[]).render()).expect("chrome JSON parses");
        let stats = validate_chrome(&doc).expect("valid trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.tracks, 1);

        let (aggs, root_ns) = aggregate_chrome(&doc).expect("aggregates");
        let self_sum: u64 = aggs.iter().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, root_ns, "self times partition traced wall time");
        reset();
    }

    #[test]
    fn open_spans_are_filtered_until_closed() {
        let _guard = lock();
        fresh();
        enable();
        let open = crate::span!("test", "open");
        {
            let _closed = crate::span!("test", "closed");
        }
        let mid = TraceCollector::collect();
        assert_eq!(mid.span_count(), 1, "only the closed span is complete");
        assert_eq!(mid.unmatched, 1, "the open begin half is unmatched");
        drop(open);
        disable();
        let done = TraceCollector::collect();
        assert_eq!(done.span_count(), 2);
        assert_eq!(done.unmatched, 0);
        reset();
    }

    /// A traced span held by a thread-local that outlives the trace
    /// context (registered first, so destroyed last) closes during
    /// thread teardown without panicking, and still records its sample.
    #[test]
    fn span_closing_after_context_teardown_is_skipped_not_a_panic() {
        thread_local! {
            static HELD: RefCell<Option<Span>> = const { RefCell::new(None) };
        }
        let _guard = lock();
        fresh();
        enable();
        let hist =
            crate::metrics::global().histogram("test_teardown_seconds", &crate::TIME_BUCKETS);
        std::thread::spawn(|| {
            HELD.with(|_| {});
            let span = crate::span!("test", "teardown");
            HELD.with(|held| *held.borrow_mut() = Some(span));
        })
        .join()
        .expect("teardown must not panic");
        disable();
        assert_eq!(hist.count(), 1);
        reset();
    }

    #[test]
    fn wrapping_ring_keeps_survivors_balanced() {
        let _guard = lock();
        fresh();
        enable();
        // This thread's ring may already exist at default capacity, so
        // wrap it the honest way: far more spans than any capacity.
        for _ in 0..DEFAULT_RING_CAPACITY {
            let _s = crate::span!("test", "spin");
        }
        disable();
        let snapshot = TraceCollector::collect();
        assert!(snapshot.dropped > 0, "ring must have wrapped");
        let doc = snapshot.to_chrome_json(&[]);
        validate_chrome(&doc).expect("survivors stay balanced and nested");
        reset();
    }

    #[test]
    fn validator_rejects_unbalanced_and_nonmonotone_documents() {
        let make = |events: &str| {
            json::parse(&format!("{{\"traceEvents\":[{events}]}}")).expect("test doc parses")
        };
        let begin = r#"{"name":"a","cat":"t","ph":"B","ts":1.0,"pid":1,"tid":1,"args":{"span":1,"parent":0}}"#;
        let end = r#"{"name":"a","cat":"t","ph":"E","ts":2.0,"pid":1,"tid":1,"args":{"span":1,"parent":0}}"#;
        let early_end = r#"{"name":"a","cat":"t","ph":"E","ts":0.5,"pid":1,"tid":1,"args":{"span":1,"parent":0}}"#;

        validate_chrome(&make(&format!("{begin},{end}"))).expect("balanced pair is valid");
        assert!(validate_chrome(&make(begin)).is_err(), "unclosed span");
        assert!(validate_chrome(&make(end)).is_err(), "end without begin");
        assert!(
            validate_chrome(&make(&format!("{begin},{early_end}"))).is_err(),
            "timestamps must be monotone per track"
        );
        assert!(
            validate_chrome(&make(&format!("{begin},{end},{begin},{end}"))).is_err(),
            "span ids must be unique"
        );
        assert!(validate_chrome(&json::parse("{}").unwrap()).is_err());
    }
}
