//! # telemetry
//!
//! The workspace's zero-dependency observability layer. Three pieces,
//! each usable on its own (see DESIGN.md §5b for how they are wired
//! through the stack):
//!
//! * [`metrics`] — a process-wide registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and fixed-bucket [`metrics::Histogram`]s. All
//!   instruments are lock-free atomics, cheap enough for hot paths; the
//!   registry itself is only locked at registration and snapshot time.
//!   [`metrics::snapshot`] returns a point-in-time copy of everything.
//! * [`span`] — RAII timers over the monotonic clock
//!   ([`std::time::Instant`]): a [`span::Span`] records its lifetime
//!   into a registry histogram on drop; a [`span::Stopwatch`] is the
//!   bare building block when the caller wants the number itself.
//! * [`json`] + [`sink`] — a hand-rolled JSON value type with writer
//!   *and* parser (the build environment has no crates.io access, so
//!   no serde), and a thread-safe JSONL event sink built on it. Run
//!   logs are one `manifest` line followed by per-step `event` lines;
//!   `src/bin/validate_jsonl.rs` checks that schema and backs the CI
//!   smoke stage.
//!
//! * [`trace`] — hierarchical begin/end span tracing into per-thread
//!   lock-free ring buffers behind one process-wide enable flag,
//!   drained by [`trace::TraceCollector`] into Chrome Trace Event
//!   Format JSON (open in Perfetto or `chrome://tracing`). See
//!   DESIGN.md §5d.
//! * [`perf`] — the parent-vs-change verdict over alternated benchmark
//!   pairs, behind `scripts/perf_pairs.sh` and the `perf_diff` bin.
//! * [`stream`] — the streaming observability plane (DESIGN.md §5i):
//!   sliding-window counters/histograms over a rotated bucket ring,
//!   EWMA smoothers, CUSUM drift detectors, and labeled counter
//!   families with a hard cardinality cap. The cumulative [`metrics`]
//!   registry stays the "since process start" layer underneath.
//! * [`prom`] — Prometheus text exposition over both layers, served by
//!   `serve` at `GET /metrics?format=prom` and checked by
//!   `src/bin/validate_prom.rs`.
//!
//! Nothing in this crate touches any RNG: instrumentation can never
//! perturb the workspace's determinism guarantees (only the *timing
//! values* in the output differ between runs).

pub mod json;
pub mod metrics;
pub mod perf;
pub mod prom;
pub mod sink;
pub mod span;
pub mod stream;
pub mod trace;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry, Snapshot, TIME_BUCKETS};
pub use sink::{AsyncJsonlSink, JsonlSink};
pub use span::{Span, Stopwatch};
pub use stream::{
    CounterFamily, CusumConfig, DriftDetector, Ewma, StreamRegistry, StreamSnapshot, WindowSpec,
    WindowedCounter, WindowedHistogram,
};
pub use trace::{TraceCollector, TraceSnapshot, TraceSpan};
