//! # telemetry
//!
//! The workspace's zero-dependency observability layer. Three pieces
//! (DESIGN.md §5b wires them through the stack):
//!
//! * One registry of named instruments, [`metrics::Registry`], with
//!   one process-wide instance ([`metrics::global`]). It holds the
//!   cumulative [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s of [`metrics`] and the windowed instruments of
//!   [`stream`] (sliding-window counters and histograms, labeled
//!   counter families with a hard cardinality cap, CUSUM drift
//!   detectors; DESIGN.md §5i) under one name space. Cumulative
//!   instruments record with lock-free atomics, windowed ones under a
//!   per-ring mutex; the registry is locked only at registration and
//!   snapshot time. [`metrics::snapshot`] copies every instrument
//!   into one [`Snapshot`], which renders as the `/metrics` JSON
//!   document ([`Snapshot::to_json`]) or as Prometheus text
//!   ([`prom::render`], checked by `src/bin/validate_prom.rs`).
//! * One timer, [`Span`], opened with [`span!`]: it records its
//!   lifetime into the histogram `{cat}_{name}_seconds` and, while
//!   [`trace`] is enabled, begin/end events into per-thread lock-free
//!   ring buffers, drained by [`trace::TraceCollector`] into Chrome
//!   Trace Event Format JSON (open in Perfetto or `chrome://tracing`;
//!   DESIGN.md §5d).
//! * [`json`] + [`sink`]: a hand-rolled JSON value type with writer
//!   *and* parser (the build environment has no crates.io access, so
//!   no serde), and a thread-safe JSONL event sink built on it. Run
//!   logs are one `manifest` line followed by per-step `event` lines;
//!   `src/bin/validate_jsonl.rs` checks that schema.
//!
//! [`perf`] is the parent-vs-change verdict over alternated benchmark
//! pairs, behind `scripts/perf_pairs.sh` and the `perf_diff` bin.
//!
//! Two switches, each off in a different default: the windowed
//! plane's kill switch ([`stream::set_enabled`], on unless a caller
//! measures the plane's overhead) and the trace flag
//! ([`trace::enable`], off unless a run asks for a trace).
//!
//! Nothing in this crate touches any RNG: instrumentation can never
//! perturb the workspace's determinism guarantees (only the *timing
//! values* in the output differ between runs).

pub mod json;
pub mod metrics;
pub mod perf;
pub mod prom;
pub mod sink;
pub mod stream;
pub mod trace;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry, Snapshot, TIME_BUCKETS};
pub use sink::{AsyncJsonlSink, JsonlSink};
pub use stream::{
    CounterFamily, CusumConfig, DriftDetector, WindowSpec, WindowedCounter, WindowedHistogram,
};
pub use trace::{Span, TraceCollector, TraceSnapshot};
